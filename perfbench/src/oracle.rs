//! The oracle gate: every response is diffed against a sequential
//! best-first run over an in-memory clause base rebuilt at the epoch the
//! response executed at (seed clauses plus every update committed up to
//! that epoch). Cache hits are checked like engine answers.
//!
//! Workload clause bases are unions of disjoint groups (one per tenant:
//! every `t<k>_` rule resolves only against `t<k>_` clauses), so the
//! oracle rebuilds only the group a query belongs to. Scoping can only
//! make the oracle *miss* answers, which shows as a mismatch — it can
//! never hide one.

use std::collections::HashMap;

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{parse_program, parse_query_shared, ClauseDb, ClauseId};
use blog_workloads::ChurnOp;

use crate::workload::{Generated, Update};

/// One committed update, with the ids the store gave its asserts.
struct Committed {
    epoch: u64,
    group: u32,
    asserted: Vec<(ClauseId, String)>,
    retracted: Vec<ClauseId>,
}

/// One answer to check.
pub struct Answer<'a> {
    pub group: u32,
    pub text: &'a str,
    pub epoch: u64,
    pub solutions: &'a [String],
}

pub struct Oracle {
    /// Live clause text by clause id (`None` = retracted).
    texts: Vec<Option<String>>,
    groups: Vec<u32>,
    /// Every query text of each group, declared with the group's base
    /// so the query's constants are interned even when no live clause
    /// mentions them any more.
    queries: HashMap<u32, Vec<String>>,
    /// Per-group version: bumped by every applied update of the group.
    versions: HashMap<u32, u64>,
    /// The latest clause base built per group, with its version.
    dbs: HashMap<u32, (u64, ClauseDb)>,
    memo: HashMap<(u32, u64, String), Vec<String>>,
    log: Vec<Committed>,
    applied: usize,
    /// Highest epoch checked so far (answers must arrive in epoch order).
    frontier: u64,
    /// Answers checked.
    pub checked: u64,
}

impl Oracle {
    pub fn new(gen: &Generated) -> Oracle {
        let mut queries: HashMap<u32, Vec<String>> = HashMap::new();
        for r in gen.distinct() {
            queries.entry(r.group).or_default().push(r.text);
        }
        Oracle {
            queries,
            texts: gen.clause_texts.iter().cloned().map(Some).collect(),
            groups: gen.clause_groups.clone(),
            versions: HashMap::new(),
            dbs: HashMap::new(),
            memo: HashMap::new(),
            log: Vec::new(),
            applied: 0,
            frontier: 0,
            checked: 0,
        }
    }

    /// Log one committed update: its epoch and the ids the store gave
    /// its asserts, in op order.
    pub fn record(&mut self, update: &Update, epoch: u64, asserted: &[ClauseId]) {
        let mut ids = asserted.iter();
        let mut entry = Committed {
            epoch,
            group: update.group,
            asserted: Vec::new(),
            retracted: Vec::new(),
        };
        for op in &update.ops {
            match op {
                ChurnOp::Assert { text } => {
                    let id = *ids.next().expect("one id per asserted fact");
                    entry.asserted.push((id, text.clone()));
                }
                ChurnOp::Retract { id } => entry.retracted.push(*id),
            }
        }
        debug_assert!(self.log.last().is_none_or(|e| e.epoch < entry.epoch));
        self.log.push(entry);
    }

    /// Check a set of answers (any order; all epochs at or past those
    /// already checked). Returns a description of the first mismatch.
    pub fn check(&mut self, answers: &mut [Answer<'_>]) -> Result<(), String> {
        answers.sort_by_key(|a| a.epoch);
        for a in answers.iter() {
            if a.epoch < self.frontier {
                return Err(format!(
                    "answer at epoch {} checked after epoch {}",
                    a.epoch, self.frontier
                ));
            }
            self.frontier = a.epoch;
            self.advance(a.epoch);
            let truth = self.truth(a.group, a.text);
            if truth != a.solutions {
                return Err(format!(
                    "oracle gate: query {:?} at epoch {}: server returned {:?}, oracle {:?}",
                    a.text, a.epoch, a.solutions, truth
                ));
            }
            self.checked += 1;
        }
        Ok(())
    }

    /// Apply every logged update committed at or before `epoch`.
    fn advance(&mut self, epoch: u64) {
        while let Some(e) = self.log.get(self.applied).filter(|e| e.epoch <= epoch) {
            for (id, text) in &e.asserted {
                let i = id.0 as usize;
                if self.texts.len() <= i {
                    self.texts.resize(i + 1, None);
                    self.groups.resize(i + 1, u32::MAX);
                }
                self.texts[i] = Some(text.clone());
                self.groups[i] = e.group;
            }
            for id in &e.retracted {
                self.texts[id.0 as usize] = None;
            }
            *self.versions.entry(e.group).or_insert(0) += 1;
            self.applied += 1;
        }
    }

    fn truth(&mut self, group: u32, text: &str) -> &[String] {
        let version = self.versions.get(&group).copied().unwrap_or(0);
        let key = (group, version, text.to_string());
        if !self.memo.contains_key(&key) {
            let stale = self.dbs.get(&group).is_none_or(|(v, _)| *v != version);
            if stale {
                let src: String = self
                    .texts
                    .iter()
                    .zip(&self.groups)
                    .filter(|(_, g)| **g == group)
                    .filter_map(|(t, _)| t.as_deref())
                    .fold(String::new(), |mut acc, t| {
                        acc.push_str(t);
                        acc.push('\n');
                        acc
                    });
                let declared = self.queries.get(&group).into_iter().flatten();
                let src = declared.fold(src, |mut acc, q| {
                    acc.push_str(&format!("?- {q}.\n"));
                    acc
                });
                let db = parse_program(&src).expect("oracle base parses").db;
                self.dbs.insert(group, (version, db));
            }
            let db = &self.dbs[&group].1;
            self.memo.insert(key.clone(), solve(db, text));
        }
        &self.memo[&key]
    }
}

/// Sorted sequential best-first solutions of `text` over `db`.
fn solve(db: &ClauseDb, text: &str) -> Vec<String> {
    let q = parse_query_shared(db, text).expect("oracle query parses");
    let weights = WeightStore::new(WeightParams::default());
    let mut overlay = HashMap::new();
    let mut view = WeightView::new(&mut overlay, &weights);
    let cfg = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let r = best_first_with(db, &q, &mut view, &cfg);
    let mut texts: Vec<String> = r.solutions.iter().map(|s| s.solution.to_text(db)).collect();
    texts.sort();
    texts
}
