//! Driving a `QueryServer` the way its users do: set-up and warm-up,
//! closed saturation batches, Poisson open-loop chunks, and the update
//! lane. Every response passes the oracle gate before it counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use blog_logic::ClauseId;
use blog_serve::{Outcome, QueryServer, ServeReport, UpdateOp};
use blog_spd::MvccStats;
use blog_workloads::ChurnOp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{Answer, Oracle};
use crate::util::ms;
use crate::workload::{
    generate, Generated, Req, Update, Workload, PROBE_ASSERTS_MAX, QUERIES_PER_UPDATE,
};

/// Offset of the first open-loop arrival from the start of a chunk, so
/// pool threads are up before anything is due.
const LEAD: Duration = Duration::from_millis(2);

/// Build workload `w` from `seed`: generate, parse, construct the
/// server, and send every distinct query once. Returns the set-up time
/// and the warm-up report (checked by the caller, outside the timer).
pub fn setup(w: Workload, seed: u64) -> (Generated, QueryServer, ServeReport, f64) {
    let t = Instant::now();
    let gen = generate(w, seed);
    let server = QueryServer::new(
        &gen.program.db,
        gen.store_config.clone(),
        gen.serve_config.clone(),
    );
    let warm = server.serve(gen.distinct().iter().map(Req::request).collect());
    let secs = t.elapsed().as_secs_f64();
    (gen, server, warm, secs)
}

fn update_ops(u: &Update) -> Vec<UpdateOp> {
    u.ops
        .iter()
        .map(|op| match op {
            ChurnOp::Assert { text } => UpdateOp::Assert { text: text.clone() },
            ChurnOp::Retract { id } => UpdateOp::Retract { id: *id },
        })
        .collect()
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// One update call as the lane saw it.
struct Timed {
    ms: f64,
    /// Epoch and asserted ids, when the transaction committed.
    committed: Option<(u64, Vec<ClauseId>)>,
    /// Store state right after the call (sampled only when asked).
    mvcc: Option<MvccStats>,
}

/// Open-loop chunk measurements.
#[derive(Default)]
pub struct OpenLoop {
    /// Due time to response, per request.
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each request.
    pub lateness_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    /// Peak queue depth per pool, maximum over chunks.
    pub queue_peaks: Vec<usize>,
    /// Longest time from the last submission to the last response.
    pub drain_ms: f64,
    /// Chunks whose latency grew from their first to their last quarter
    /// (the offered rate exceeded capacity for a while).
    pub backlog_chunks: usize,
    pub chunks: usize,
    /// Wall time spent serving.
    pub serve_s: f64,
}

/// A serving session over one server: stream cursors, the oracle, and
/// the operation ledger.
pub struct Load<'a> {
    pub gen: &'a Generated,
    pub server: &'a QueryServer,
    pub oracle: Oracle,
    next_req: usize,
    next_update: usize,
    /// Queries and updates sent.
    pub attempted: u64,
    /// Queries not `Completed` plus updates not `Committed`.
    pub failed: u64,
    /// Wall time of every update call.
    pub commit_ms: Vec<f64>,
    /// Store state after each update call (when `sample_mvcc` is set).
    pub mvcc_after_commit: Vec<MvccStats>,
    pub sample_mvcc: bool,
    /// Whether the update stream ran out (a run longer than the stream).
    pub updates_exhausted: bool,
    pub queries_sent: u64,
    pub updates_sent: u64,
    /// Probe facts asserted so far, and the one still live.
    probe_asserts: usize,
    probe_live: Option<ClauseId>,
}

impl<'a> Load<'a> {
    pub fn new(gen: &'a Generated, server: &'a QueryServer) -> Load<'a> {
        Load {
            gen,
            server,
            oracle: Oracle::new(gen),
            next_req: 0,
            next_update: 0,
            attempted: 0,
            failed: 0,
            commit_ms: Vec::new(),
            mvcc_after_commit: Vec::new(),
            sample_mvcc: false,
            updates_exhausted: false,
            queries_sent: 0,
            updates_sent: 0,
            probe_asserts: 0,
            probe_live: None,
        }
    }

    /// The next `n` requests of the stream (cycling).
    fn take_requests(&mut self, n: usize) -> Vec<Req> {
        let reqs = &self.gen.requests;
        let out = (0..n)
            .map(|i| reqs[(self.next_req + i) % reqs.len()].clone())
            .collect();
        self.next_req += n;
        out
    }

    /// The updates owed after `n_queries` more queries on a churning
    /// workload (none otherwise).
    fn take_updates(&mut self, n_queries: usize) -> Vec<Update> {
        if !self.gen.workload.churns() {
            return Vec::new();
        }
        let want = n_queries / QUERIES_PER_UPDATE;
        let ups = &self.gen.updates;
        let end = (self.next_update + want).min(ups.len());
        if end - self.next_update < want {
            self.updates_exhausted = true;
        }
        let out = ups[self.next_update..end].to_vec();
        self.next_update = end;
        out
    }

    /// Check a finished report and its updates, and book them.
    fn absorb(
        &mut self,
        reqs: &[Req],
        report: &ServeReport,
        updates: &[Update],
        timed: Vec<Timed>,
    ) -> Result<(), String> {
        for (u, t) in updates.iter().zip(timed) {
            self.book(Some(u), t);
        }
        self.check(reqs, report)
    }

    /// Book one update call; a committed update of the stream goes to
    /// the oracle (probe updates touch no queried predicate).
    fn book(&mut self, update: Option<&Update>, t: Timed) {
        self.attempted += 1;
        self.updates_sent += 1;
        match (&t.committed, update) {
            (Some((epoch, asserted)), Some(u)) => self.oracle.record(u, *epoch, asserted),
            (Some(_), None) => {}
            (None, _) => self.failed += 1,
        }
        self.commit_ms.push(t.ms);
        self.mvcc_after_commit.extend(t.mvcc);
    }

    /// Oracle-check a report whose request `i` is `reqs[i]`.
    pub fn check(&mut self, reqs: &[Req], report: &ServeReport) -> Result<(), String> {
        if report.responses.len() != reqs.len() {
            return Err(format!(
                "{} responses for {} requests",
                report.responses.len(),
                reqs.len()
            ));
        }
        let mut answers = Vec::with_capacity(reqs.len());
        for r in &report.responses {
            self.attempted += 1;
            self.queries_sent += 1;
            match &r.outcome {
                Outcome::Completed { solutions } => {
                    let req = &reqs[r.request];
                    answers.push(Answer {
                        group: req.group,
                        text: &req.text,
                        epoch: r.epoch,
                        solutions,
                    })
                }
                _ => self.failed += 1,
            }
        }
        self.oracle.check(&mut answers)
    }

    /// Apply `updates` in order, each once `ready(k)` says so.
    fn lane(&self, updates: &[Update], ready: impl Fn(usize)) -> Vec<Timed> {
        updates
            .iter()
            .enumerate()
            .map(|(k, u)| {
                ready(k);
                self.apply(u)
            })
            .collect()
    }

    /// Apply one update through the update lane's primitive
    /// (`QueryServer::apply_update`: one transaction, cache notified in
    /// commit order), timed.
    fn apply(&self, u: &Update) -> Timed {
        let ops = update_ops(u);
        let t = Instant::now();
        let result = self.server.apply_update(&ops);
        let ms = ms(t.elapsed());
        let mvcc = self.sample_mvcc.then(|| self.server.store().mvcc_stats());
        Timed {
            ms,
            committed: result.ok(),
            mvcc,
        }
    }

    /// One closed saturation batch: the whole backlog is submitted at
    /// once while the pools drain it; updates (churn only) follow the
    /// completions, one per `QUERIES_PER_UPDATE`. Returns completed
    /// queries per second and the batch's wall time.
    pub fn saturation_batch(&mut self) -> Result<(f64, f64), String> {
        self.next_req = self.next_req.next_multiple_of(self.gen.workload.round());
        let reqs = self.take_requests(self.gen.workload.saturation_batch());
        let updates = self.take_updates(reqs.len());
        let n = reqs.len();
        let submitted = AtomicUsize::new(0);
        let (report, timed) = self.server.serve_open(|s| {
            std::thread::scope(|scope| {
                let lane = scope.spawn(|| {
                    self.lane(&updates, |k| {
                        let target = ((k + 1) * QUERIES_PER_UPDATE).min(n);
                        while submitted
                            .load(Ordering::Acquire)
                            .saturating_sub(s.pending())
                            < target
                        {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    })
                });
                for r in &reqs {
                    s.submit(r.request());
                    submitted.fetch_add(1, Ordering::Release);
                }
                lane.join().expect("update lane panicked")
            })
        });
        let wall = report.stats.wall_s;
        let rps = report.stats.completed as f64 / wall;
        self.absorb(&reqs, &report, &updates, timed)?;
        Ok((rps, wall))
    }

    /// One open-loop chunk of `secs` seconds: Poisson arrivals at the
    /// workload's fixed rate, each timed from its due time; on `churn`
    /// workloads a second thread applies one update per
    /// `QUERIES_PER_UPDATE` arrivals at the matching due time.
    pub fn open_loop_chunk(
        &mut self,
        secs: f64,
        schedule_seed: u64,
        out: &mut OpenLoop,
    ) -> Result<(), String> {
        let rate = self.gen.workload.offered_rps();
        let mut rng = SmallRng::seed_from_u64(schedule_seed);
        let mut at = 0.0f64;
        let mut due = Vec::new();
        loop {
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / rate;
            if at > secs {
                break;
            }
            due.push(LEAD + Duration::from_secs_f64(at));
        }
        let reqs = self.take_requests(due.len());
        let updates = self.take_updates(reqs.len());
        let t = Instant::now();
        let (report, (lateness, timed, last_submit)) = self.server.serve_open(|s| {
            let t0 = s.started();
            std::thread::scope(|scope| {
                let lane = scope.spawn(|| {
                    self.lane(&updates, |k| {
                        sleep_until(t0 + due[(k + 1) * QUERIES_PER_UPDATE - 1])
                    })
                });
                let mut lateness = Vec::with_capacity(reqs.len());
                for (r, d) in reqs.iter().zip(&due) {
                    let at = t0 + *d;
                    sleep_until(at);
                    lateness.push(ms(Instant::now() - at));
                    s.submit(r.request());
                }
                let last_submit = Instant::now();
                (
                    lateness,
                    lane.join().expect("update lane panicked"),
                    last_submit,
                )
            })
        });
        out.drain_ms = out.drain_ms.max(ms(last_submit.elapsed()));
        out.serve_s += t.elapsed().as_secs_f64();
        out.chunks += 1;
        let mut latency = Vec::with_capacity(reqs.len());
        for r in &report.responses {
            let wait = ms(r.queue_wait);
            let service = ms(r.service);
            latency.push(lateness[r.request] + wait + service);
            out.queue_wait_ms.push(wait);
            out.service_ms.push(service);
        }
        let quarter = latency.len() / 4;
        if quarter > 0 {
            let head = crate::util::median(&latency[..quarter]);
            let tail = crate::util::median(&latency[latency.len() - quarter..]);
            if tail > 2.0 * head + 1.0 {
                out.backlog_chunks += 1;
            }
        }
        out.latency_ms.extend(latency);
        out.lateness_ms.extend(lateness);
        let peaks = report.stats.per_pool.iter().map(|p| p.queue_peak);
        if out.queue_peaks.is_empty() {
            out.queue_peaks = peaks.collect();
        } else {
            for (m, p) in out.queue_peaks.iter_mut().zip(peaks) {
                *m = (*m).max(p);
            }
        }
        self.absorb(&reqs, &report, &updates, timed)
    }

    /// The read-only workloads' commit probe: `n` commits through the
    /// update lane's primitive (`QueryServer::apply_update`) on an
    /// otherwise idle server, each replacing one fact
    /// (assert a fresh probe fact, retract the previous one), so every
    /// commit has the same shape and the base keeps its size. Stops once
    /// `PROBE_ASSERTS_MAX` facts were asserted over the server's life
    /// (each takes a slot for good).
    pub fn commit_probe(&mut self, n: usize) {
        let first = self.probe_asserts;
        let last = (first + n).min(PROBE_ASSERTS_MAX);
        self.probe_asserts = last;
        for k in first..last {
            let t = self.apply(&probe_update(k, self.probe_live));
            self.probe_live = t
                .committed
                .as_ref()
                .and_then(|(_, ids)| ids.first().copied());
            self.book(None, t);
        }
    }
}

/// The `k`-th probe commit: assert probe fact `k` and retract `previous`.
pub fn probe_update(k: usize, previous: Option<ClauseId>) -> Update {
    let mut ops = vec![ChurnOp::Assert {
        text: format!("perfbench_probe({k})."),
    }];
    ops.extend(previous.map(|id| ChurnOp::Retract { id }));
    Update {
        group: u32::MAX,
        ops,
    }
}
