//! The traced run (`--trace 1`): per-layer costs, measured from outside
//! the program.
//!
//! Three passes, each on its own server built from the same seed:
//!
//! 1. **Serving pass** — the end-to-end open loop at the workload's fixed
//!    rate, untraced: admission and queueing figures from the responses
//!    and pool reports, lock contention and version-stash figures from
//!    the store's stats.
//! 2. **Traced replay** — the same stream on one thread, through the
//!    public functions the server calls, in the server's order
//!    (`begin_read`, `parse_query_symbols`, `canonical_query`,
//!    `AnswerCache::lookup`, then on a miss `recording_deps`, the engine
//!    and `AnswerCache::fill`; updates through `begin_write`,
//!    `assert_text`/`retract`, `commit` and `AnswerCache::on_commit`).
//!    Every call sits in a span of a `blog_obs::Tracer`; a layer's self
//!    time is its span's duration minus its children's.
//! 3. **Counter pass** — a fixed prefix of the stream replayed
//!    untraced and single-threaded; the counters it reads from the
//!    public stats structs repeat exactly for a seed.
//!
//! A probe of the OR-parallel engine at 1 and 2 workers over the
//! workload's distinct queries measures the frontier layer.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{canonical_query, parse_query_symbols, ClauseId, SearchStats};
use blog_obs::{to_chrome_trace, to_jsonl, Json, SpanId, TraceConfig, TraceRecord, Tracer};
use blog_parallel::{par_best_first_with, ParallelConfig};
use blog_serve::{AnswerCache, CacheConfig, CacheKey, CacheMode, ExecMode, QueryServer};
use blog_workloads::ChurnOp;

use crate::e2e::Outcome;
use crate::load::{probe_update, setup, Load, OpenLoop};
use crate::oracle::{Answer, Oracle};
use crate::util::{median, num_obj, pctl, provenance, ratio};
use crate::workload::{
    generate, Generated, Req, Update, Workload, COMMIT_PROBE_UPDATES, QUERIES_PER_UPDATE,
};

/// Shares of `--seconds` for the serving pass, the traced replay and the
/// parallel probe.
const SERVE_SHARE: f64 = 0.35;
const REPLAY_SHARE: f64 = 0.35;
const PARALLEL_SHARE: f64 = 0.2;

/// Most stream requests the traced replay keeps spans for.
const REPLAY_CAP: usize = 5_000;

/// Stream requests of the counter pass (after its warm-up).
fn counter_requests(w: Workload) -> usize {
    match w {
        Workload::HotSmall => 4_000,
        Workload::ChurnLarge => 2_000,
        Workload::SearchOr => 48,
    }
}

/// Deterministic work counters of a single-threaded replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counters {
    /// Warm-up requests (each distinct query once; all cache misses).
    pub warmup_requests: u64,
    pub requests: u64,
    pub engine_runs: u64,
    pub solutions: u64,
    pub nodes_expanded: u64,
    pub unify_attempts: u64,
    pub unify_successes: u64,
    pub clause_touches: u64,
    pub store_hits: u64,
    pub candidates_scanned: u64,
    pub lock_acquisitions: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_fills: u64,
    pub cache_invalidations: u64,
    pub commits: u64,
}

impl Counters {
    fn to_json(self) -> Json {
        num_obj(&[
            ("warmup_requests", self.warmup_requests as f64),
            ("requests", self.requests as f64),
            ("engine_runs", self.engine_runs as f64),
            ("solutions", self.solutions as f64),
            ("nodes_expanded", self.nodes_expanded as f64),
            ("unify_attempts", self.unify_attempts as f64),
            ("unify_successes", self.unify_successes as f64),
            ("clause_touches", self.clause_touches as f64),
            ("store_hits", self.store_hits as f64),
            ("candidates_scanned", self.candidates_scanned as f64),
            (
                "track_cache_lock_acquisitions",
                self.lock_acquisitions as f64,
            ),
            ("cache_lookups", self.cache_lookups as f64),
            ("cache_hits", self.cache_hits as f64),
            ("cache_fills", self.cache_fills as f64),
            ("cache_invalidations", self.cache_invalidations as f64),
            ("commits", self.commits as f64),
        ])
    }
}

/// The server's request path, replayed on the calling thread.
struct Replay<'a> {
    server: &'a QueryServer,
    exec: ExecMode,
    tracer: Tracer,
    weights: WeightStore,
    oracle: Oracle,
    next_query: u64,
    next_update: u64,
    engine_runs: u64,
    solutions: u64,
    search: SearchStats,
    /// Engine wall time and nodes of the traced engine runs.
    engine_ns: u64,
    failed: u64,
    attempted: u64,
}

impl<'a> Replay<'a> {
    fn new(gen: &Generated, server: &'a QueryServer, exec: ExecMode, tracer: Tracer) -> Replay<'a> {
        Replay {
            server,
            exec,
            tracer,
            weights: WeightStore::new(WeightParams::default()),
            oracle: Oracle::new(gen),
            next_query: 0,
            next_update: 0,
            engine_runs: 0,
            solutions: 0,
            search: SearchStats::default(),
            engine_ns: 0,
            failed: 0,
            attempted: 0,
        }
    }

    fn query(&mut self, req: &Req) -> Result<(), String> {
        let store = self.server.store();
        let cache = self.server.answer_cache();
        let solve = self.server.config().solve.clone();
        let handle = self.tracer.start(self.next_query, req.text.clone());
        self.next_query += 1;
        self.attempted += 1;
        let span = |name: &'static str| handle.as_ref().map(|h| h.span(SpanId::ROOT, name));

        let guard = span("spd.begin_read");
        let mut snap = store.begin_read().for_pool(0);
        drop(guard);
        let epoch = snap.epoch();
        let guard = span("logic.parse");
        let query = parse_query_symbols(snap.symbols(), &req.text)
            .map_err(|e| format!("replay query {:?} rejected: {e}", req.text))?;
        drop(guard);
        let key = cache.enabled().then(|| {
            let _guard = span("logic.canon");
            CacheKey {
                canon: canonical_query(snap.symbols(), &query),
                max_nodes: solve.max_nodes,
                max_solutions: solve.max_solutions,
                max_depth: solve.max_depth,
            }
        });
        let hit = key.as_ref().and_then(|k| {
            let _guard = span("cache.lookup");
            cache.lookup(k, epoch)
        });
        let solutions = match hit {
            Some(cached) => (*cached).clone(),
            None => {
                if key.is_some() {
                    snap = snap.recording_deps();
                }
                let guard = span("core.engine");
                let t = Instant::now();
                let (mut texts, stats) = match self.exec {
                    ExecMode::Sequential => {
                        let mut overlay = HashMap::new();
                        let mut view = WeightView::new(&mut overlay, &self.weights);
                        let cfg = BestFirstConfig {
                            solve: solve.clone(),
                            learn: false,
                            ..BestFirstConfig::default()
                        };
                        let r = best_first_with(&snap, &query, &mut view, &cfg);
                        let texts: Vec<String> = r
                            .solutions
                            .iter()
                            .map(|s| s.solution.to_text_syms(snap.symbols()))
                            .collect();
                        (texts, r.stats)
                    }
                    ExecMode::OrParallel { n_workers, policy } => {
                        let cfg = ParallelConfig {
                            n_workers,
                            policy,
                            solve: solve.clone(),
                            learn: false,
                            ..ParallelConfig::default()
                        };
                        let r = par_best_first_with(&snap, &query, &self.weights, &cfg);
                        let texts: Vec<String> = r
                            .solutions
                            .iter()
                            .map(|s| s.solution.to_text_syms(snap.symbols()))
                            .collect();
                        (texts, r.stats)
                    }
                };
                texts.sort();
                self.engine_ns += t.elapsed().as_nanos() as u64;
                drop(guard);
                self.engine_runs += 1;
                self.solutions += texts.len() as u64;
                self.search.merge(&stats);
                if let Some(k) = key {
                    let _guard = span("cache.fill");
                    cache.fill(k, epoch, snap.recorded_deps(), Arc::new(texts.clone()));
                }
                texts
            }
        };
        let guard = span("spd.end_read");
        drop(snap);
        drop(guard);
        if let Some(h) = handle {
            self.tracer.finish(h);
        }
        self.oracle.check(&mut [Answer {
            group: req.group,
            text: &req.text,
            epoch,
            solutions: &solutions,
        }])
    }

    /// Apply one update as the server's update lane does; returns the
    /// asserted ids (empty when the store refused the transaction).
    fn update(&mut self, u: &Update) -> Vec<ClauseId> {
        let store = self.server.store();
        let cache = self.server.answer_cache();
        let handle = self.tracer.start((1 << 62) | self.next_update, "update");
        self.next_update += 1;
        self.attempted += 1;
        let span = |name: &'static str| handle.as_ref().map(|h| h.span(SpanId::ROOT, name));

        let guard = span("spd.begin_write");
        let mut txn = store.begin_write();
        drop(guard);
        let guard = span("spd.apply");
        let mut asserted = Vec::new();
        let mut ok = true;
        for op in &u.ops {
            let r = match op {
                ChurnOp::Assert { text } => txn.assert_text(text).map(|ids| asserted.extend(ids)),
                ChurnOp::Retract { id } => txn.retract(*id),
            };
            ok &= r.is_ok();
        }
        drop(guard);
        if !ok {
            drop(txn);
            self.failed += 1;
            return Vec::new();
        }
        let base = txn.base_epoch();
        let touched = txn.touched_preds();
        let guard = span("spd.commit");
        let epoch = txn.commit();
        drop(guard);
        let guard = span("cache.on_commit");
        cache.on_commit(base, epoch, &touched);
        drop(guard);
        if let Some(h) = handle {
            self.tracer.finish(h);
        }
        self.oracle.record(u, epoch, &asserted);
        asserted
    }

    /// Warm-up, then the stream (with its updates) until `stop` says so,
    /// then the commit probe of a read-only workload.
    fn run(&mut self, gen: &Generated, stop: impl Fn(usize) -> bool) -> Result<(), String> {
        for req in gen.distinct() {
            self.query(&req)?;
        }
        let mut updates = gen.updates.iter();
        let mut i = 0;
        while !stop(i) {
            self.query(&gen.requests[i % gen.requests.len()])?;
            i += 1;
            if gen.workload.churns() && i % QUERIES_PER_UPDATE == 0 {
                match updates.next() {
                    Some(u) => {
                        self.update(u);
                    }
                    None => return Err("update stream exhausted in the replay".into()),
                }
            }
        }
        if !gen.workload.churns() {
            let mut live = None;
            for k in 0..COMMIT_PROBE_UPDATES {
                live = self.update(&probe_update(k, live)).first().copied();
            }
        }
        Ok(())
    }
}

/// The engine the counter pass runs: the server's, on one thread.
fn single_threaded(exec: ExecMode) -> ExecMode {
    match exec {
        ExecMode::Sequential => ExecMode::Sequential,
        ExecMode::OrParallel { policy, .. } => ExecMode::OrParallel {
            n_workers: 1,
            policy,
        },
    }
}

fn new_server(gen: &Generated) -> QueryServer {
    QueryServer::new(
        &gen.program.db,
        gen.store_config.clone(),
        gen.serve_config.clone(),
    )
}

/// Replay a fixed prefix of the stream untraced on one thread and read
/// the work counters at its boundaries.
pub fn counter_pass(gen: &Generated) -> Result<Counters, String> {
    let server = new_server(gen);
    let store = server.store();
    let cache = server.answer_cache();
    let before = (
        store.stats(),
        store.lock_stats(),
        cache.stats(),
        store.mvcc_stats(),
    );
    let mut replay = Replay::new(
        gen,
        &server,
        single_threaded(gen.serve_config.exec),
        Tracer::off(),
    );
    let n = counter_requests(gen.workload);
    replay.run(gen, |i| i >= n)?;
    if replay.failed > 0 {
        return Err(format!(
            "{} updates failed in the counter pass",
            replay.failed
        ));
    }
    let (s0, l0, c0, m0) = before;
    let (s1, l1, c1, m1) = (
        store.stats(),
        store.lock_stats(),
        cache.stats(),
        store.mvcc_stats(),
    );
    Ok(Counters {
        warmup_requests: gen.distinct().len() as u64,
        requests: replay.next_query,
        engine_runs: replay.engine_runs,
        solutions: replay.solutions,
        nodes_expanded: replay.search.nodes_expanded,
        unify_attempts: replay.search.unify_attempts,
        unify_successes: replay.search.unify_successes,
        clause_touches: s1.accesses - s0.accesses,
        store_hits: s1.hits - s0.hits,
        candidates_scanned: s1.candidates_scanned - s0.candidates_scanned,
        lock_acquisitions: l1.0 - l0.0,
        cache_lookups: c1.lookups - c0.lookups,
        cache_hits: c1.hits - c0.hits,
        cache_fills: c1.fills - c0.fills,
        cache_invalidations: c1.invalidations - c0.invalidations,
        commits: m1.commits - m0.commits,
    })
}

/// Self time of every span, grouped by span name, in microseconds; and
/// per query trace the summed self time of all its layer spans.
struct SelfTimes {
    by_name: BTreeMap<String, Vec<f64>>,
    /// Per trace, summed self time per name (µs).
    per_trace: Vec<BTreeMap<String, f64>>,
}

fn self_times(records: &[TraceRecord]) -> SelfTimes {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut per_trace = Vec::with_capacity(records.len());
    for t in records {
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in t.spans.iter().filter(|s| s.id != SpanId::ROOT) {
            *child_ns.entry(s.parent.0).or_insert(0) += s.end_ns - s.start_ns;
        }
        let mut mine: BTreeMap<String, f64> = BTreeMap::new();
        for s in t.spans.iter().filter(|s| s.id != SpanId::ROOT) {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id.0).copied().unwrap_or(0));
            let us = own as f64 / 1e3;
            by_name.entry(s.name.clone()).or_default().push(us);
            *mine.entry(s.name.clone()).or_insert(0.0) += us;
        }
        per_trace.push(mine);
    }
    SelfTimes { by_name, per_trace }
}

/// Median over traces that have any of `names` of their summed self
/// time over `names`, µs.
fn per_trace_median(st: &SelfTimes, names: &[&str]) -> f64 {
    let sums: Vec<f64> = st
        .per_trace
        .iter()
        .filter(|m| names.iter().any(|n| m.contains_key(*n)))
        .map(|m| names.iter().filter_map(|n| m.get(*n)).sum())
        .collect();
    median(&sums)
}

/// Canonicalization and answer-cache lookup timed over the workload's
/// distinct queries, for a workload whose server runs with the cache
/// off (its request path calls neither).
fn canon_lookup_probe(gen: &Generated, server: &QueryServer) -> (Vec<f64>, Vec<f64>) {
    let snap = server.store().begin_read();
    let cache = AnswerCache::new(CacheConfig {
        mode: CacheMode::Precise,
        budget_bytes: None,
        ..CacheConfig::default()
    });
    let queries: Vec<_> = gen
        .distinct()
        .iter()
        .map(|r| parse_query_symbols(snap.symbols(), &r.text).expect("stream queries parse"))
        .collect();
    let key = |canon: String| CacheKey {
        canon,
        max_nodes: None,
        max_solutions: None,
        max_depth: None,
    };
    for q in &queries {
        cache.fill(
            key(canonical_query(snap.symbols(), q)),
            snap.epoch(),
            Vec::new(),
            Arc::new(Vec::new()),
        );
    }
    let (mut canon_us, mut lookup_us) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        for q in &queries {
            let t = Instant::now();
            let k = key(canonical_query(snap.symbols(), q));
            canon_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            let hit = cache.lookup(&k, snap.epoch());
            lookup_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            assert!(hit.is_some(), "probe entries stay valid at a fixed epoch");
        }
    }
    (canon_us, lookup_us)
}

/// The frontier layer: the OR-parallel engine at 1 and 2 workers over
/// the distinct queries, alternating, for about `secs` seconds.
struct ParallelProbe {
    nodes_per_s: [f64; 2],
    shard_locks_per_node: f64,
    spurious_wakeups: f64,
}

fn parallel_probe(gen: &Generated, server: &QueryServer, secs: f64) -> ParallelProbe {
    let snap = server.store().begin_read();
    let weights = WeightStore::new(WeightParams::default());
    let queries: Vec<_> = gen
        .distinct()
        .iter()
        .map(|r| parse_query_symbols(snap.symbols(), &r.text).expect("stream queries parse"))
        .collect();
    let policy = match gen.serve_config.exec {
        ExecMode::OrParallel { policy, .. } => policy,
        ExecMode::Sequential => blog_parallel::FrontierPolicy::Sharded { d: 512 },
    };
    let (mut nodes, mut ns) = ([0u64; 2], [0u64; 2]);
    let (mut shard_locks, mut spurious, mut runs_w2) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        for q in &queries {
            for (i, n_workers) in [1usize, 2].into_iter().enumerate() {
                let cfg = ParallelConfig {
                    n_workers,
                    policy,
                    learn: false,
                    ..ParallelConfig::default()
                };
                let t = Instant::now();
                let r = par_best_first_with(&snap, q, &weights, &cfg);
                ns[i] += t.elapsed().as_nanos() as u64;
                nodes[i] += r.stats.nodes_expanded;
                if n_workers == 2 {
                    shard_locks += r.counters.shard_locks;
                    spurious += r.counters.spurious_wakeups;
                    runs_w2 += 1;
                }
            }
        }
    }
    ParallelProbe {
        nodes_per_s: [0, 1].map(|i| nodes[i] as f64 / (ns[i] as f64 / 1e9)),
        shard_locks_per_node: ratio(shard_locks, nodes[1]),
        spurious_wakeups: ratio(spurious, runs_w2),
    }
}

/// Where the span exports go.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    // 1. Serving pass.
    let (gen, server, warm, _) = setup(w, seed);
    let mut load = Load::new(&gen, &server);
    load.sample_mvcc = true;
    load.check(&gen.distinct(), &warm)?;
    let locks_before = server.store().lock_stats();
    let mvcc_before = server.store().mvcc_stats();
    let mut open = OpenLoop::default();
    let mut chunk = 0u64;
    while open.serve_s < seconds * SERVE_SHARE {
        load.open_loop_chunk(
            w.chunk_s().min(seconds * SERVE_SHARE),
            seed ^ (0x7ACE + chunk),
            &mut open,
        )?;
        chunk += 1;
    }
    if !w.churns() {
        load.commit_probe(COMMIT_PROBE_UPDATES);
    }
    let locks_after = server.store().lock_stats();
    let mvcc_after = server.store().mvcc_stats();
    let commits = mvcc_after.commits - mvcc_before.commits;
    let stash: Vec<f64> = load
        .mvcc_after_commit
        .iter()
        .map(|m| m.stashed_pages as f64)
        .collect();
    let (mut attempted, mut failed) = (load.attempted, load.failed);
    drop(load);
    drop(server);

    // 2. Traced replay.
    let replay_server = new_server(&gen);
    let ring =
        gen.distinct().len() + REPLAY_CAP + REPLAY_CAP / QUERIES_PER_UPDATE + COMMIT_PROBE_UPDATES;
    let tracer = Tracer::new(TraceConfig::always_on().with_ring_capacity(ring), seed);
    let mut replay = Replay::new(&gen, &replay_server, gen.serve_config.exec, tracer);
    let t = Instant::now();
    let budget = seconds * REPLAY_SHARE;
    replay.run(&gen, |i| {
        i >= REPLAY_CAP || t.elapsed().as_secs_f64() >= budget
    })?;
    attempted += replay.attempted;
    failed += replay.failed;
    let records = replay.tracer.recorder().snapshot();
    let st = self_times(&records);

    // 3. Counter pass and the layer probes.
    let counters = counter_pass(&gen)?;
    let (probe_canon, probe_lookup) = if st.by_name.contains_key("logic.canon") {
        (Vec::new(), Vec::new())
    } else {
        canon_lookup_probe(&gen, &replay_server)
    };
    let par = parallel_probe(&gen, &replay_server, seconds * PARALLEL_SHARE);

    // Exports.
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}_seed{seed}", w.name());
    let jsonl = dir.join(format!("{stem}.spans.jsonl"));
    let chrome = dir.join(format!("{stem}.chrome.json"));
    std::fs::write(&jsonl, to_jsonl(&records))
        .map_err(|e| format!("write {}: {e}", jsonl.display()))?;
    std::fs::write(&chrome, to_chrome_trace(&records))
        .map_err(|e| format!("write {}: {e}", chrome.display()))?;

    let med = |name: &str, probe: &[f64]| match st.by_name.get(name) {
        Some(v) => median(v),
        None => median(probe),
    };
    let replay_nodes = replay.search.nodes_expanded;
    let metrics = vec![
        ("logic.parse_us", "us", med("logic.parse", &[])),
        ("logic.canon_us", "us", med("logic.canon", &probe_canon)),
        ("cache.lookup_us", "us", med("cache.lookup", &probe_lookup)),
        // Over the stream after warm-up: each warm-up request is one
        // lookup, and a miss.
        (
            "cache.hit_rate",
            "ratio",
            ratio(
                counters.cache_hits,
                counters
                    .cache_lookups
                    .saturating_sub(counters.warmup_requests),
            ),
        ),
        (
            "cache.invalidations_per_commit",
            "count",
            ratio(counters.cache_invalidations, counters.commits),
        ),
        (
            "serve.queue_wait_p50_ms",
            "ms",
            pctl(&open.queue_wait_ms, 0.5),
        ),
        ("serve.service_p50_ms", "ms", pctl(&open.service_ms, 0.5)),
        (
            "serve.queue_peak",
            "count",
            open.queue_peaks.iter().copied().max().unwrap_or(0) as f64,
        ),
        (
            "serve.driver_lateness_p99_ms",
            "ms",
            pctl(&open.lateness_ms, 0.99),
        ),
        (
            "spd.snapshot_open_us",
            "us",
            per_trace_median(&st, &["spd.begin_read", "spd.end_read"]),
        ),
        (
            "spd.commit_us",
            "us",
            per_trace_median(&st, &["spd.begin_write", "spd.apply", "spd.commit"]),
        ),
        (
            "spd.stash_pages",
            "count",
            stash.iter().sum::<f64>() / stash.len().max(1) as f64,
        ),
        (
            "spd.pages_retired",
            "count",
            ratio(
                mvcc_after.pages_retired - mvcc_before.pages_retired,
                commits,
            ),
        ),
        (
            "spd.touches_per_request",
            "count",
            ratio(counters.clause_touches, counters.requests),
        ),
        (
            "spd.store_hit_rate",
            "ratio",
            ratio(counters.store_hits, counters.clause_touches),
        ),
        (
            "spd.candidates_per_solution",
            "count",
            ratio(counters.candidates_scanned, counters.solutions),
        ),
        (
            "spd.lock_contended_share",
            "ratio",
            ratio(
                locks_after.1 - locks_before.1,
                locks_after.0 - locks_before.0,
            ),
        ),
        ("core.engine_us", "us", med("core.engine", &[])),
        (
            "core.nodes_per_request",
            "count",
            ratio(counters.nodes_expanded, counters.engine_runs),
        ),
        (
            "core.ns_per_node",
            "ns",
            replay.engine_ns as f64 / replay_nodes.max(1) as f64,
        ),
        (
            "core.unify_success_share",
            "ratio",
            ratio(counters.unify_successes, counters.unify_attempts),
        ),
        ("parallel.nodes_per_s_w1", "1/s", par.nodes_per_s[0]),
        ("parallel.nodes_per_s_w2", "1/s", par.nodes_per_s[1]),
        (
            "parallel.shard_locks_per_node",
            "count",
            par.shard_locks_per_node,
        ),
        ("parallel.spurious_wakeups", "count", par.spurious_wakeups),
    ];

    // Attribution: how much of the serving pass's median service time
    // the replay's layer self times account for.
    let query_traces: Vec<f64> = st
        .per_trace
        .iter()
        .filter(|m| m.contains_key("logic.parse"))
        .map(|m| m.values().sum())
        .collect();
    let explained_us = median(&query_traces);
    let service_us = pctl(&open.service_ms, 0.5) * 1e3;
    let layers = Json::Obj(
        st.by_name
            .iter()
            .map(|(name, v)| {
                let obj = num_obj(&[
                    ("spans", v.len() as f64),
                    ("self_p50_us", median(v)),
                    ("self_mean_us", v.iter().sum::<f64>() / v.len() as f64),
                    ("self_total_ms", v.iter().sum::<f64>() / 1e3),
                ]);
                (name.clone(), obj)
            })
            .collect(),
    );
    let mut diag = provenance(seed);
    diag.extend([
        ("workload".into(), Json::str(w.name())),
        ("run".into(), Json::str("traced")),
        ("live_clauses".into(), Json::int(gen.live_clauses() as u64)),
        ("geometry_slots".into(), Json::int(gen.geometry_slots())),
        ("offered_rps".into(), Json::Num(w.offered_rps())),
        (
            "requests".into(),
            num_obj(&[
                ("serving_pass", open.latency_ms.len() as f64),
                ("replay_traces", records.len() as f64),
                ("counter_pass", counters.requests as f64),
            ]),
        ),
        ("counters".into(), counters.to_json()),
        ("self_time".into(), layers),
        (
            "attribution".into(),
            num_obj(&[
                ("serving_service_p50_us", service_us),
                ("replay_layers_p50_us", explained_us),
                ("unexplained_share", 1.0 - explained_us / service_us),
            ]),
        ),
        (
            "generator".into(),
            Json::Obj(vec![
                (
                    "queue_peaks".into(),
                    Json::Arr(
                        open.queue_peaks
                            .iter()
                            .map(|&p| Json::int(p as u64))
                            .collect(),
                    ),
                ),
                ("backlog_grew".into(), Json::Bool(open.backlog_chunks > 0)),
            ]),
        ),
        (
            "span_files".into(),
            Json::Arr(vec![
                Json::str(jsonl.display().to_string()),
                Json::str(chrome.display().to_string()),
            ]),
        ),
    ]);
    Ok(Outcome {
        diagnostics: Json::Obj(diag),
        attempted,
        failed,
        metrics,
    })
}

/// For each workload: the counter pass repeats exactly for `seed`, and
/// `seed + 1` generates a different stream.
pub fn self_test(workloads: &[Workload], seed: u64) -> Result<(), String> {
    for &w in workloads {
        let gen = generate(w, seed);
        let a = counter_pass(&gen)?;
        let b = counter_pass(&generate(w, seed))?;
        if a != b {
            return Err(format!(
                "{}: counters differ between identical runs:\n{a:?}\n{b:?}",
                w.name()
            ));
        }
        let other = generate(w, seed + 1);
        let texts = |g: &Generated| {
            g.requests
                .iter()
                .map(|r| r.text.clone())
                .collect::<Vec<_>>()
        };
        if texts(&gen) == texts(&other) && gen.clause_texts == other.clause_texts {
            return Err(format!(
                "{}: seeds {seed} and {} give the same stream",
                w.name(),
                seed + 1
            ));
        }
        println!(
            "{}: counters repeat ({}); seed {} gives a different stream",
            w.name(),
            a.to_json().render(),
            seed + 1
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--self-test` check on the two workloads that set up in well
    /// under a second (`churn_large` builds a 93k-clause base).
    #[test]
    fn counters_repeat_and_seeds_differ() {
        self_test(&[Workload::HotSmall, Workload::SearchOr], 5).expect("self-test");
    }
}
