//! The end-to-end run (`--trace 0`): what a user of the server sees.

use blog_obs::Json;
use blog_serve::QueryServer;

use crate::load::{setup, Load, OpenLoop};
use crate::util::{median, num_obj, pctl, peak_rss_mb, provenance};
use crate::workload::{Generated, Workload};

/// Set-ups per run: at least `SETUP_MIN_REPEATS`, and more until they
/// took `SETUP_MIN_S` in total; `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 50;

/// Share of the measured time spent in saturation batches; the rest is
/// open loop.
const SATURATION_SHARE: f64 = 0.4;

/// Commit-probe commits between batches and chunks of a read-only
/// workload, at most once per `PROBE_EVERY_S`, so the probe samples the
/// whole run rather than one moment.
const PROBE_SLICE: usize = 25;
const PROBE_EVERY_S: f64 = 1.0;

/// What the run printed, for `main` to emit.
pub struct Outcome {
    pub diagnostics: Json,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept: Option<(Generated, QueryServer, (u64, u64))> = None;
    while setup_s.len() < SETUP_MIN_REPEATS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPEATS)
    {
        // Drop the previous server first, so peak memory is one server's.
        drop(kept.take());
        let (gen, server, warm, secs) = setup(w, seed);
        setup_s.push(secs);
        let distinct = gen.distinct();
        let mut load = Load::new(&gen, &server);
        load.check(&distinct, &warm)?;
        let warm_ops = (load.attempted, load.failed);
        drop(load);
        kept = Some((gen, server, warm_ops));
    }
    let (gen, server, (warm_attempted, warm_failed)) = kept.expect("set up at least once");
    let mut load = Load::new(&gen, &server);
    // The warm-up answers were checked above at epoch 0; count them once.
    load.attempted = warm_attempted;
    load.failed = warm_failed;
    let mut last_probe: Option<std::time::Instant> = None;
    let mut probe = |load: &mut Load<'_>| {
        if !w.churns() && last_probe.is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S) {
            load.commit_probe(PROBE_SLICE);
            last_probe = Some(std::time::Instant::now());
        }
    };

    let cache_before = server.answer_cache().stats();
    // The open loop runs first: it should not inherit whatever the
    // saturation phase leaves behind on the host.
    let open_queries_before = load.queries_sent;
    let mut open = OpenLoop::default();
    let open_budget = seconds * (1.0 - SATURATION_SHARE);
    let mut chunk = 0u64;
    while open.serve_s < open_budget {
        let secs = w.chunk_s().min(open_budget - open.serve_s).max(0.1);
        load.open_loop_chunk(secs, seed ^ (0x09E7 + chunk), &mut open)?;
        chunk += 1;
        probe(&mut load);
    }
    let open_queries = load.queries_sent - open_queries_before;

    let mut throughput = Vec::new();
    let mut sat_s = 0.0;
    let sat_budget = seconds - open.serve_s;
    while sat_s < sat_budget {
        let (rps, wall) = load.saturation_batch()?;
        throughput.push(rps);
        sat_s += wall;
        probe(&mut load);
    }
    let sat_queries = load.queries_sent - open_queries_before - open_queries;
    let cache = blog_serve::CacheStats::delta(cache_before, server.answer_cache().stats());

    let metrics = vec![
        ("throughput_rps", "1/s", median(&throughput)),
        ("latency_p50_ms", "ms", pctl(&open.latency_ms, 0.5)),
        ("latency_p90_ms", "ms", pctl(&open.latency_ms, 0.9)),
        ("commit_p50_ms", "ms", pctl(&load.commit_ms, 0.5)),
        ("commit_p90_ms", "ms", pctl(&load.commit_ms, 0.9)),
        ("setup_s", "s", median(&setup_s)),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
    ];

    let mut diag = provenance(seed);
    diag.extend([
        ("workload".into(), Json::str(w.name())),
        ("run".into(), Json::str("end_to_end")),
        ("live_clauses".into(), Json::int(gen.live_clauses() as u64)),
        ("geometry_slots".into(), Json::int(gen.geometry_slots())),
        ("offered_rps".into(), Json::Num(w.offered_rps())),
        (
            "requests".into(),
            num_obj(&[
                ("warm_up", warm_attempted as f64),
                ("saturation", sat_queries as f64),
                ("open_loop", open_queries as f64),
                ("updates", load.updates_sent as f64),
            ]),
        ),
        (
            "saturation_batches".into(),
            Json::int(throughput.len() as u64),
        ),
        ("setup_repeats".into(), Json::int(setup_s.len() as u64)),
        ("open_loop_chunks".into(), Json::int(open.chunks as u64)),
        (
            "latency_diagnostic_ms".into(),
            num_obj(&[
                ("p99", pctl(&open.latency_ms, 0.99)),
                ("p999", pctl(&open.latency_ms, 0.999)),
                ("samples", open.latency_ms.len() as f64),
            ]),
        ),
        (
            "generator".into(),
            Json::Obj(vec![
                (
                    "serve.driver_lateness_p99_ms".into(),
                    Json::Num(pctl(&open.lateness_ms, 0.99)),
                ),
                (
                    "queue_peaks".into(),
                    Json::Arr(
                        open.queue_peaks
                            .iter()
                            .map(|&p| Json::int(p as u64))
                            .collect(),
                    ),
                ),
                ("drain_ms_max".into(), Json::Num(open.drain_ms)),
                (
                    "backlog_chunks".into(),
                    Json::int(open.backlog_chunks as u64),
                ),
                ("backlog_grew".into(), Json::Bool(open.backlog_chunks > 0)),
            ]),
        ),
        (
            "commit_samples".into(),
            Json::int(load.commit_ms.len() as u64),
        ),
        ("cache_hit_rate".into(), Json::Num(cache.hit_rate())),
        (
            "failed_share".into(),
            Json::Num(crate::util::ratio(load.failed, load.attempted)),
        ),
        ("oracle_checked".into(), Json::int(load.oracle.checked)),
        (
            "updates_exhausted".into(),
            Json::Bool(load.updates_exhausted),
        ),
    ]);
    if open.backlog_chunks > 0 {
        eprintln!(
            "warning: {} of {} open-loop chunks built a backlog: the fixed rate exceeded capacity",
            open.backlog_chunks, open.chunks
        );
    }
    Ok(Outcome {
        diagnostics: Json::Obj(diag),
        attempted: load.attempted,
        failed: load.failed,
        metrics,
    })
}
