//! Small shared helpers: percentiles, process facts, provenance.

use std::time::Duration;

use blog_obs::Json;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; NaN
/// when there are none.
pub fn pctl(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    pctl(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The repository revision, read from the checkout's `.git` without
/// running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Seed reserved for confirming a claim made while working on another.
pub const CONFIRM_SEED: u64 = 20_251_017;

/// Host and build facts every result carries.
pub fn provenance(seed: u64) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    vec![
        ("nproc".into(), Json::int(nproc)),
        ("rustc".into(), Json::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("git_rev".into(), Json::str(git_rev())),
        ("seed".into(), Json::int(seed)),
        ("confirm_seed".into(), Json::int(CONFIRM_SEED)),
    ]
}

/// `(name, value)` pairs of numbers as a JSON object.
pub fn num_obj(pairs: &[(&str, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect(),
    )
}
