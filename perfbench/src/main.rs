//! The b-log serving benchmark.
//!
//! ```text
//! perfbench --workload <hot_small|churn_large|search_or> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test [--seed <n>]
//! ```
//!
//! `--trace 0` runs the end-to-end measurement and prints the
//! end-to-end metrics; `--trace 1` runs the separate traced replay and
//! prints the per-layer metrics. The last line of standard output is the
//! result object; the line before it carries provenance and diagnostics.
//! Any response that differs from the sequential oracle ends the run
//! with exit code 1 before a result is printed. See `README.md`.

mod e2e;
mod idle;
mod load;
mod oracle;
mod traced;
mod util;
mod workload;

use blog_obs::Json;

use crate::workload::Workload;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <hot_small|churn_large|search_or> --seed <n> \
             --seconds <s> --trace <0|1>  |  perfbench --self-test [--seed <n>]"
        );
        std::process::exit(2);
    });
    if args.self_test {
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        match traced::self_test(&workloads, args.seed) {
            Ok(()) => println!("self-test passed"),
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let w = args.workload.expect("checked in parse_args");
    let _spinners = idle::IdleSpinners::start();
    let run = if args.trace {
        traced::run(w, args.seed, args.seconds)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    let out = run.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", w.name());
        std::process::exit(1);
    });
    println!("{}", out.diagnostics.render());
    let metrics = out
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let m = Json::Obj(vec![
                ("value".into(), Json::Num(*value)),
                ("unit".into(), Json::str(*unit)),
            ]);
            (name.to_string(), m)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), Json::int(out.attempted)),
        ("failed".into(), Json::int(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
