//! End-to-end benchmark of the SnaPEA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <infer-n1|infer-n8|calibrate> --seed <n> --seconds <s> --trace <0|1> \
//!     [--plant-fault]
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run also writes its per-conv-layer ledger under `.bench_out/`.
//! `--plant-fault` corrupts the output of every fourth operation, the first
//! included, before its check, so the run must report failures. See
//! `bench_e2e/README.md`.

mod fixture;
mod host;
mod modes;
mod report;
mod run;
mod stages;
mod stats;
mod trace;

use report::Metric;
use run::{Config, Recorder, Spec, SPECS};
use snapea_obs::json::Json;
use std::process::ExitCode;

struct Args {
    spec: &'static Spec,
    cfg: Config,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut plant_fault) = (None, None, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--plant-fault" {
            plant_fault = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        spec,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            plant_fault,
        },
    })
}

fn result_line(r: &Recorder, metrics: &[Metric]) -> Json {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Json::obj(vec![
                ("value", Json::from(m.value)),
                ("unit", Json::from(m.unit)),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    Json::obj(vec![
        (
            "correct",
            Json::from(r.failed == 0 && r.broken.is_empty() && finite),
        ),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn write_ledger(spec: &Spec, cfg: &Config, r: &Recorder) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("ledger-{}-seed{}.json", spec.name, cfg.seed));
    std::fs::write(
        &path,
        format!("{}\n", report::ledger(spec.name, cfg.seed, r)),
    )?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { spec, cfg } = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "bench_e2e: workload {} seed {} seconds {} trace {} threads {} (available {})",
        spec.name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        run::THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let rec = match run::run(spec, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    for b in &rec.broken {
        eprintln!("bench_e2e: check failed: {b}");
    }
    let metrics = if cfg.trace {
        match write_ledger(spec, &cfg, &rec) {
            Ok(path) => eprintln!("bench_e2e: ledger written to {path}"),
            Err(e) => {
                eprintln!("bench_e2e: writing the ledger: {e}");
                return ExitCode::FAILURE;
            }
        }
        report::per_layer(&rec)
    } else {
        report::end_to_end(&rec)
    };
    for m in &metrics {
        eprintln!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  attempted {} failed {} (failed_frac {})",
        rec.attempted,
        rec.failed,
        rec.failed as f64 / rec.attempted.max(1) as f64
    );
    println!("{}", result_line(&rec, &metrics));
    ExitCode::SUCCESS
}
