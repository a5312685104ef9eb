//! The repo benchmark: four seeded workloads through the public APIs of
//! `deepmvi`, `mvi-serve` and `mvi-net`, reporting end-to-end metrics
//! (untraced runs) or per-layer metrics (traced runs). See `README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of stdout is the result object; everything before it is a
//! human-readable report.

mod layers;
mod load;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use workloads::Ctx;

/// The workloads the program runs. `BENCHMARK.json` bounds all but
/// `stream_ingest`, whose figures are bimodal from run to run on a 2-vCPU
/// host (see `README.md`).
pub const WORKLOADS: [&str; 4] = ["warm_read", "stream_ingest", "tenant_churn", "offline_impute"];

struct Args {
    workload: String,
    seed: u64,
    secs: f64,
    traced: bool,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut secs, mut traced) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                secs = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 1.0 && *s <= 60.0)
                        .ok_or_else(|| bad("seconds in [1, 60]"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out-dir" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        secs: secs.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out,
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let work = args.out.join(format!("work-{}", std::process::id()));
    let ctx = Ctx { seed: args.seed, secs: args.secs, traced: args.traced, work: work.clone() };
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"mvi_threads\": {}, \"host\": {}}}",
        args.workload,
        args.seed,
        args.secs,
        args.traced as u8,
        mvi_parallel::current_threads(),
        std::env::var("PERFBENCH_HOST").unwrap_or_else(|_| "null".into())
    );
    println!("record {record}");

    let mut r = Report::default();
    let spans = match args.workload.as_str() {
        "warm_read" => workloads::warm_read(&ctx, &mut r),
        "stream_ingest" => workloads::stream_ingest(&ctx, &mut r),
        "tenant_churn" => workloads::tenant_churn(&ctx, &mut r),
        _ => workloads::offline_impute(&ctx, &mut r),
    };
    let _ = std::fs::remove_dir_all(&work);

    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    let human = r.human(defs);
    print!("{human}");
    let line = match r.result_line(defs) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, args.traced as u8);
    let saved = std::fs::create_dir_all(&args.out).and_then(|_| {
        std::fs::write(
            args.out.join(format!("{stem}.json")),
            format!("{{\"record\": {record}, \"result\": {line}}}\n"),
        )?;
        if args.traced {
            std::fs::write(
                args.out.join(format!("{stem}-spans.json")),
                trace::to_json(&trace::merge(spans)),
            )?;
        }
        Ok(())
    });
    if let Err(e) = saved {
        eprintln!("perfbench: cannot save results under {}: {e}", args.out.display());
    }
    println!("{line}");
}
