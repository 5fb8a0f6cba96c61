//! The placeless benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <population|churn|writeback|contended> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up five times (reporting the median
//! set-up time), drives it once untraced and prints the end-to-end
//! metrics, then the drive's wall-clock rate and latencies, which the
//! result line leaves out. `--trace 1` drives it once untraced and once
//! with the timing decorators installed and prints the per-layer metrics,
//! the wall-clock ones among them. Both run every
//! correctness check; a failed check prints `"correct": false` and exits
//! with status 1. The last line of standard output is the result as one
//! JSON object; a fuller record goes to `perfbench/results/`.

mod report;
mod trace;
mod workload;

use report::{json_num, json_str, metrics_json, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Drive, Spec, Workload, World};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or(format!("--seconds takes 1 to 60, not {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Everything one invocation measured.
struct Outcome {
    metrics: Vec<Metric>,
    /// Printed and recorded, but not part of the result line.
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    drives: Vec<Drive>,
}

fn attempted(drive: &Drive) -> (u64, u64) {
    drive
        .clients
        .iter()
        .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
}

fn run_untraced(spec: Spec) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let start = Instant::now();
        world = Some(World::build(spec, false));
        setups.push(start.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up");
    let drive = world.drive(false);
    let metrics = report::end_to_end(report::median(&setups), &drive);
    let extra = report::wall(&drive);
    let failures = world.check(&drive);
    let (attempted, failed) = attempted(&drive);
    Outcome {
        metrics,
        extra,
        attempted,
        failed,
        failures,
        drives: vec![drive],
    }
}

fn run_traced(spec: Spec) -> Outcome {
    let mut failures = Vec::new();
    let plain = {
        let world = World::build(spec, false);
        let drive = world.drive(false);
        failures.extend(
            world
                .check(&drive)
                .into_iter()
                .map(|f| format!("untraced: {f}")),
        );
        drive
    };
    let traced = {
        let world = World::build(spec, true);
        let drive = world.drive(true);
        failures.extend(
            world
                .check(&drive)
                .into_iter()
                .map(|f| format!("traced: {f}")),
        );
        drive
    };
    if spec.workload.clients() == 1 && plain.counts() != traced.counts() {
        failures.push(format!(
            "traced counts differ from untraced: {:?} vs {:?}",
            traced.counts(),
            plain.counts()
        ));
    }
    let metrics = report::per_layer(&plain, &traced);
    let (a1, f1) = attempted(&plain);
    let (a2, f2) = attempted(&traced);
    Outcome {
        metrics,
        extra: Vec::new(),
        attempted: a1 + a2,
        failed: f1 + f2,
        failures,
        drives: vec![plain, traced],
    }
}

/// Writes the full record of the run, and the kept spans of a traced run.
fn write_results(args: &Args, spec: &Spec, outcome: &Outcome) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .chain(&outcome.extra)
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples.map_or("null".to_owned(), |n| n.to_string())
            )
        })
        .collect();
    let counts: Vec<String> = outcome
        .drives
        .iter()
        .map(|d| json_str(&format!("{:?}", d.counts())))
        .collect();
    let program: Vec<String> = outcome
        .drives
        .iter()
        .map(Drive::program_counts_json)
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    let record = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"clients\": {},\n  \"warm_ops\": {},\n  \"drive_ops_per_client\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"correct\": {},\n  \"failures\": [{}],\n  \
         \"counts\": [{}],\n  \"program_counts\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.workload.clients(),
        spec.warm_ops,
        spec.drive_ops,
        outcome.attempted,
        outcome.failed,
        outcome.failures.is_empty(),
        failures.join(", "),
        counts.join(", "),
        program.join(", "),
        metrics.join(",\n"),
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, record)?;
    if let Some(ledger) = outcome
        .drives
        .get(1)
        .and_then(|d| d.clients.first())
        .and_then(|c| c.ledger.as_ref())
    {
        let mut csv =
            String::from("op,span,layer,parent,start_ns,end_ns,vstart_us,vend_us,bytes\n");
        let mut index = 0;
        let mut current = u64::MAX;
        for span in &ledger.kept {
            if span.op != current {
                current = span.op;
                index = 0;
            }
            let parent = if span.parent == trace::NO_PARENT {
                String::new()
            } else {
                span.parent.to_string()
            };
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                span.op,
                index,
                span.layer.label(),
                parent,
                span.start_ns,
                span.end_ns,
                span.vstart,
                span.vend,
                span.bytes
            ));
            index += 1;
        }
        std::fs::write(dir.join(format!("{stem}-spans.csv")), csv)?;
    }
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <population|churn|writeback|contended> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed, args.seconds);
    let outcome = if args.trace {
        run_traced(spec)
    } else {
        run_untraced(spec)
    };
    println!(
        "# workload={} seed={} trace={} clients={} warm_ops={} drive_ops_per_client={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        spec.workload.clients(),
        spec.warm_ops,
        spec.drive_ops
    );
    let print = |m: &Metric| match m.samples {
        Some(n) => println!("{:<40} {:>16.4} {:<8} (n={n})", m.name, m.value, m.unit),
        None => println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit),
    };
    outcome.metrics.iter().for_each(print);
    if !outcome.extra.is_empty() {
        println!("# wall clock of the drive (per-layer metrics, not in the result line)");
        outcome.extra.iter().for_each(print);
    }
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    match write_results(&args, &spec, &outcome) {
        Ok(path) => println!("# record: {}", path.display()),
        Err(e) => eprintln!("warning: could not write the result record: {e}"),
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunken spec: same shapes, small enough for a unit test.
    fn small(workload: Workload, seed: u64) -> Spec {
        let (documents, users) = match workload {
            Workload::Population => (96, 2_000),
            Workload::Churn => (128, 60),
            Workload::Writeback => (24, 200),
            Workload::Contended => (16, 8),
        };
        Spec {
            workload,
            seed,
            warm_ops: 400,
            drive_ops: 3_000,
            documents,
            users,
        }
    }

    const SINGLE_CLIENT: [Workload; 3] =
        [Workload::Population, Workload::Churn, Workload::Writeback];

    fn checked_drive(spec: Spec, traced: bool) -> Drive {
        let world = World::build(spec, traced);
        let drive = world.drive(traced);
        let failures = world.check(&drive);
        assert!(failures.is_empty(), "{:?}: {failures:?}", spec.workload);
        drive
    }

    #[test]
    fn same_seed_gives_identical_counts() {
        for workload in SINGLE_CLIENT {
            let a = checked_drive(small(workload, 11), false).counts();
            let b = checked_drive(small(workload, 11), false).counts();
            assert_eq!(a, b, "{workload:?}");
        }
    }

    #[test]
    fn traced_run_counts_match_untraced() {
        for workload in SINGLE_CLIENT {
            let plain = checked_drive(small(workload, 12), false);
            let traced = checked_drive(small(workload, 12), true);
            assert_eq!(plain.counts(), traced.counts(), "{workload:?}");
            let ledger = traced.clients[0].ledger.as_ref().expect("traced ledger");
            assert!(ledger.spans > 0, "{workload:?}: no spans recorded");
        }
    }

    #[test]
    fn different_seed_gives_different_trace() {
        for workload in Workload::ALL {
            let a = World::build(small(workload, 1), false);
            let b = World::build(small(workload, 2), false);
            assert_ne!(a.ops(), b.ops(), "{workload:?}");
        }
    }

    #[test]
    fn contended_run_passes_its_checks() {
        let drive = checked_drive(small(Workload::Contended, 13), true);
        assert_eq!(drive.clients.len(), 2);
        let metrics = report::per_layer(&drive, &drive);
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn every_end_to_end_and_wall_metric_is_positive() {
        for workload in Workload::ALL {
            let drive = checked_drive(small(workload, 14), false);
            for m in report::end_to_end(1.0, &drive)
                .into_iter()
                .chain(report::wall(&drive))
            {
                assert!(m.value > 0.0, "{workload:?}: {} is {}", m.name, m.value);
            }
        }
    }
}
