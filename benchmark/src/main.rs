//! Command line of the benchmark. See `README.md`.

use std::process::ExitCode;

use ros2_benchmark::compare::compare;
use ros2_benchmark::report::{full_report, print_lines, result_line, Outcome};
use ros2_benchmark::run::{run_workload, Options};
use ros2_benchmark::workloads;

const USAGE: &str = "usage: ros2_benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] | --compare A.json B.json

Without --workload every workload runs and the last line is the full report
(the input of --compare). With --workload the last line is that workload's
result: its end-to-end metrics, or with --trace 1 its per-layer metrics.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--compare" => {
                args.compare = Some((value("--compare")?, value("--compare")?));
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The small-I/O offload gap as an informational line: the share of the
/// host client's throughput that the offloaded client delivers on the same
/// tape.
fn print_offload_ratio(outcomes: &[Outcome]) {
    let value = |workload: &str, metric: &str| {
        let o = outcomes.iter().find(|o| o.workload == workload)?;
        let r = o.end_to_end.iter().find(|r| r.metric.name == metric)?;
        Some(r.metric.value)
    };
    let ratio = |metric: &str| {
        Some(value("small_rand_dpu_rdma", metric)? / value("small_rand_host_rdma", metric)?)
    };
    if let (Some(read), Some(write)) = (ratio("sim_read_gib_s"), ratio("sim_write_gib_s")) {
        println!(
            "# offload ratio (small_rand_dpu_rdma / small_rand_host_rdma): {read:.3} read, {write:.3} write"
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if let Some((a, b)) = &args.compare {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a).and_then(|ta| read(b).and_then(|tb| compare(&ta, &tb))) {
            Ok((table, regressed)) => {
                print!("{table}");
                if regressed {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }

    let mut shapes = workloads::all(args.quick);
    if let Some(name) = &args.workload {
        shapes.retain(|s| s.name == name);
        if shapes.is_empty() {
            eprintln!("no workload named `{name}`");
            return ExitCode::from(2);
        }
    }
    let opts = Options {
        seed: args.seed,
        seconds: if args.quick {
            args.seconds.min(0.5)
        } else {
            args.seconds
        },
        trace: args.trace,
    };

    let mut outcomes = Vec::new();
    for shape in &shapes {
        let o = run_workload(shape, &opts);
        // By hand both metric sets are worth seeing; the driver asks for one.
        let single = args.workload.is_some();
        print_lines(&o, !(single && args.trace), args.trace);
        outcomes.push(o);
    }
    let correct = outcomes.iter().all(|o| o.correct());
    if args.workload.is_some() {
        println!("{}", result_line(&outcomes[0], args.trace));
    } else {
        print_offload_ratio(&outcomes);
        println!(
            "{}",
            full_report(args.seed, opts.seconds, args.quick, &outcomes)
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
