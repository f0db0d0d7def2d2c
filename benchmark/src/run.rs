//! One workload's repetitions, output checks and metric assembly.

use std::time::{Duration, Instant};

use crate::report::{Metric, Outcome, Reported, END_TO_END, FAILED_OP_SHARE};
use crate::stats::{
    exact_median, gib_per_sec, median, quartile_spread, tail, window, Tail, Window,
};
use crate::sut::{self, counter, Counters, Geometry, Sut};
use crate::tape::{Tape, TapeShape};
use crate::trace::{self, Span};
use crate::workloads::{Shape, SCM_RECORD_CAP};

/// How a workload is run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Tape seed.
    pub seed: u64,
    /// Wall-clock budget of the timed repetitions (s).
    pub seconds: f64,
    /// Also run traced repetitions and the layer probes.
    pub trace: bool,
}

/// Fewest timed repetitions behind a reported host value.
const MIN_REPS: usize = 3;

/// The virtual-time results of one repetition. Two repetitions of the same
/// seed must compare equal.
#[derive(Clone, Debug, PartialEq)]
struct Sim {
    read_gib_s: f64,
    write_gib_s: f64,
    read_p50: u64,
    read_tail: Tail,
    write_p50: u64,
    write_tail: Tail,
}

struct Rep {
    setup_ns: u64,
    loop_ns: u64,
    allocs: u64,
    ops: u64,
    failed: u64,
    sim: Result<Sim, String>,
    /// Counter differences, summed over the phases.
    counters: Counters,
    geometry: Geometry,
    /// Most SCM records one world gained.
    scm_peak: u64,
    user_write_bytes: u64,
    /// Virtual time the phases spanned in total.
    elapsed_ns: u64,
    /// Latest virtual instant of any phase.
    end_ns: u64,
    spans: Vec<Span>,
    suts: Vec<Sut>,
}

impl Rep {
    fn host_ns_per_op(&self) -> f64 {
        self.loop_ns as f64 / self.ops as f64
    }
}

/// `host_ns_per_op` of the fastest of `reps`. A repetition is a fixed
/// sequence of instructions and whatever else runs on the machine can only
/// add to its time, so the fastest one is the best estimate of what the
/// code costs. Over ten processes it spread 2 to 5 % in an hour in which
/// the median of the same repetitions spread 4 to 11 %.
fn fastest(reps: &[Rep]) -> f64 {
    reps.iter()
        .map(Rep::host_ns_per_op)
        .fold(f64::INFINITY, f64::min)
}

/// One repetition: every phase on a world built for it.
fn repetition(shape: &Shape, seed: u64, traced: bool) -> Rep {
    let from = shape.ramp_us * 1000;
    let to = from + shape.window_us * 1000;
    let mut total = Window::default();
    let mut rep = Rep {
        setup_ns: 0,
        loop_ns: 0,
        allocs: 0,
        ops: 0,
        failed: 0,
        sim: Err(String::new()),
        counters: Vec::new(),
        geometry: Geometry::default(),
        scm_peak: 0,
        user_write_bytes: 0,
        elapsed_ns: 0,
        end_ns: 0,
        spans: Vec::new(),
        suts: Vec::new(),
    };
    for (phase, &mix) in shape.phases.iter().enumerate() {
        let t = Instant::now();
        let mut sut = Sut::build(shape);
        let tape = Tape::new(
            seed.wrapping_add(phase as u64),
            shape.total_jobs(),
            TapeShape {
                bs: shape.bs,
                region: shape.region,
                random: shape.random,
                mix,
            },
        );
        rep.setup_ns += t.elapsed().as_nanos() as u64;

        let before = sut.counters();
        let run = sut.run(shape, tape, traced);
        let d = sut::delta(&before, &sut.counters());
        rep.geometry = sut.geometry();

        let w = window(&run.log, shape.bs, from, to);
        rep.loop_ns += run.loop_ns;
        rep.allocs += run.allocs;
        rep.ops += w.attempted;
        rep.failed += w.failed;
        rep.user_write_bytes += w.writes_issued * shape.bs;
        rep.elapsed_ns += w.end;
        rep.end_ns = rep.end_ns.max(w.end);
        rep.scm_peak = rep.scm_peak.max(counter(&d, "daos.vos.scm_records"));
        rep.counters = if rep.counters.is_empty() {
            d
        } else {
            sut::sum(std::mem::take(&mut rep.counters), &d)
        };
        // Op numbers restart per phase; keep them distinct in the dump.
        let base = rep.spans.len() as u64;
        rep.spans.extend(run.spans.into_iter().map(|mut s| {
            s.op += base;
            s
        }));
        total.read_bytes += w.read_bytes;
        total.write_bytes += w.write_bytes;
        total.read_lat.extend(w.read_lat);
        total.write_lat.extend(w.write_lat);
        rep.suts.push(sut);
    }
    total.read_lat.sort_unstable();
    total.write_lat.sort_unstable();
    rep.sim = if total.read_lat.is_empty() || total.write_lat.is_empty() {
        Err(format!(
            "{} reads and {} writes completed inside the measured window",
            total.read_lat.len(),
            total.write_lat.len()
        ))
    } else {
        let window_ns = shape.window_us * 1000;
        Ok(Sim {
            read_gib_s: gib_per_sec(total.read_bytes, window_ns),
            write_gib_s: gib_per_sec(total.write_bytes, window_ns),
            read_p50: exact_median(&total.read_lat),
            read_tail: tail(&total.read_lat),
            write_p50: exact_median(&total.write_lat),
            write_tail: tail(&total.write_lat),
        })
    };
    rep
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn tail_note(kind: &str, t: &Tail) -> String {
    format!(
        "sim_{kind}_lat_tail_us is p{} of {} samples ({} beyond it)",
        t.quantile * 100.0,
        t.samples,
        t.beyond
    )
}

/// Output checks over the untraced repetitions; failures go to
/// `violations`, informational lines to `notes`.
fn check_outputs(
    shape: &Shape,
    reps: &mut [Rep],
    reference: &Result<Sim, String>,
    violations: &mut Vec<String>,
    notes: &mut Vec<String>,
) {
    // Virtual time and counts repeat exactly, or something is not a pure
    // function of the seed.
    for (i, rep) in reps.iter().enumerate() {
        if rep.sim != *reference {
            violations.push(format!(
                "repetition {i}: sim metrics differ from the warm-up's: {:?} vs {:?}",
                rep.sim, reference
            ));
        }
        if rep.counters != reps[0].counters {
            violations.push(format!(
                "repetition {i}: layer counters differ from repetition 0's"
            ));
        }
        if rep.allocs != reps[0].allocs || rep.ops != reps[0].ops {
            violations.push(format!(
                "repetition {i}: {} allocations over {} ops, repetition 0 had {} over {}",
                rep.allocs, rep.ops, reps[0].allocs, reps[0].ops
            ));
        }
    }

    let last = reps.last_mut().expect("at least one repetition");

    // The SCM pool takes 524 288 4 KiB records and nothing reclaims it.
    notes.push(format!(
        "daos.vos.scm_records {} in the fullest world, cap {}",
        last.scm_peak, SCM_RECORD_CAP
    ));
    if last.scm_peak > SCM_RECORD_CAP {
        violations.push(format!(
            "{} SCM records in one world exceed the cap of {}: shorten the window",
            last.scm_peak, SCM_RECORD_CAP
        ));
    }

    let retry_total: u64 = last
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("daos.retry."))
        .map(|(_, v)| *v)
        .sum();
    if shape.kill.is_some() {
        if counter(&last.counters, "daos.engine.fences") == 0
            || counter(&last.counters, "daos.retry.retries") == 0
        {
            violations.push("the scheduled engine kill did not fire (no fence or no retry)".into());
        }
    } else if retry_total != 0 {
        violations.push(format!("{retry_total} retry-ladder events without a fault"));
    }

    // Read every job file back, then look at the checksum counter again.
    for sut in &mut last.suts {
        if let Err(e) = sut.read_back(shape, last.end_ns + 1_000_000_000) {
            violations.push(e);
        }
        let bad = counter(&sut.counters(), "daos.vos.checksum_failures");
        if bad != 0 {
            violations.push(format!("{bad} checksum failures"));
        }
    }
    last.suts.clear();
}

/// The end-to-end metrics, in [`END_TO_END`] order: sim values as they
/// repeat, host values over `reps` with the spread between them.
fn end_to_end_metrics(reps: &[Rep], sim: &Sim) -> Vec<Reported> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setup = per_rep(&|r| r.setup_ns as f64 / 1e9);
    let host_ns = per_rep(&|r| r.host_ns_per_op());
    let allocs = per_rep(&|r| r.allocs as f64 / r.ops as f64);
    END_TO_END
        .iter()
        .map(|spec| {
            let (value, spread) = match spec.name {
                "setup_s" => (median(&setup), quartile_spread(&setup)),
                "sim_read_gib_s" => (sim.read_gib_s, 0.0),
                "sim_write_gib_s" => (sim.write_gib_s, 0.0),
                "sim_read_lat_p50_us" => (us(sim.read_p50), 0.0),
                "sim_read_lat_tail_us" => (us(sim.read_tail.value), 0.0),
                "sim_write_lat_p50_us" => (us(sim.write_p50), 0.0),
                "sim_write_lat_tail_us" => (us(sim.write_tail.value), 0.0),
                "host_ns_per_op" => (fastest(reps), quartile_spread(&host_ns)),
                "host_allocs_per_op" => (median(&allocs), quartile_spread(&allocs)),
                other => unreachable!("no source for end-to-end metric {other}"),
            };
            Reported {
                metric: Metric {
                    name: spec.name,
                    unit: spec.unit,
                    value,
                },
                spread,
            }
        })
        .collect()
}

/// The `*.host_ns` rows a traced repetition gives: per-op means of the
/// `fio.issue` spans, what the driver loop costs outside them, and what DFS
/// costs outside the client spans.
fn span_metrics(t: &Rep, notes: &mut Vec<String>) -> Vec<Metric> {
    let groups = trace::summarize(&t.spans);
    let group =
        |name: &'static str, write: bool| groups.get(&(name, write)).copied().unwrap_or_default();
    let mean = |g: trace::Group| g.host_ns as f64 / g.count.max(1) as f64;
    let issue_ns = group("fio.issue", false).host_ns + group("fio.issue", true).host_ns;
    let child_ns: u64 = groups
        .iter()
        .filter(|((name, _), _)| name.starts_with("client."))
        .map(|(_, g)| g.host_ns)
        .sum();
    let ops = t.ops as f64;
    // Without child spans (the incast world) DFS and the client stack
    // cannot be told apart; report nothing rather than their sum.
    let dfs_self = if child_ns == 0 {
        notes.push("dfs.self.host_ns is 0: this world records no client spans".into());
        0.0
    } else {
        issue_ns.saturating_sub(child_ns) as f64 / ops
    };
    [
        ("fio.issue.read.host_ns", mean(group("fio.issue", false))),
        ("fio.issue.write.host_ns", mean(group("fio.issue", true))),
        (
            "fio.driver.host_ns_per_op",
            t.loop_ns.saturating_sub(issue_ns) as f64 / ops,
        ),
        ("dfs.self.host_ns", dfs_self),
    ]
    .into_iter()
    .map(|(name, value)| Metric {
        name,
        unit: "ns",
        value,
    })
    .collect()
}

/// Runs `shape`: one untimed warm-up repetition, timed untraced
/// repetitions for the budget, then (traced) timed traced repetitions and
/// the layer probes; checks the outputs; assembles the metrics.
pub fn run_workload(shape: &Shape, opts: &Options) -> Outcome {
    let mut violations = Vec::new();
    let mut notes = Vec::new();
    // Traced runs split the budget three ways: untraced repetitions (the
    // reference for the overhead), traced repetitions, probes.
    let share = if opts.trace { 3.0 } else { 1.0 };
    let budget = Duration::from_secs_f64(opts.seconds / share);

    let warm = repetition(shape, opts.seed, false);
    let (mut attempted, mut failed) = (warm.ops, warm.failed);
    let reference = warm.sim.clone();
    drop(warm);

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        // Only the newest repetition keeps its worlds (for the read-back).
        if let Some(prev) = reps.last_mut() {
            prev.suts.clear();
        }
        let rep = repetition(shape, opts.seed, false);
        attempted += rep.ops;
        failed += rep.failed;
        reps.push(rep);
    }
    check_outputs(shape, &mut reps, &reference, &mut violations, &mut notes);

    let end_to_end = match &reference {
        Err(e) => {
            violations.push(e.clone());
            Vec::new()
        }
        Ok(sim) => {
            notes.push(tail_note("read", &sim.read_tail));
            notes.push(tail_note("write", &sim.write_tail));
            end_to_end_metrics(&reps, sim)
        }
    };

    let mut per_layer = Vec::new();
    if opts.trace {
        let start = Instant::now();
        let mut traced: Vec<Rep> = Vec::new();
        while traced.len() < 2 || start.elapsed() < budget {
            // Only the newest traced repetition keeps its spans.
            if let Some(prev) = traced.last_mut() {
                prev.spans = Vec::new();
            }
            let mut rep = repetition(shape, opts.seed, true);
            rep.suts.clear();
            attempted += rep.ops;
            failed += rep.failed;
            // The proof that the interposed path is the shipped path.
            if rep.sim != reference {
                violations.push(format!(
                    "traced sim metrics differ from untraced: {:?} vs {:?}",
                    rep.sim, reference
                ));
            }
            traced.push(rep);
        }
        let t = traced.last().expect("at least two traced repetitions");
        if let Err(e) = trace::write_out(shape.name, &t.spans) {
            notes.push(format!("span dump not written: {e}"));
        }

        per_layer.push(Metric {
            name: FAILED_OP_SHARE,
            unit: "ratio",
            value: failed as f64 / attempted as f64,
        });
        per_layer.extend(span_metrics(t, &mut notes));
        let rep = reps.last().expect("at least three repetitions");
        per_layer.extend(sut::layer_metrics(
            &rep.counters,
            &rep.geometry,
            rep.ops,
            rep.user_write_bytes,
            rep.elapsed_ns,
        ));
        per_layer.extend(sut::probes(budget));
        let untraced_ns = fastest(&reps);
        per_layer.push(Metric {
            name: "trace.overhead_share",
            unit: "ratio",
            value: (fastest(&traced) - untraced_ns) / untraced_ns,
        });
    }

    Outcome {
        workload: shape.name,
        violations,
        attempted,
        failed,
        repetitions: reps.len(),
        end_to_end,
        per_layer,
        notes,
    }
}
