//! Self-tests of the benchmark on `--quick` windows (short, not for
//! reporting): what `BENCHMARK.json` names is what the command emits, the
//! tape is a pure function of the seed, and the tail quantile is chosen by
//! the ten-samples-beyond rule.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use ros2_benchmark::json::{self, Value};
use ros2_benchmark::report::END_TO_END;
use ros2_benchmark::stats::{tail, MIN_BEYOND};
use ros2_benchmark::tape::{Mix, Tape, TapeOp, TapeShape, DECK, THINK_MAX_NS};
use ros2_benchmark::workloads;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{list}` is an array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Runs the benchmark from the repository root, as the driver does.
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ros2_benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// `workload -> metric -> times emitted`, from the `workload metric value
/// unit` lines.
fn emitted(stdout: &str) -> BTreeMap<String, BTreeMap<String, usize>> {
    let mut out: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for line in stdout.lines() {
        if line.starts_with('#') || line.starts_with('{') {
            continue;
        }
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 4, "not `workload metric value unit`: {line}");
        assert!(valid_name(fields[1]), "metric name `{}`", fields[1]);
        fields[2]
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("value in `{line}`: {e}"));
        *out.entry(fields[0].into())
            .or_default()
            .entry(fields[1].into())
            .or_default() += 1;
    }
    out
}

#[test]
fn benchmark_json_agrees_with_the_code() {
    let doc = benchmark_json();
    let shapes = workloads::all(false);
    let listed = doc.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), shapes.len());
    for (w, shape) in listed.iter().zip(&shapes) {
        assert_eq!(w.get("name").unwrap().as_str(), Some(shape.name));
        assert_eq!(w.get("why").unwrap().as_str(), Some(shape.why));
        assert!(valid_name(shape.name));
        assert!(shape.why.len() <= 200 && !shape.why.contains('\n'));
    }
    let listed = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (m, spec) in listed.iter().zip(END_TO_END) {
        assert_eq!(m.get("name").unwrap().as_str(), Some(spec.name));
        assert_eq!(m.get("unit").unwrap().as_str(), Some(spec.unit));
        let better = if spec.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(m.get("better").unwrap().as_str(), Some(better));
        assert_eq!(m.get("bound").unwrap().as_f64(), Some(spec.bound));
        assert!(spec.bound <= 0.25);
    }
    assert!(names(&doc, "end_to_end").contains(&"setup_s".to_string()));
    let all: Vec<String> = [names(&doc, "end_to_end"), names(&doc, "per_layer")].concat();
    assert!(all.iter().all(|n| valid_name(n)));
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a metric name is used once"
    );
}

/// The binary runs are in one test so that they do not time each other or
/// race on the span dumps.
#[test]
fn quick_runs_emit_what_benchmark_json_names() {
    let doc = benchmark_json();
    let workloads = names(&doc, "workloads");
    let end_to_end: BTreeSet<String> = names(&doc, "end_to_end").into_iter().collect();
    let per_layer: BTreeSet<String> = names(&doc, "per_layer").into_iter().collect();

    // Every workload, traced: every metric of both lists once per workload.
    let (ok, stdout) = bench(&["--quick", "--trace", "--seed", "3"]);
    assert!(ok, "quick traced run failed its checks:\n{stdout}");
    let seen = emitted(&stdout);
    assert_eq!(
        seen.keys().cloned().collect::<Vec<_>>().len(),
        workloads.len()
    );
    for w in &workloads {
        let metrics = seen
            .get(w)
            .unwrap_or_else(|| panic!("workload {w} printed nothing"));
        let want: BTreeSet<String> = end_to_end.union(&per_layer).cloned().collect();
        assert_eq!(
            metrics.keys().cloned().collect::<BTreeSet<_>>(),
            want,
            "{w}"
        );
        assert!(
            metrics.values().all(|&n| n == 1),
            "{w}: a metric printed twice"
        );
    }
    let report = json::parse(stdout.lines().last().unwrap()).expect("the report parses");
    for w in &workloads {
        let entry = report
            .get("workloads")
            .unwrap()
            .get(w)
            .expect("workload in report");
        assert_eq!(entry.get("correct"), Some(&Value::Bool(true)), "{w}");
        assert_eq!(entry.get("failed").unwrap().as_f64(), Some(0.0), "{w}");
    }

    // A report compared with itself is `same` on every row.
    // Beside the span dumps the traced run above has just written.
    let file = repo_root().join("benchmark/out/selftest_report.txt");
    std::fs::write(&file, &stdout).unwrap();
    let path = file.to_str().unwrap();
    let (ok, table) = bench(&["--compare", path, path]);
    std::fs::remove_file(&file).unwrap();
    assert!(ok, "{table}");
    assert_eq!(
        table.lines().count(),
        workloads.len() * (end_to_end.len() + 1)
    );
    assert!(table.lines().all(|l| l.ends_with(" same")), "{table}");

    // One workload, as the driver asks: exactly the contract's keys, and
    // the metric list that goes with the trace flag.
    for (flag, want) in [("0", &end_to_end), ("1", &per_layer)] {
        let (ok, stdout) = bench(&[
            "--quick",
            "--workload",
            "small_rand_host_rdma",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            flag,
        ]);
        assert!(ok, "{stdout}");
        let line = json::parse(stdout.lines().last().unwrap()).expect("result line parses");
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(&metrics.keys().cloned().collect::<BTreeSet<_>>(), want);
        for (name, m) in metrics {
            let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["unit", "value"], "{name}");
        }
    }

    // An unknown workload is refused without a result line.
    let (ok, stdout) = bench(&["--workload", "no_such_workload"]);
    assert!(!ok && stdout.is_empty());
}

fn first_ops(seed: u64, shape: TapeShape) -> Vec<TapeOp> {
    let mut tape = Tape::new(seed, 4, shape);
    (0..4000).map(|i| tape.next(i % 4)).collect()
}

#[test]
fn tape_is_a_pure_function_of_the_seed() {
    let mixed = TapeShape {
        bs: 16 << 10,
        region: 2 << 20,
        random: true,
        mix: Mix::ReadPercent(90),
    };
    assert_eq!(first_ops(7, mixed), first_ops(7, mixed));
    assert_ne!(first_ops(7, mixed), first_ops(8, mixed));
    for op in first_ops(7, mixed) {
        assert_eq!(op.offset % mixed.bs, 0);
        assert!(op.offset + mixed.bs <= mixed.region);
        assert!(op.think_ns < THINK_MAX_NS);
    }
    // The mix is exact over every deck of each job.
    let mut tape = Tape::new(9, 1, mixed);
    for _ in 0..50 {
        let writes = (0..DECK).filter(|_| tape.next(0).write).count();
        assert_eq!(writes, DECK / 10);
    }

    // Sequential tapes differ by their seeded start block, then walk on.
    let seq = TapeShape {
        bs: 1 << 20,
        region: 64 << 20,
        random: false,
        mix: Mix::Writes,
    };
    assert_ne!(first_ops(1, seq), first_ops(2, seq));
    let mut tape = Tape::new(1, 1, seq);
    let a = tape.next(0);
    let b = tape.next(0);
    assert!(a.write && b.write);
    assert_eq!(b.offset, (a.offset + seq.bs) % seq.region);
}

#[test]
fn tail_quantile_needs_ten_samples_beyond_it() {
    let sample = |n: u64| (1..=n).collect::<Vec<u64>>();
    // 10 000 samples leave exactly ten beyond p99.9; one fewer leaves nine.
    let t = tail(&sample(10_000));
    assert_eq!((t.quantile, t.beyond, t.value), (0.999, MIN_BEYOND, 9_990));
    let t = tail(&sample(9_999));
    assert_eq!((t.quantile, t.beyond), (0.99, 99));
    assert_eq!(tail(&sample(1_000)).quantile, 0.99);
    assert_eq!(tail(&sample(999)).quantile, 0.9);
    assert_eq!(tail(&sample(100)).quantile, 0.9);
    assert_eq!(tail(&sample(99)).quantile, 0.5);
    assert_eq!(tail(&sample(1)).value, 1);
}
