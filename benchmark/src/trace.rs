//! Spans recorded by the traced run, from the benchmark's own files around
//! the calls into each layer. Spans inside the program are not recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One timed call. Spans of one op share `op`; `parent` names the span
/// that caused this one (empty for the root).
#[derive(Copy, Clone, Debug)]
pub struct Span {
    /// `fio.issue`, `client.update`, `client.fetch` or
    /// `client.execute_pipelined`.
    pub name: &'static str,
    /// Name of the causing span.
    pub parent: &'static str,
    /// Op sequence number.
    pub op: u64,
    /// Whether the op writes.
    pub write: bool,
    /// Virtual start (ns).
    pub sim_start: u64,
    /// Virtual end (ns).
    pub sim_end: u64,
    /// Host start (ns since the run began).
    pub host_start: u64,
    /// Host end (ns since the run began).
    pub host_end: u64,
}

/// Totals of one `(span name, op type)` group.
#[derive(Copy, Clone, Debug, Default)]
pub struct Group {
    /// Spans in the group.
    pub count: u64,
    /// Summed host time (ns).
    pub host_ns: u64,
    /// Summed virtual time (ns).
    pub sim_ns: u64,
}

/// Spans grouped by `(name, write)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<(&'static str, bool), Group> {
    let mut out: BTreeMap<(&'static str, bool), Group> = BTreeMap::new();
    for s in spans {
        let g = out.entry((s.name, s.write)).or_default();
        g.count += 1;
        g.host_ns += s.host_end - s.host_start;
        g.sim_ns += s.sim_end.saturating_sub(s.sim_start);
    }
    out
}

/// Raw spans kept in the dump.
pub const RAW_SPANS: usize = 10_000;

/// Where the span dumps go, relative to the repository root the command is
/// run from (git-ignored).
pub const OUT_DIR: &str = "benchmark/out";

/// Writes the group summaries and the first [`RAW_SPANS`] raw spans of one
/// workload's traced run under [`OUT_DIR`].
pub fn write_out(workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let mut text = String::from("span\top_type\tcount\thost_ns_mean\tsim_ns_mean\n");
    for ((name, write), g) in summarize(spans) {
        let n = g.count.max(1) as f64;
        let _ = writeln!(
            text,
            "{name}\t{}\t{}\t{:.1}\t{:.1}",
            if write { "write" } else { "read" },
            g.count,
            g.host_ns as f64 / n,
            g.sim_ns as f64 / n
        );
    }
    std::fs::write(dir.join(format!("{workload}.span_summary.tsv")), text)?;

    let mut raw = String::from(
        "op\tspan\tparent\top_type\tsim_start_ns\tsim_end_ns\thost_start_ns\thost_end_ns\n",
    );
    for s in spans.iter().take(RAW_SPANS) {
        let _ = writeln!(
            raw,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op,
            s.name,
            if s.parent.is_empty() { "-" } else { s.parent },
            if s.write { "write" } else { "read" },
            s.sim_start,
            s.sim_end,
            s.host_start,
            s.host_end
        );
    }
    std::fs::write(dir.join(format!("{workload}.spans.tsv")), raw)
}
