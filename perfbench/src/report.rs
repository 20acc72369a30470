//! The metric catalogue, the run report, and the one-line JSON result.
//!
//! The catalogue is the single list of metrics: `BENCHMARK.json` is
//! generated from it (`--benchmark-json`) and a test keeps the two equal.

use std::fmt::Write as _;

/// Which output a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end, gated with a bound; JSON of the untraced run.
    Gated,
    /// Per-layer (or ungated end-to-end reference); JSON of the traced run.
    Layer,
    /// Printed in the report only: may be infinite, or measured only on
    /// the ungated elastic-step workload.
    Info,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Output it belongs to.
    pub kind: Kind,
    /// Regression bound for gated metrics (share of the parent's median).
    pub bound: f64,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Gated,
        bound,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Layer,
        bound: 0.0,
        moves,
    }
}

const fn info(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Info,
        bound: 0.0,
        moves,
    }
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// Every metric the benchmark reports.
pub const CATALOGUE: &[Def] = &[
    // End-to-end, gated.
    gated("setup_s", "s", "lower", 0.25, "bind, instantiate, connect, pre-populate; median of several set-ups"),
    gated("cpu_us_per_op", "us", "lower", 0.25, "process CPU per ok invocation over the same phase"),
    gated("goodput_ops_per_s", "ops/s", "higher", 0.05, "ok invocations per second of that phase; falls with every failure"),
    // End-to-end, reported but ungated.
    layer("e2e.lat_p50_us", "us", "lower", "median latency from due time, fixed-rate phase (elastic-step: whole schedule)"),
    info("lat_p99_us", "us", "lower", "p99 from due time, failures infinite"),
    layer("e2e.lat_p99_ok_us", "us", "lower", "p99 over ok invocations of the gated phase"),
    layer("e2e.fail_frac", "ratio", "lower", "(failed + shed + lost) / attempted over the gated phase"),
    layer("e2e.knee_ops_per_s", "ops/s", "higher", "highest ladder rate meeting the p99 limit without backlog (echo-tcp, dcs-keyed)"),
    layer("e2e.sat_ops_per_s", "ops/s", "higher", "ok/s with the 64-deep window kept full (echo-tcp, dcs-keyed)"),
    layer("e2e.sat_cpu_us_per_op", "us", "lower", "process CPU per ok invocation in saturation; steadier than the fixed phase (echo-tcp, dcs-keyed)"),
    info("e2e.scale_up_s", "s", "lower", "load step until pool.size() reaches the size the step needs (elastic-step)"),
    info("e2e.slice_s_per_kop", "s/kop", "lower", "reserved slice-seconds per 1000 ok invocations (elastic-step)"),
    // stub
    layer("stub.begin_ns", "ns", "lower", "cpu_us_per_op, sat_ops_per_s on echo-tcp"),
    layer("stub.drain_ns_per_op", "ns", "lower", "cpu_us_per_op, sat_ops_per_s on echo-tcp"),
    layer("stub.retries_per_kop", "1/kop", "lower", "fail_frac, lat_p99_us on elastic-step"),
    layer("stub.redirects_per_kop", "1/kop", "lower", "fail_frac, lat_p99_us on elastic-step"),
    layer("stub.overloaded_per_kop", "1/kop", "lower", "fail_frac, lat_p99_us on elastic-step"),
    layer("stub.wrong_shard_per_kop", "1/kop", "lower", "fail_frac, lat_p99_us on elastic-step and dcs-keyed"),
    layer("stub.refreshes", "count", "higher", "fail_frac on elastic-step (stale membership)"),
    layer("stub.members_known_end", "count", "higher", "fail_frac, lat_p99_us on elastic-step, against pool.size_peak"),
    // message
    layer("message.request_bytes", "B", "lower", "cpu_us_per_op on echo-tcp and dcs-keyed"),
    layer("message.response_bytes", "B", "lower", "cpu_us_per_op on echo-tcp and dcs-keyed"),
    layer("message.encode_ns", "ns", "lower", "cpu_us_per_op on echo-tcp (small) and dcs-keyed (1 KiB writes)"),
    layer("message.decode_ns", "ns", "lower", "cpu_us_per_op on echo-tcp (small) and dcs-keyed (1 KiB writes)"),
    layer("message.encode_allocs", "count", "lower", "cpu_us_per_op on echo-tcp and dcs-keyed"),
    layer("message.decode_allocs", "count", "lower", "cpu_us_per_op on echo-tcp and dcs-keyed"),
    // transport
    layer("transport.frames_per_op", "count", "lower", "sat_ops_per_s on echo-tcp"),
    layer("transport.frames_per_batch", "count", "higher", "sat_ops_per_s on echo-tcp"),
    layer("transport.partial_writes", "count", "lower", "lat_p99_us, fail_frac in the saturation phase"),
    layer("transport.wouldblock_retries", "count", "lower", "lat_p99_us, fail_frac in the saturation phase"),
    layer("transport.backpressure_events", "count", "lower", "lat_p99_us, fail_frac in the saturation phase"),
    layer("transport.frames_dropped", "count", "lower", "lat_p99_us, fail_frac in the saturation phase"),
    layer("transport.oneway_p50_us", "us", "lower", "lat_p50_us on echo-tcp"),
    layer("transport.oneway_p99_us", "us", "lower", "lat_p50_us on echo-tcp"),
    // skeleton
    layer("skeleton.ingest_ns", "ns", "lower", "cpu_us_per_op on echo-tcp"),
    layer("skeleton.step_ns", "ns", "lower", "cpu_us_per_op on echo-tcp"),
    layer("skeleton.queue_delay_p50_us", "us", "lower", "lat_p99_us, fail_frac on elastic-step and dcs-keyed"),
    layer("skeleton.queue_delay_p99_us", "us", "lower", "lat_p99_us, fail_frac on elastic-step and dcs-keyed"),
    layer("skeleton.service_p50_us", "us", "lower", "lat_p99_us, fail_frac on elastic-step and dcs-keyed"),
    layer("skeleton.rejected_per_kop", "1/kop", "lower", "lat_p99_us, fail_frac on elastic-step and dcs-keyed"),
    // semantics
    layer("semantics.begin_complete_ns", "ns", "lower", "cpu_us_per_op on dcs-keyed writes"),
    layer("semantics.dedup_hits", "count", "lower", "fail_frac on dcs-keyed writes"),
    layer("semantics.replayed", "count", "lower", "fail_frac on dcs-keyed writes"),
    layer("semantics.cache_entries_end", "count", "lower", "cpu_us_per_op on dcs-keyed writes"),
    // shard
    layer("shard.key_ns", "ns", "lower", "cpu_us_per_op, knee_ops_per_s on dcs-keyed"),
    layer("shard.owner_ns", "ns", "lower", "cpu_us_per_op, knee_ops_per_s on dcs-keyed"),
    layer("shard.misrouted", "count", "lower", "must be 0; knee_ops_per_s on dcs-keyed"),
    layer("shard.hot_member_share", "ratio", "lower", "knee_ops_per_s on dcs-keyed"),
    // kvstore
    layer("kvstore.lock_wait_p50_us", "us", "lower", "lat_p99_us, knee_ops_per_s on dcs-keyed"),
    layer("kvstore.lock_wait_p99_us", "us", "lower", "lat_p99_us, knee_ops_per_s on dcs-keyed"),
    layer("kvstore.lock_hold_p50_us", "us", "lower", "lat_p99_us, knee_ops_per_s on dcs-keyed"),
    layer("kvstore.lock_attempts_per_kop", "1/kop", "lower", "lat_p99_us, knee_ops_per_s on dcs-keyed"),
    layer("kvstore.lock_failures", "count", "lower", "lat_p99_us, knee_ops_per_s on dcs-keyed"),
    // pool
    layer("pool.instantiate_s", "s", "lower", "setup_s on every workload"),
    layer("pool.size_mean", "count", "lower", "scale_up_s, slice_s_per_kop on elastic-step"),
    layer("pool.size_peak", "count", "lower", "scale_up_s, slice_s_per_kop on elastic-step"),
    layer("pool.grown", "count", "lower", "scale_up_s, slice_s_per_kop on elastic-step"),
    layer("pool.shrunk", "count", "lower", "scale_up_s, slice_s_per_kop on elastic-step"),
    // cluster
    layer("cluster.provision_p50_ms", "ms", "lower", "scale_up_s on elastic-step"),
    layer("cluster.reserved_slice_s", "s", "lower", "slice_s_per_kop on elastic-step"),
    // proc
    layer("proc.cpu_util", "ratio", "lower", "shows whether a capacity number was CPU-bound"),
    layer("proc.sys_frac", "ratio", "lower", "lat_p50_us, cpu_us_per_op on echo-tcp"),
    layer("proc.ctx_switches_per_op", "count", "lower", "lat_p50_us, cpu_us_per_op on echo-tcp"),
    layer("proc.allocs_per_op", "count", "lower", "cpu_us_per_op on every workload"),
    layer("proc.alloc_bytes_per_op", "B", "lower", "cpu_us_per_op on every workload"),
    layer("proc.rss_peak_mb", "MiB", "lower", "memory; no end-to-end metric"),
    // gen
    layer("gen.late_p50_us", "us", "lower", "validity check of the generator, not a system cost"),
    layer("gen.late_p99_us", "us", "lower", "validity check of the generator, not a system cost"),
    // host calibration
    layer("host.raw_echo_ops_per_s", "ops/s", "higher", "reference: raw-socket pipelined echo in the same process"),
    layer("host.echo_vs_raw", "ratio", "higher", "echo-tcp sat_ops_per_s / raw echo (echo-tcp only)"),
    // tracing cost
    layer("trace.overhead_cpu_frac", "ratio", "lower", "traced vs untraced cpu_us_per_op, same process"),
    layer("trace.overhead_p50_frac", "ratio", "lower", "traced vs untraced lat_p50_us, same process"),
    // ledger coverage
    layer("ledger.isolated_ns_per_op", "ns", "lower", "sum of isolated per-layer CPU costs of one invocation"),
    layer("ledger.coverage", "ratio", "higher", "ledger.isolated_ns_per_op / cpu_us_per_op"),
];

/// The catalogue entry named `name`.
pub fn def(name: &str) -> Option<&'static Def> {
    CATALOGUE.iter().find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Catalogue entry.
    pub def: &'static Def,
    /// Value (may be infinite for `Info` metrics).
    pub value: f64,
    /// Samples behind the value, when it is a statistic.
    pub samples: Option<u64>,
    /// Why the value is what it is (`n/a`, phase, ...).
    pub note: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<Entry>,
    /// Correctness violations; any voids the run.
    pub violations: Vec<String>,
    /// Invocations attempted over all measured phases.
    pub attempted: u64,
    /// Of those, how many did not return a correct result.
    pub failed: u64,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `name` (replacing an earlier value).
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<u64>, note: &str) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.entries.retain(|e| e.def.name != name);
        self.entries.push(Entry {
            def,
            value,
            samples,
            note: note.to_string(),
        });
    }

    /// Records a metric that does not apply to this workload as 0.
    pub fn na(&mut self, name: &str) {
        self.set(name, 0.0, None, "n/a for this workload");
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.def.name == name)
            .map(|e| e.value)
    }

    /// Human-readable lines: every recorded metric with unit and samples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for d in CATALOGUE {
            let Some(e) = self.entries.iter().find(|e| e.def.name == d.name) else {
                continue;
            };
            let samples = e.samples.map_or(String::new(), |n| format!(" (n={n})"));
            let note = if e.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", e.note)
            };
            let _ = writeln!(
                out,
                "{:<30} {:>16} {:<6}{samples}{note}",
                d.name,
                fmt_value(e.value),
                d.unit
            );
        }
        for v in &self.violations {
            let _ = writeln!(out, "VIOLATION: {v}");
        }
        out
    }

    /// The result line: every metric of `kind`, all finite. Errors name
    /// the metrics that are missing or not finite.
    pub fn json(&self, kind: Kind) -> Result<String, String> {
        let mut metrics = Vec::new();
        let mut bad = Vec::new();
        for d in CATALOGUE.iter().filter(|d| d.kind == kind) {
            match self.get(d.name) {
                Some(v) if v.is_finite() => {
                    metrics.push(format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name,
                        json_number(v),
                        d.unit
                    ));
                }
                Some(v) => bad.push(format!("{} = {v}", d.name)),
                None => bad.push(format!("{} missing", d.name)),
            }
        }
        if self.attempted == 0 {
            bad.push("no invocation attempted".to_string());
        }
        if !bad.is_empty() {
            return Err(bad.join(", "));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest form that reads back to the same f64.
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Workloads in `BENCHMARK.json`, with the one-line reason each exists.
///
/// `elastic-step` runs from the same command but is not listed: its
/// stale-membership refusals are the baseline it exists to record, and
/// how many there are follows host CPU contention, so its failure count
/// cannot repeat from run to run.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "echo-tcp",
        "zero-work echo on a pinned 2-member pool: the fixed per-call cost of stub, message, transport and skeleton dominates",
    ),
    (
        "dcs-keyed",
        "DCS on a pinned sharded 4-member pool, Zipf keys, 10% 1 KiB at-most-once writes: shard routing, reply cache, class locks",
    ),
];

/// The catalogue as a table: what each metric is and what it should move.
pub fn catalogue_table() -> String {
    let mut out = String::new();
    for d in CATALOGUE {
        let kind = match d.kind {
            Kind::Gated => format!("gated {:.2}", d.bound),
            Kind::Layer => "per-layer".to_string(),
            Kind::Info => "report".to_string(),
        };
        let _ = writeln!(out, "{:<30} {:<6} {:<10} {}", d.name, d.unit, kind, d.moves);
    }
    out
}

/// `BENCHMARK.json` as generated from the catalogue.
pub fn benchmark_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let w: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&w.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e: Vec<String> = CATALOGUE
        .iter()
        .filter(|d| d.kind == Kind::Gated)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            )
        })
        .collect();
    out.push_str(&e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let l: Vec<String> = CATALOGUE
        .iter()
        .filter(|d| d.kind == Kind::Layer)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    out.push_str(&l.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark's specification names.
    const REQUIRED: &[&str] = &[
        "setup_s",
        "e2e.lat_p50_us",
        "lat_p99_us",
        "goodput_ops_per_s",
        "cpu_us_per_op",
        "e2e.knee_ops_per_s",
        "e2e.sat_ops_per_s",
        "e2e.sat_cpu_us_per_op",
        "e2e.fail_frac",
        "e2e.scale_up_s",
        "e2e.slice_s_per_kop",
        "stub.begin_ns",
        "stub.drain_ns_per_op",
        "stub.retries_per_kop",
        "stub.redirects_per_kop",
        "stub.overloaded_per_kop",
        "stub.wrong_shard_per_kop",
        "stub.refreshes",
        "stub.members_known_end",
        "message.request_bytes",
        "message.response_bytes",
        "message.encode_ns",
        "message.decode_ns",
        "message.encode_allocs",
        "message.decode_allocs",
        "transport.frames_per_op",
        "transport.frames_per_batch",
        "transport.partial_writes",
        "transport.wouldblock_retries",
        "transport.backpressure_events",
        "transport.frames_dropped",
        "transport.oneway_p50_us",
        "transport.oneway_p99_us",
        "skeleton.ingest_ns",
        "skeleton.step_ns",
        "skeleton.queue_delay_p50_us",
        "skeleton.queue_delay_p99_us",
        "skeleton.service_p50_us",
        "skeleton.rejected_per_kop",
        "semantics.begin_complete_ns",
        "semantics.dedup_hits",
        "semantics.replayed",
        "semantics.cache_entries_end",
        "shard.key_ns",
        "shard.owner_ns",
        "shard.misrouted",
        "shard.hot_member_share",
        "kvstore.lock_wait_p50_us",
        "kvstore.lock_wait_p99_us",
        "kvstore.lock_hold_p50_us",
        "kvstore.lock_attempts_per_kop",
        "kvstore.lock_failures",
        "pool.instantiate_s",
        "pool.size_mean",
        "pool.size_peak",
        "pool.grown",
        "pool.shrunk",
        "cluster.provision_p50_ms",
        "cluster.reserved_slice_s",
        "proc.cpu_util",
        "proc.sys_frac",
        "proc.ctx_switches_per_op",
        "proc.allocs_per_op",
        "proc.alloc_bytes_per_op",
        "proc.rss_peak_mb",
        "gen.late_p50_us",
        "gen.late_p99_us",
        "host.raw_echo_ops_per_s",
        "host.echo_vs_raw",
        "trace.overhead_cpu_frac",
        "trace.overhead_p50_frac",
        "ledger.isolated_ns_per_op",
        "ledger.coverage",
    ];

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn catalogue_lists_every_named_metric_with_a_unit() {
        for name in REQUIRED {
            let d = def(name).unwrap_or_else(|| panic!("{name} missing from the catalogue"));
            assert!(!d.unit.is_empty(), "{name} has no unit");
        }
        for (i, d) in CATALOGUE.iter().enumerate() {
            assert!(name_ok(d.name), "bad name {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(d.better == "higher" || d.better == "lower");
            assert!(!d.moves.is_empty(), "{} must say what it moves", d.name);
            assert!(
                CATALOGUE[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
            if d.kind == Kind::Gated {
                assert!(d.bound > 0.0 && d.bound <= 0.25, "{} bound", d.name);
            }
        }
        let setup = def("setup_s").unwrap();
        assert_eq!(
            (setup.kind, setup.unit, setup.better),
            (Kind::Gated, "s", "lower")
        );
        let largest = CATALOGUE
            .iter()
            .filter(|d| d.kind == Kind::Gated)
            .map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --benchmark-json"
        );
        assert!(WORKLOADS
            .iter()
            .all(|(n, why)| name_ok(n) && why.len() <= 200 && !why.contains('"')));
        assert!(WORKLOADS
            .iter()
            .all(|(n, _)| crate::workloads::Workload::parse(n).is_some()));
    }

    #[test]
    fn json_line_has_every_metric_of_its_kind_with_units() {
        let mut r = Report::default();
        for d in CATALOGUE {
            r.set(d.name, 1.5, Some(10), "");
        }
        r.attempted = 10;
        for kind in [Kind::Gated, Kind::Layer] {
            let line = r.json(kind).expect("all finite");
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"
            ));
            for d in CATALOGUE.iter().filter(|d| d.kind == kind) {
                let want = format!(
                    "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                    d.name, d.unit
                );
                assert!(line.contains(&want), "{want} not in {line}");
            }
            assert!(
                !line.contains("lat_p99_us\""),
                "info metrics stay out of the JSON"
            );
        }
        let text = r.render();
        for d in CATALOGUE {
            assert!(
                text.contains(d.name) && text.contains(d.unit),
                "{} missing from the report",
                d.name
            );
        }
    }

    #[test]
    fn json_refuses_missing_or_infinite_values_and_reports_violations() {
        let mut r = Report::default();
        assert!(r.json(Kind::Gated).is_err());
        for d in CATALOGUE {
            r.set(d.name, 2.0, None, "");
        }
        assert!(r.json(Kind::Gated).unwrap_err().contains("no invocation"));
        r.attempted = 5;
        r.set("cpu_us_per_op", f64::INFINITY, None, "");
        assert!(r.json(Kind::Gated).unwrap_err().contains("cpu_us_per_op"));
        r.set("cpu_us_per_op", 3.0, None, "");
        r.violations.push("lost 1".into());
        assert!(r
            .json(Kind::Gated)
            .unwrap()
            .starts_with("{\"correct\": false"));
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1234567), "0.1234567");
    }
}
