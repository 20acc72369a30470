//! One benchmark run: set-up, the workload's phases, correctness checks,
//! and (traced run) the per-layer ledger.

use std::time::{Duration, Instant};

use std::collections::HashMap;

use elasticrmi::{RmiMessage, ShardRing};
use erm_metrics::RegistrySnapshot;
use erm_transport::{EndpointId, TcpStats};

use crate::alloc;
use crate::generator::{Phase, Status};
use crate::layers;
use crate::report::Report;
use crate::schedule::{self, Arrival, Op};
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::sys::{self, ProcSample};
use crate::workloads::{self, deploy, Deployment, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Open-loop in-flight cap: high enough that no fixed-rate arrival is shed.
const OPEN_WINDOW: usize = 4_096;
/// In-flight window of the saturation phase.
const SAT_WINDOW: usize = 64;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Where the traced run writes its span file.
    pub out_dir: std::path::PathBuf,
}

/// What the untraced part of a run hands to the traced part.
struct Baseline {
    cpu_us_per_op: f64,
    lat_p50_us: f64,
}

type Writes = Vec<(u16, Vec<u8>, Status)>;

fn record_writes<'a>(writes: &mut Writes, phase: &Phase, op_of: impl Fn(usize) -> &'a Op) {
    for (j, status) in phase.status.iter().enumerate() {
        if let Op::Set { root, data } = op_of(j) {
            writes.push((*root, data.clone(), *status));
        }
    }
}

/// Notes the phase, adds it to the run's totals, and records any
/// conservation or output-check violation.
fn check(report: &mut Report, label: &str, phase: &Phase) {
    let t = &phase.tally;
    report.notes.push(format!(
        "phase {label}: {:.1} s, {} attempted, {} ok, {} failed, {} shed, cpu util {:.3}",
        phase.total_s,
        t.attempted,
        t.ok,
        t.failed(),
        t.shed,
        phase.proc.cpu_us() as f64 / 1e6 / phase.total_s.max(1e-9) / sys::nproc() as f64
    ));
    for v in phase.tally.violations() {
        report.violations.push(format!("{label}: {v}"));
    }
    report.attempted += phase.tally.attempted;
    report.failed += phase.tally.not_ok();
}

/// `TcpStats` field by field: `f(a.x, b.x)` for every counter.
fn tcp_zip(a: TcpStats, b: TcpStats, f: impl Fn(u64, u64) -> u64) -> TcpStats {
    TcpStats {
        frames_sent: f(a.frames_sent, b.frames_sent),
        frames_received: f(a.frames_received, b.frames_received),
        batches: f(a.batches, b.batches),
        reconnects: f(a.reconnects, b.reconnects),
        frames_dropped: f(a.frames_dropped, b.frames_dropped),
        partial_writes: f(a.partial_writes, b.partial_writes),
        wouldblock_retries: f(a.wouldblock_retries, b.wouldblock_retries),
        backpressure_events: f(a.backpressure_events, b.backpressure_events),
        preconnects: f(a.preconnects, b.preconnects),
    }
}

/// Socket counters of both hosts together.
fn tcp_now(dep: &Deployment) -> TcpStats {
    tcp_zip(dep.server.stats(), dep.client.stats(), |a, b| a + b)
}

fn tcp_since(dep: &Deployment, then: TcpStats) -> TcpStats {
    tcp_zip(tcp_now(dep), then, |a, b| a - b)
}

/// Frame batching over `framing` and the write-path trouble counters over
/// `trouble` (saturation, where they show).
fn transport_metrics(
    report: &mut Report,
    framing: (&TcpStats, u64, &str),
    trouble: (&TcpStats, &str),
) {
    let (tcp, ok, note) = framing;
    report.set(
        "transport.frames_per_op",
        tcp.frames_sent as f64 / ok.max(1) as f64,
        None,
        note,
    );
    report.set(
        "transport.frames_per_batch",
        tcp.frames_sent as f64 / tcp.batches.max(1) as f64,
        None,
        note,
    );
    let (tcp, note) = trouble;
    for (name, v) in [
        ("transport.partial_writes", tcp.partial_writes),
        ("transport.wouldblock_retries", tcp.wouldblock_retries),
        ("transport.backpressure_events", tcp.backpressure_events),
        ("transport.frames_dropped", tcp.frames_dropped),
    ] {
        report.set(name, v as f64, None, note);
    }
}

fn per_kop(count: u64, ok: u64) -> f64 {
    count as f64 * 1_000.0 / ok.max(1) as f64
}

/// Deploys `SETUPS` times and keeps the last deployment. Threads the
/// deployments start inherit the default timer slack.
fn set_up(args: &Args, report: &mut Report, traced: bool) -> Result<Deployment, String> {
    let mut setup = Vec::new();
    let mut inst = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dep = deploy(args.workload, args.seed, traced)?;
        setup.push(dep.setup_s);
        inst.push(dep.instantiate_s);
        if i + 1 < SETUPS {
            dep.shutdown();
        } else {
            kept = Some(dep);
        }
    }
    report.notes.push(format!(
        "set-ups (ms): {}",
        setup
            .iter()
            .map(|s| format!("{:.2}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.set(
        "setup_s",
        median(&setup),
        Some(SETUPS as u64),
        "median of set-ups",
    );
    report.set(
        "pool.instantiate_s",
        median(&inst),
        Some(SETUPS as u64),
        "median of set-ups",
    );
    Ok(kept.expect("at least one set-up"))
}

/// The untraced measurement: every end-to-end metric.
fn measure(args: &Args, secs: f64, report: &mut Report) -> Result<Baseline, String> {
    let w = args.workload;
    // The calibration also evens out what ran before: on a shared 2-vCPU
    // VM, CPU per invocation stayed ~20% higher for tens of seconds after
    // heavy load, so without two busy seconds here a run's figures
    // depended on whether the run before it was busy.
    let raw = erm_harness::run_raw_socket_echo(Duration::from_secs(2), SAT_WINDOW);
    report.set(
        "host.raw_echo_ops_per_s",
        raw,
        None,
        "32-byte pipelined echo, window 64",
    );
    let default_slack = sys::timer_slack();
    let mut dep = set_up(args, report, false)?;
    sys::set_timer_slack(1);
    let result = match w {
        Workload::ElasticStep => measure_step(args, secs, &mut dep, report),
        _ => measure_fixed(args, secs, raw, &mut dep, report),
    };
    dep.shutdown();
    sys::set_timer_slack(default_slack);
    report.set(
        "proc.rss_peak_mb",
        ProcSample::now().max_rss_kib as f64 / 1024.0,
        None,
        "",
    );
    result
}

fn phase_e2e(report: &mut Report, phase: &mut Phase, note: &str) -> Baseline {
    let n = Some(phase.tally.attempted);
    let p50 = phase.lat.percentile_us(0.5).unwrap_or(f64::INFINITY);
    report.set("e2e.lat_p50_us", p50, n, note);
    let p99 = phase.lat.percentile_us(0.99).unwrap_or(f64::INFINITY);
    report.set("lat_p99_us", p99, n, note);
    let p99_ok = phase.lat.ok_percentile_us(0.99).unwrap_or(0.0);
    report.set("e2e.lat_p99_ok_us", p99_ok, Some(phase.tally.ok), note);
    report.set("e2e.fail_frac", phase.tally.fail_frac(), n, note);
    let cpu = phase.cpu_us_per_op();
    report.set("cpu_us_per_op", cpu, Some(phase.tally.ok), note);
    report.set(
        "goodput_ops_per_s",
        phase.tally.ok as f64 / phase.wall_s.max(1e-9),
        Some(phase.tally.ok),
        note,
    );
    let wall = phase.total_s.max(1e-9);
    report.set(
        "proc.cpu_util",
        phase.proc.cpu_us() as f64 / 1e6 / wall / sys::nproc() as f64,
        None,
        note,
    );
    report.set(
        "proc.sys_frac",
        phase.proc.sys_us as f64 / phase.proc.cpu_us().max(1) as f64,
        None,
        note,
    );
    report.set(
        "proc.ctx_switches_per_op",
        phase.proc.ctx_switches as f64 / phase.tally.ok.max(1) as f64,
        None,
        note,
    );
    let mut late: Vec<f64> = phase.late_ns.iter().map(|&n| n as f64 / 1_000.0).collect();
    let n_late = Some(late.len() as u64);
    report.set("gen.late_p50_us", quantile(&mut late, 0.5), n_late, note);
    report.set("gen.late_p99_us", quantile(&mut late, 0.99), n_late, note);
    Baseline {
        cpu_us_per_op: cpu,
        lat_p50_us: p50,
    }
}

fn measure_fixed(
    args: &Args,
    secs: f64,
    raw: f64,
    dep: &mut Deployment,
    report: &mut Report,
) -> Result<Baseline, String> {
    let w = args.workload;
    let seed = args.seed;
    let rate = w.fixed_rate();
    let secs_ns = |s: f64| (s * 1e9) as u64;
    let mut writes: Writes = Vec::new();

    let warm = schedule::open_loop(
        seed,
        "warm",
        rate,
        secs_ns(0.5),
        w.ops(seed, "warm-ops").as_mut(),
    );
    let fixed = schedule::open_loop(
        seed,
        "fixed",
        rate,
        secs_ns(0.5 * secs),
        w.ops(seed, "fixed-ops").as_mut(),
    );
    let (ladder, limit_us) = w.ladder();
    let step_s = 0.3 * secs / ladder.len() as f64;
    let sat_ops = schedule::batch(4_096, w.ops(seed, "sat-ops").as_mut());

    let (mut load, _) = dep.generator(OPEN_WINDOW, None);
    let warm_phase = load.open(&warm, &mut |_| {});
    check(report, "warm", &warm_phase);
    record_writes(&mut writes, &warm_phase, |j| &warm[j].op);

    let tcp0 = tcp_now(dep);
    let slices0 = dep
        .cluster
        .with(|rm| rm.reserved_slice_seconds(dep.clock.now()));
    let (mut load, _) = dep.generator(OPEN_WINDOW, None);
    let mut fixed_phase = load.open(&fixed, &mut |_| {});
    let slices1 = dep
        .cluster
        .with(|rm| rm.reserved_slice_seconds(dep.clock.now()));
    let fixed_tcp = tcp_since(dep, tcp0);
    check(report, "fixed", &fixed_phase);
    // The fixed rate sits well below capacity and no run at it has seen a
    // failure, so any arrival without a correct result is a defect.
    let not_ok = fixed_phase.tally.not_ok();
    if not_ok > 0 {
        report.violations.push(format!(
            "fixed: {not_ok} of {} arrivals did not return a correct result",
            fixed_phase.tally.attempted
        ));
    }
    record_writes(&mut writes, &fixed_phase, |j| &fixed[j].op);
    let note = format!("fixed {rate}/s for {:.1} s", fixed_phase.wall_s);
    let base = phase_e2e(report, &mut fixed_phase, &note);
    report.set(
        "cluster.reserved_slice_s",
        slices1 - slices0,
        None,
        "fixed phase",
    );

    // Knee ladder: ascending rates until one misses the p99 limit or
    // leaves a backlog beyond what that limit allows (Little's law). A step
    // gives up at half the window, past any rate's allowance, so probing
    // beyond capacity sheds nothing.
    let mut knee = 0.0;
    let mut steps = Vec::new();
    for (i, &r) in ladder.iter().enumerate() {
        let arrivals = schedule::open_loop(
            seed,
            &format!("ladder-{i}"),
            r,
            secs_ns(step_s),
            w.ops(seed, &format!("ladder-ops-{i}")).as_mut(),
        );
        let (mut load, _) = dep.generator(OPEN_WINDOW, None);
        load.give_up_at = OPEN_WINDOW / 2;
        let mut p = load.open(&arrivals, &mut |_| {});
        check(report, &format!("ladder {r}/s"), &p);
        record_writes(&mut writes, &p, |j| &arrivals[j].op);
        let p99 = p.lat.percentile_us(0.99).unwrap_or(f64::INFINITY);
        let backlog_ok = (p.backlog_end as f64) <= (r * limit_us / 1e6).max(16.0);
        let gave_up = if p.status.len() < arrivals.len() {
            " (gave up)"
        } else {
            ""
        };
        steps.push(format!(
            "{r}/s p99 {p99:.0} us backlog {}{gave_up}",
            p.backlog_end
        ));
        if p99 <= limit_us && backlog_ok {
            knee = r;
        } else {
            break;
        }
    }
    report.notes.push(format!(
        "ladder (p99 limit {limit_us} us): {}",
        steps.join("; ")
    ));
    report.set(
        "e2e.knee_ops_per_s",
        knee,
        Some(steps.len() as u64),
        "ladder steps run",
    );

    let tcp0 = tcp_now(dep);
    let (mut load, _) = dep.generator(SAT_WINDOW, None);
    let sat = load.saturate(&sat_ops, Duration::from_secs_f64(0.15 * secs));
    let sat_tcp = tcp_since(dep, tcp0);
    check(report, "saturation", &sat);
    record_writes(&mut writes, &sat, |j| &sat_ops[j % sat_ops.len()]);
    let sat_rate = sat.ok_in_window as f64 / sat.wall_s;
    report.set(
        "e2e.sat_cpu_us_per_op",
        sat.cpu_us_per_op(),
        Some(sat.tally.ok),
        "window 64",
    );
    report.set(
        "e2e.sat_ops_per_s",
        sat_rate,
        Some(sat.ok_in_window),
        "window 64",
    );
    transport_metrics(
        report,
        (&fixed_tcp, fixed_phase.tally.ok, "both hosts, fixed phase"),
        (&sat_tcp, "both hosts, saturation phase"),
    );
    if w == Workload::EchoTcp {
        report.set(
            "host.echo_vs_raw",
            sat_rate / raw,
            None,
            "echo-tcp sat / raw echo",
        );
    } else {
        report.na("host.echo_vs_raw");
    }
    report.na("e2e.scale_up_s");
    report.na("e2e.slice_s_per_kop");
    let (min, _) = w.pool_bounds();
    report.set("pool.size_mean", f64::from(min), None, "pinned");
    report.set("pool.size_peak", f64::from(dep.pool.size()), None, "pinned");
    pool_counters(dep, report);

    if w == Workload::DcsKeyed {
        match dep.dcs_read_back(&writes) {
            Ok((checked, skipped)) => report.notes.push(format!(
                "read-back: {checked} roots hold their last acknowledged write, {skipped} skipped"
            )),
            Err(e) => report.violations.push(e),
        }
    }
    Ok(base)
}

fn pool_counters(dep: &Deployment, report: &mut Report) {
    let stats = dep.pool.stats();
    report.set("pool.grown", f64::from(stats.grown), None, "");
    report.set("pool.shrunk", f64::from(stats.shrunk), None, "");
    let mut prov: Vec<f64> = stats
        .provisioning_latencies
        .iter()
        .map(|d| d.as_micros() as f64 / 1_000.0)
        .collect();
    let n = Some(prov.len() as u64);
    report.set("cluster.provision_p50_ms", quantile(&mut prov, 0.5), n, "");
}

fn measure_step(
    args: &Args,
    secs: f64,
    dep: &mut Deployment,
    report: &mut Report,
) -> Result<Baseline, String> {
    let (arrivals, step_at) = workloads::step_schedule(args.seed, "step", secs);
    let tcp0 = tcp_now(dep);
    let mut step = run_step(dep, &arrivals, step_at, None);
    let tcp = tcp_since(dep, tcp0);
    check(report, "step", &step.phase);
    let base = phase_e2e(report, &mut step.phase, "whole 600->2400->300/s schedule");
    record_step(report, &step, secs, dep);
    let note = "both hosts, whole schedule";
    transport_metrics(report, (&tcp, step.phase.tally.ok, note), (&tcp, note));
    report.na("e2e.knee_ops_per_s");
    report.na("e2e.sat_ops_per_s");
    report.na("e2e.sat_cpu_us_per_op");
    report.na("host.echo_vs_raw");
    match dep.quiesce(Duration::from_secs(30)) {
        Ok((size, slices)) => report.notes.push(format!(
            "quiesce: pool back at {size} members, {slices} slices in use"
        )),
        Err(e) => report.violations.push(e),
    }
    Ok(base)
}

/// One pass over the stepped schedule.
struct Step {
    phase: Phase,
    /// `pool.size()` every 5 ms.
    sizes: Vec<u32>,
    /// From the load step until the pool first holds the members the step
    /// needs, seconds.
    scale_up_s: Option<f64>,
    /// Slice-seconds the cluster reserved meanwhile.
    slice_s: f64,
}

/// Sends the stepped schedule while sampling the pool size.
fn run_step(
    dep: &mut Deployment,
    arrivals: &[Arrival],
    step_at: u64,
    spans: Option<&mut Spans>,
) -> Step {
    let needs = workloads::step_needs();
    let step_at = Duration::from_nanos(step_at);
    let mut samples = Vec::new();
    let mut last = None::<Duration>;
    let mut scale_up = None;
    let slices0 = dep
        .cluster
        .with(|rm| rm.reserved_slice_seconds(dep.clock.now()));
    let (mut load, pool) = dep.generator(OPEN_WINDOW, spans);
    let phase = load.open(arrivals, &mut |t| {
        if last.is_some_and(|l| t < l + Duration::from_millis(5)) {
            return;
        }
        last = Some(t);
        let size = pool.size();
        samples.push(size);
        if scale_up.is_none() && t >= step_at && size >= needs {
            scale_up = Some((t - step_at).as_secs_f64());
        }
    });
    let slice_s = dep
        .cluster
        .with(|rm| rm.reserved_slice_seconds(dep.clock.now()))
        - slices0;
    Step {
        phase,
        sizes: samples,
        scale_up_s: scale_up,
        slice_s,
    }
}

fn record_step(report: &mut Report, step: &Step, secs: f64, dep: &Deployment) {
    let needs = workloads::step_needs();
    match step.scale_up_s {
        Some(s) => report.set("e2e.scale_up_s", s, None, &format!("to {needs} members")),
        None => report.set(
            "e2e.scale_up_s",
            workloads::STEPS[1].1 * secs,
            None,
            &format!("censored: never reached {needs} members within the step"),
        ),
    }
    let ok = step.phase.tally.ok;
    report.set(
        "e2e.slice_s_per_kop",
        step.slice_s * 1_000.0 / ok.max(1) as f64,
        Some(ok),
        "",
    );
    report.set(
        "cluster.reserved_slice_s",
        step.slice_s,
        None,
        "whole schedule",
    );
    let samples = &step.sizes;
    let mean = samples.iter().map(|&s| f64::from(s)).sum::<f64>() / samples.len().max(1) as f64;
    let n = Some(samples.len() as u64);
    report.set("pool.size_mean", mean, n, "sampled every 5 ms");
    report.set(
        "pool.size_peak",
        f64::from(samples.iter().copied().max().unwrap_or(0)),
        n,
        "sampled every 5 ms",
    );
    pool_counters(dep, report);
}

/// The traced measurement: a fresh deployment with metrics wired in, the
/// counting allocator armed, spans around every stub call; then each
/// layer's isolated costs.
fn traced(args: &Args, secs: f64, base: &Baseline, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    let seed = args.seed;
    let default_slack = sys::timer_slack();
    let mut dep = deploy(w, seed, true)?;
    sys::set_timer_slack(1);
    let mut spans = Spans::new(400_000);
    let ring = if w == Workload::DcsKeyed {
        dep.ring()?
    } else {
        ShardRing::default()
    };

    let (arrivals, step_at) = match w {
        Workload::ElasticStep => workloads::step_schedule(seed, "traced-step", secs),
        _ => {
            let warm = schedule::open_loop(
                seed,
                "traced-warm",
                w.fixed_rate(),
                500_000_000,
                w.ops(seed, "traced-warm-ops").as_mut(),
            );
            let (mut load, _) = dep.generator(OPEN_WINDOW, None);
            check(report, "traced warm", &load.open(&warm, &mut |_| {}));
            let a = schedule::open_loop(
                seed,
                "traced",
                w.fixed_rate(),
                (secs * 1e9) as u64,
                w.ops(seed, "traced-ops").as_mut(),
            );
            (a, 0)
        }
    };
    let locks0 = dep.store.lock_stats();
    let rejected0 = dep.pool.stats().rejected;
    alloc::arm(true);
    let (allocs0, bytes0) = alloc::process_totals();
    let mut phase = match w {
        Workload::ElasticStep => run_step(&mut dep, &arrivals, step_at, Some(&mut spans)).phase,
        _ => {
            let (mut load, _) = dep.generator(OPEN_WINDOW, Some(&mut spans));
            load.open(&arrivals, &mut |_| {})
        }
    };
    let (allocs1, bytes1) = alloc::process_totals();
    check(report, "traced", &phase);
    let ok = phase.tally.ok;
    let note = "traced phase";
    report.set(
        "proc.allocs_per_op",
        (allocs1 - allocs0) as f64 / ok.max(1) as f64,
        Some(ok),
        "traced phase, whole process",
    );
    report.set(
        "proc.alloc_bytes_per_op",
        (bytes1 - bytes0) as f64 / ok.max(1) as f64,
        Some(ok),
        "traced phase, whole process",
    );

    let begins: Vec<f64> = spans
        .of("stub", "invoke_begin")
        .map(|s| s.dur_ns as f64)
        .collect();
    report.set(
        "stub.begin_ns",
        median(&begins),
        Some(begins.len() as u64),
        "median span",
    );
    let (drain_ns, drained) = spans
        .of("stub", "drain_completed")
        .filter(|s| s.items > 0)
        .fold((0u64, 0u64), |(t, n), s| {
            (t + s.dur_ns, n + u64::from(s.items))
        });
    report.set(
        "stub.drain_ns_per_op",
        drain_ns as f64 / drained.max(1) as f64,
        Some(drained),
        "spans returning >= 1",
    );
    let st = phase.stub;
    report.set("stub.retries_per_kop", per_kop(st.retries, ok), None, note);
    report.set(
        "stub.redirects_per_kop",
        per_kop(st.redirects_followed, ok),
        None,
        note,
    );
    report.set(
        "stub.overloaded_per_kop",
        per_kop(st.overloaded, ok),
        None,
        note,
    );
    report.set(
        "stub.wrong_shard_per_kop",
        per_kop(st.wrong_shard, ok),
        None,
        note,
    );
    report.set("stub.refreshes", st.refreshes as f64, None, note);
    report.set(
        "stub.members_known_end",
        dep.stub.members().len() as f64,
        None,
        note,
    );
    let rejected = dep.pool.stats().rejected - rejected0;
    report.set(
        "skeleton.rejected_per_kop",
        per_kop(rejected, ok),
        None,
        "PoolStats.rejected, traced phase",
    );
    let locks = dep.store.lock_stats();
    report.set(
        "kvstore.lock_attempts_per_kop",
        per_kop(locks.attempts - locks0.attempts, ok),
        None,
        note,
    );
    report.set(
        "kvstore.lock_failures",
        (locks.failures - locks0.failures) as f64,
        None,
        note,
    );
    let snap = dep
        .registry
        .as_ref()
        .expect("traced deployment")
        .snapshot(dep.clock.now());
    registry_metrics(&snap, report);

    let cpu = phase.cpu_us_per_op();
    let p50 = phase.lat.percentile_us(0.5).unwrap_or(f64::INFINITY);
    report.set(
        "trace.overhead_cpu_frac",
        cpu / base.cpu_us_per_op - 1.0,
        None,
        "traced vs untraced cpu_us_per_op",
    );
    report.set(
        "trace.overhead_p50_frac",
        p50 / base.lat_p50_us - 1.0,
        None,
        "traced vs untraced lat_p50_us",
    );
    if w == Workload::DcsKeyed {
        let share = hot_member_share(&ring, &arrivals, &dep.paths);
        report.set(
            "shard.hot_member_share",
            share,
            None,
            "busiest owner's share of traced keys",
        );
    } else {
        report.na("shard.hot_member_share");
    }
    let paths = dep.paths.clone();
    dep.shutdown();
    sys::set_timer_slack(default_slack);

    let sample: Vec<Op> = arrivals.iter().take(256).map(|a| a.op.clone()).collect();
    isolated(args, &sample, &paths, &ring, &mut spans, base, report)?;
    alloc::arm(false);

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("spans-{}.csv", w.name()));
    std::fs::write(&path, spans.to_csv()).map_err(|e| format!("write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "spans: {} kept, {} dropped, written to {}",
        spans.len(),
        spans.dropped(),
        path.display()
    ));
    Ok(())
}

/// Each layer's public functions replayed alone on this thread, on the
/// request and response shapes of `sample`.
fn isolated(
    args: &Args,
    sample: &[Op],
    paths: &[String],
    ring: &ShardRing,
    spans: &mut Spans,
    base: &Baseline,
    report: &mut Report,
) -> Result<(), String> {
    let w = args.workload;
    let budget = Duration::from_secs_f64((0.04 * args.seconds).clamp(0.1, 1.0));
    let shapes = layers::shapes(w, sample, paths);
    let requests: Vec<RmiMessage> = shapes.iter().map(|s| s.request.clone()).collect();
    let responses: Vec<RmiMessage> = shapes.iter().map(|s| s.response.clone()).collect();
    let mean_len = |v: &[RmiMessage]| {
        v.iter().map(|m| m.encode().len()).sum::<usize>() as f64 / v.len() as f64
    };
    let req_bytes = mean_len(&requests);
    let n = Some(shapes.len() as u64);
    report.set(
        "message.request_bytes",
        req_bytes,
        n,
        "mean over sampled requests",
    );
    report.set(
        "message.response_bytes",
        mean_len(&responses),
        n,
        "mean over sampled responses",
    );
    let messages: Vec<RmiMessage> = requests.into_iter().chain(responses).collect();
    let encoded: Vec<Vec<u8>> = messages.iter().map(RmiMessage::encode).collect();
    let (enc_ns, enc_allocs) =
        layers::per_call(spans, "message", "encode", budget, &messages, |m| {
            std::hint::black_box(m.encode());
        });
    let (dec_ns, dec_allocs) =
        layers::per_call(spans, "message", "decode", budget, &encoded, |b| {
            std::hint::black_box(RmiMessage::decode(b).ok());
        });
    report.set("message.encode_ns", enc_ns, None, "requests and responses");
    report.set("message.decode_ns", dec_ns, None, "requests and responses");
    report.set("message.encode_allocs", enc_allocs, None, "per call");
    report.set("message.decode_allocs", dec_allocs, None, "per call");

    let (ingest_ns, step_ns) = layers::skeleton_costs(w, &shapes, paths, spans, budget);
    report.set(
        "skeleton.ingest_ns",
        ingest_ns,
        None,
        "standalone skeleton, service sleep excluded",
    );
    report.set(
        "skeleton.step_ns",
        step_ns,
        None,
        "standalone skeleton, service sleep excluded",
    );

    // Only writes go through the reply cache; without writes, use the
    // workload's own reply size.
    let reply_len = shapes
        .iter()
        .find(|s| s.method == "set")
        .unwrap_or(&shapes[0])
        .reply
        .len();
    let cache_ns = layers::reply_cache_cost(reply_len, spans, budget);
    report.set(
        "semantics.begin_complete_ns",
        cache_ns,
        None,
        &format!("{reply_len}-byte reply"),
    );

    if w == Workload::DcsKeyed {
        let table = w.config().sharding().clone();
        let (key_ns, _) =
            layers::per_call(spans, "shard", "routing_key_for", budget, &shapes, |s| {
                std::hint::black_box(table.routing_key_for(s.method, &s.args));
            });
        report.set("shard.key_ns", key_ns, None, "");
        match layers::owner_cost(ring, &shapes, spans, budget) {
            Some(ns) => report.set("shard.owner_ns", ns, None, ""),
            None => report.na("shard.owner_ns"),
        }
    } else {
        report.na("shard.key_ns");
        report.na("shard.owner_ns");
    }

    let (p50, p99) = layers::oneway(req_bytes as usize, 2_000, spans)?;
    let note = format!("{req_bytes:.0}-byte payload");
    report.set("transport.oneway_p50_us", p50, Some(2_000), &note);
    report.set("transport.oneway_p99_us", p99, Some(2_000), &note);

    let ledger = report.get("stub.begin_ns").unwrap_or(0.0)
        + report.get("stub.drain_ns_per_op").unwrap_or(0.0)
        + dec_ns
        + ingest_ns
        + step_ns;
    report.set(
        "ledger.isolated_ns_per_op",
        ledger,
        None,
        "stub begin + drain + request decode + skeleton ingest + step",
    );
    report.set(
        "ledger.coverage",
        ledger / (base.cpu_us_per_op * 1_000.0),
        None,
        "of untraced cpu_us_per_op",
    );
    Ok(())
}

/// The busiest ring owner's share of the keyed calls in `arrivals`.
fn hot_member_share(ring: &ShardRing, arrivals: &[Arrival], paths: &[String]) -> f64 {
    let table = Workload::DcsKeyed.config().sharding().clone();
    let owner_of_root: Vec<Option<EndpointId>> = paths
        .iter()
        .map(|p| {
            let args = erm_transport::to_bytes(p).expect("encodable");
            table
                .routing_key_for("get", &args)
                .and_then(|k| ring.owner(k))
        })
        .collect();
    let mut counts = HashMap::new();
    let mut total = 0u64;
    for a in arrivals {
        let (Op::Get(root) | Op::Set { root, .. }) = &a.op else {
            continue;
        };
        if let Some(owner) = owner_of_root[*root as usize] {
            *counts.entry(owner).or_insert(0u64) += 1;
            total += 1;
        }
    }
    counts.values().copied().max().unwrap_or(0) as f64 / total.max(1) as f64
}

fn registry_metrics(snap: &RegistrySnapshot, report: &mut Report) {
    let hist = |name: &str, q: f64| {
        snap.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, h)| h.quantile(q).map(|d| (d.as_micros() as f64, h.count())))
    };
    for (metric, name, q) in [
        ("skeleton.queue_delay_p50_us", "skeleton.queue.delay", 0.5),
        ("skeleton.queue_delay_p99_us", "skeleton.queue.delay", 0.99),
        ("skeleton.service_p50_us", "skeleton.service.time", 0.5),
        ("kvstore.lock_wait_p50_us", "kv.lock.wait", 0.5),
        ("kvstore.lock_wait_p99_us", "kv.lock.wait", 0.99),
        ("kvstore.lock_hold_p50_us", "kv.lock.hold", 0.5),
    ] {
        match hist(name, q) {
            Some((v, n)) => report.set(
                metric,
                v,
                Some(n),
                &format!("registry {name}, bucket bound"),
            ),
            None => report.set(metric, 0.0, Some(0), &format!("registry {name} empty")),
        }
    }
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    let gauge = |name: &str| {
        snap.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    report.set(
        "semantics.dedup_hits",
        counter("rmi.dedup.hits") as f64,
        None,
        "registry rmi.dedup.hits",
    );
    report.set(
        "semantics.replayed",
        counter("rmi.dedup.replayed") as f64,
        None,
        "registry rmi.dedup.replayed",
    );
    report.set(
        "semantics.cache_entries_end",
        gauge("rmi.dedup.cache.size") as f64,
        None,
        "registry rmi.dedup.cache.size",
    );
    let misrouted = counter("rmi.shard.misrouted");
    report.set(
        "shard.misrouted",
        misrouted as f64,
        None,
        "registry rmi.shard.misrouted",
    );
    if misrouted > 0 {
        report.violations.push(format!(
            "{misrouted} requests reached a member that does not own their key"
        ));
    }
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    report.notes.push(format!(
        "perfbench {} seed {} seconds {} trace {} (nproc {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc()
    ));
    let t0 = Instant::now();
    let result = if args.trace {
        measure(args, 0.45 * args.seconds, &mut report)
            .and_then(|base| traced(args, 0.3 * args.seconds, &base, &mut report))
    } else {
        measure(args, args.seconds, &mut report).map(|_| ())
    };
    if let Err(e) = result {
        report.violations.push(e);
    }
    report
        .notes
        .push(format!("run took {:.1} s", t0.elapsed().as_secs_f64()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_sim::SimTime;

    #[test]
    fn a_misrouted_request_voids_the_run() {
        let mut snap = RegistrySnapshot {
            at: SimTime::ZERO,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let mut report = Report::default();
        registry_metrics(&snap, &mut report);
        assert!(report.violations.is_empty());
        assert_eq!(report.get("shard.misrouted"), Some(0.0));

        snap.counters.push(("rmi.shard.misrouted", 2));
        registry_metrics(&snap, &mut report);
        assert_eq!(report.get("shard.misrouted"), Some(2.0));
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    }

    #[test]
    fn a_ladder_step_gives_up_only_past_its_backlog_allowance() {
        for w in [Workload::EchoTcp, Workload::DcsKeyed] {
            let (rates, limit_us) = w.ladder();
            for r in rates {
                assert!((r * limit_us / 1e6).max(16.0) < (OPEN_WINDOW / 2) as f64);
            }
        }
    }
}
