//! The open-loop load generator: one thread driving one pipelined
//! [`Stub`] with `invoke_begin`/`drain_completed`, timing every invocation
//! from the moment it was due.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use elasticrmi::{Stub, StubStats};
use erm_apps::dcs::ZNode;

use crate::schedule::{Arrival, Op};
use crate::spans::Spans;
use crate::stats::{Latencies, Tally};
use crate::sys::ProcSample;

/// The generator's wakeup period in open-loop phases. Arrivals due within a
/// tick go out together at its start and completions are harvested at its
/// end, so latency from due time includes up to one tick of generator
/// delay each way (reported as `gen.late_*`). At 200 µs the batching, and
/// with it CPU per invocation, followed how promptly the VM woke each
/// thread: four echo-tcp seeds run alternately read 21–27 µs per op at
/// 200 µs and 16.3–17.0 µs at 1 ms.
pub const TICK: Duration = Duration::from_millis(1);

/// How one arrival ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not begun (window full) or never terminated.
    NotDone,
    /// Correct result returned.
    Ok,
    /// Terminated with an error or a wrong result.
    Failed,
}

/// What one phase measured.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Terminal accounting.
    pub tally: Tally,
    /// Latency from due time, failures infinite.
    pub lat: Latencies,
    /// How late the generator began each invocation, nanoseconds.
    pub late_ns: Vec<u64>,
    /// Length of the sending window, seconds.
    pub wall_s: f64,
    /// Sending plus drain, seconds.
    pub total_s: f64,
    /// CPU, context switches and RSS over sending plus drain.
    pub proc: ProcSample,
    /// Stub counters accrued over the phase.
    pub stub: StubStats,
    /// Invocations in flight right after the last arrival was begun.
    pub backlog_end: usize,
    /// Correct results harvested inside the sending window.
    pub ok_in_window: u64,
    /// Per-arrival outcome (saturation: per begun operation, in order).
    pub status: Vec<Status>,
}

impl Phase {
    /// Process CPU microseconds per correct result.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.proc.cpu_us() as f64 / self.tally.ok.max(1) as f64
    }
}

/// Drives one stub.
pub struct Generator<'a> {
    /// The stub under load.
    pub stub: &'a mut Stub,
    /// DCS path of each root index.
    pub paths: &'a [String],
    /// Most invocations outstanding at once; arrivals beyond it are shed.
    pub window: usize,
    /// In open-loop phases, stop sending once this many invocations are
    /// outstanding: an overloaded ladder step ends there instead of
    /// shedding at the window.
    pub give_up_at: usize,
    /// How long to wait for stragglers after the last send.
    pub drain: Duration,
    /// Span sink in the traced run.
    pub spans: Option<&'a mut Spans>,
}

struct Run {
    tally: Tally,
    lat: Latencies,
    late_ns: Vec<u64>,
    in_flight: HashMap<u64, (usize, Instant)>,
    status: Vec<Status>,
    ok_in_window: u64,
    counting_window: bool,
    t0: Instant,
}

impl Run {
    fn new(expected: usize) -> Run {
        Run {
            tally: Tally::default(),
            lat: Latencies::default(),
            late_ns: Vec::with_capacity(expected),
            in_flight: HashMap::with_capacity(1_024),
            status: Vec::with_capacity(expected),
            ok_in_window: 0,
            counting_window: true,
            t0: Instant::now(),
        }
    }
}

impl Generator<'_> {
    fn begin(&mut self, run: &mut Run, op: &Op, due: Instant) {
        let idx = run.status.len();
        run.status.push(Status::NotDone);
        run.tally.attempted += 1;
        let t = Instant::now();
        run.late_ns
            .push(t.saturating_duration_since(due).as_nanos() as u64);
        let begun = match op {
            Op::Echo(n) => self.stub.invoke_begin("echo", n),
            Op::Work(n) => self.stub.invoke_begin("work", n),
            Op::Get(root) => self.stub.invoke_begin("get", &self.paths[*root as usize]),
            Op::Set { root, data } => self
                .stub
                .invoke_begin("set", &(&self.paths[*root as usize], data)),
        };
        if let Some(spans) = self.spans.as_deref_mut() {
            let id = begun.as_ref().map_or(u64::MAX, |id| *id);
            spans.record("stub", "invoke_begin", id, t, Instant::now(), 1);
        }
        match begun {
            Ok(id) => {
                run.in_flight.insert(id, (idx, due));
            }
            Err(e) => {
                run.tally.fail(&e);
                run.lat.missed();
                run.status[idx] = Status::Failed;
            }
        }
    }

    fn shed(run: &mut Run) {
        run.status.push(Status::NotDone);
        run.tally.attempted += 1;
        run.tally.shed += 1;
        run.lat.missed();
    }

    /// Harvests finished invocations; returns how many.
    fn harvest<'o>(&mut self, run: &mut Run, op_of: &dyn Fn(usize) -> &'o Op) -> usize {
        let t = Instant::now();
        let done = self.stub.drain_completed();
        let now = Instant::now();
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.record(
                "stub",
                "drain_completed",
                u64::MAX,
                t,
                now,
                done.len() as u32,
            );
        }
        let n = done.len();
        for (id, result) in done {
            let Some((idx, due)) = run.in_flight.remove(&id) else {
                run.tally.errors += 1;
                continue;
            };
            let ok = match result {
                Ok(bytes) if reply_is_correct(op_of(idx), &bytes) => true,
                Ok(_) => {
                    run.tally.wrong += 1;
                    false
                }
                Err(e) => {
                    run.tally.fail(&e);
                    false
                }
            };
            if ok {
                run.tally.ok += 1;
                run.ok_in_window += u64::from(run.counting_window);
                run.lat
                    .ok(now.saturating_duration_since(due).as_nanos() as u64);
                run.status[idx] = Status::Ok;
            } else {
                run.lat.missed();
                run.status[idx] = Status::Failed;
            }
        }
        n
    }

    fn finish<'o>(
        &mut self,
        mut run: Run,
        op_of: &dyn Fn(usize) -> &'o Op,
        wall_s: f64,
        backlog_end: usize,
        cpu0: ProcSample,
        stub0: StubStats,
    ) -> Phase {
        run.counting_window = false;
        let deadline = Instant::now() + self.drain;
        while !run.in_flight.is_empty() && Instant::now() < deadline {
            if self.harvest(&mut run, op_of) == 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let lost = run.in_flight.len() as u64;
        run.tally.lost += lost;
        for _ in 0..lost {
            run.lat.missed();
        }
        Phase {
            tally: run.tally,
            lat: run.lat,
            late_ns: run.late_ns,
            wall_s,
            total_s: run.t0.elapsed().as_secs_f64(),
            proc: ProcSample::now().since(&cpu0),
            stub: stub_delta(&self.stub.stats(), &stub0),
            backlog_end,
            ok_in_window: run.ok_in_window,
            status: run.status,
        }
    }

    /// Sends `arrivals` on their schedule, then drains. `sample` runs once
    /// per tick with the time since phase start (pool-size sampling).
    /// Arrivals after a give-up are not attempted.
    pub fn open(&mut self, arrivals: &[Arrival], sample: &mut dyn FnMut(Duration)) -> Phase {
        let op_of = |i: usize| &arrivals[i].op;
        let mut run = Run::new(arrivals.len());
        let (cpu0, stub0) = (ProcSample::now(), self.stub.stats());
        let t0 = run.t0;
        let mut next = 0;
        let mut backlog_end = 0;
        while next < arrivals.len() {
            let now_ns = t0.elapsed().as_nanos() as u64;
            while next < arrivals.len() && arrivals[next].due_ns <= now_ns {
                let due = t0 + Duration::from_nanos(arrivals[next].due_ns);
                if self.stub.in_flight() >= self.window {
                    Self::shed(&mut run);
                } else {
                    self.begin(&mut run, &arrivals[next].op, due);
                }
                next += 1;
            }
            if next == arrivals.len() {
                backlog_end = self.stub.in_flight();
            }
            self.harvest(&mut run, &op_of);
            sample(t0.elapsed());
            if next < arrivals.len() {
                if self.stub.in_flight() >= self.give_up_at {
                    backlog_end = self.stub.in_flight();
                    break;
                }
                std::thread::sleep(TICK);
            }
        }
        let wall_s = arrivals[..next]
            .last()
            .map_or(0.0, |a| a.due_ns as f64 / 1e9);
        self.finish(run, &op_of, wall_s, backlog_end, cpu0, stub0)
    }

    /// Keeps `window` invocations outstanding for `duration`, cycling
    /// through `ops`; latency runs from each begin.
    pub fn saturate(&mut self, ops: &[Op], duration: Duration) -> Phase {
        let op_of = |i: usize| &ops[i % ops.len()];
        let mut run = Run::new(1 << 16);
        let (cpu0, stub0) = (ProcSample::now(), self.stub.stats());
        let t0 = run.t0;
        let mut seq = 0usize;
        while t0.elapsed() < duration {
            while self.stub.in_flight() < self.window {
                self.begin(&mut run, &ops[seq % ops.len()], Instant::now());
                seq += 1;
            }
            if self.harvest(&mut run, &op_of) == 0 {
                std::thread::yield_now();
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let backlog = self.stub.in_flight();
        self.finish(run, &op_of, wall_s, backlog, cpu0, stub0)
    }
}

/// The output check: echo and work return their argument, `get` returns
/// an existing node with a full payload, `set` returns a zxid.
pub fn reply_is_correct(op: &Op, bytes: &[u8]) -> bool {
    match op {
        Op::Echo(n) | Op::Work(n) => erm_transport::from_bytes::<u64>(bytes).is_ok_and(|v| v == *n),
        Op::Get(_) => erm_transport::from_bytes::<Option<ZNode>>(bytes)
            .is_ok_and(|node| node.is_some_and(|z| z.data.len() == crate::workloads::DCS_PAYLOAD)),
        Op::Set { .. } => erm_transport::from_bytes::<u64>(bytes).is_ok_and(|zxid| zxid > 0),
    }
}

/// Counter deltas `now - then`.
fn stub_delta(now: &StubStats, then: &StubStats) -> StubStats {
    StubStats {
        invocations: now.invocations - then.invocations,
        retries: now.retries - then.retries,
        redirects_followed: now.redirects_followed - then.redirects_followed,
        refreshes: now.refreshes - then.refreshes,
        expired: now.expired - then.expired,
        overloaded: now.overloaded - then.overloaded,
        throttled: now.throttled - then.throttled,
        connections_closed: now.connections_closed - then.connections_closed,
        replays: now.replays - then.replays,
        pins_lost: now.pins_lost - then.pins_lost,
        wrong_shard: now.wrong_shard - then.wrong_shard,
        stale_redirects: now.stale_redirects - then.stale_redirects,
    }
}
