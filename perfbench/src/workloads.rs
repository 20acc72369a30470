//! The three workloads: deployment over TCP loopback, their phases, and
//! their output checks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use elasticrmi::{
    decode_args, encode_result, ClientLb, Discipline, ElasticPool, ElasticService, PoolConfig,
    PoolDeps, RemoteError, RmiMessage, Semantics, SemanticsTable, ServiceContext, ShardRing, Stub,
};
use erm_apps::dcs::{Dcs, ZNode};
use erm_cluster::{ClusterConfig, ClusterHandle, LatencyModel, ResourceManager};
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::{MetricsHandle, Registry, TraceHandle};
use erm_sim::{SharedClock, SimDuration, SystemClock};
use erm_transport::{EndpointId, Host, Mailbox, Network, TcpHost};

use crate::generator::{Generator, Status};
use crate::schedule::{self, Arrival, DcsOps, EchoOps, OpSource, Rng, WorkOps};
use crate::spans::Spans;

/// Bytes of every DCS node payload.
pub const DCS_PAYLOAD: usize = 1024;
/// DCS path roots, pre-created at set-up.
pub const DCS_ROOTS: u64 = 256;
/// Service time of `work` in elastic-step.
pub const WORK_SERVICE: Duration = Duration::from_millis(1);

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zero-work echo, pinned 2-member pool.
    EchoTcp,
    /// DCS, pinned sharded 4-member pool.
    DcsKeyed,
    /// 1 ms sleeping work, 2..8 scaling pool, stepped rate.
    ElasticStep,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "echo-tcp" => Some(Workload::EchoTcp),
            "dcs-keyed" => Some(Workload::DcsKeyed),
            "elastic-step" => Some(Workload::ElasticStep),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EchoTcp => "echo-tcp",
            Workload::DcsKeyed => "dcs-keyed",
            Workload::ElasticStep => "elastic-step",
        }
    }

    /// Pool size bounds.
    pub fn pool_bounds(self) -> (u32, u32) {
        match self {
            Workload::EchoTcp => (2, 2),
            Workload::DcsKeyed => (4, 4),
            Workload::ElasticStep => (2, 8),
        }
    }

    /// End-to-end budget of one invocation (also the reply timeout, so each
    /// invocation is one wire attempt plus protocol-driven failovers).
    pub fn budget(self) -> SimDuration {
        match self {
            Workload::ElasticStep => SimDuration::from_secs(1),
            _ => SimDuration::from_secs(2),
        }
    }

    /// Rate of the fixed-rate phase, invocations per second.
    pub fn fixed_rate(self) -> f64 {
        match self {
            Workload::EchoTcp => 20_000.0,
            Workload::DcsKeyed => 3_000.0,
            Workload::ElasticStep => 600.0,
        }
    }

    /// Knee ladder rates (ascending) and the p99 limit, microseconds.
    pub fn ladder(self) -> (&'static [f64], f64) {
        match self {
            Workload::EchoTcp => (
                &[
                    10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0, 70_000.0, 80_000.0,
                ],
                20_000.0,
            ),
            Workload::DcsKeyed => (
                &[
                    2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0, 7_000.0, 8_000.0, 10_000.0,
                ],
                20_000.0,
            ),
            Workload::ElasticStep => (&[], 0.0),
        }
    }

    /// The pool configuration.
    pub fn config(self) -> PoolConfig {
        let (min, max) = self.pool_bounds();
        let b = PoolConfig::builder(match self {
            Workload::DcsKeyed => Dcs::CLASS,
            _ => "Bench",
        })
        .min_pool_size(min)
        .max_pool_size(max)
        .burst_interval(SimDuration::from_millis(250));
        let b = match self {
            Workload::EchoTcp => b,
            Workload::DcsKeyed => b.semantics(dcs_semantics()).sharding(Dcs::sharding()),
            Workload::ElasticStep => b
                .admission(Discipline::Edf)
                .overload_capacity(32)
                .queue_delay_grow_above(SimDuration::from_millis(5)),
        };
        b.build().expect("valid benchmark pool config")
    }

    /// One member's service object.
    pub fn service(self) -> Box<dyn ElasticService> {
        match self {
            Workload::EchoTcp => Box::new(BenchService {
                work: Duration::ZERO,
            }),
            Workload::DcsKeyed => Box::new(Dcs::new()),
            Workload::ElasticStep => Box::new(BenchService { work: WORK_SERVICE }),
        }
    }

    /// Operation stream for a phase.
    pub fn ops(self, seed: u64, label: &str) -> Box<dyn OpSource> {
        match self {
            Workload::EchoTcp => Box::new(EchoOps(Rng::new(seed, label))),
            Workload::DcsKeyed => {
                Box::new(DcsOps::new(seed, label, DCS_ROOTS, 1.1, 0.1, DCS_PAYLOAD))
            }
            Workload::ElasticStep => Box::new(WorkOps(Rng::new(seed, label))),
        }
    }
}

/// `set`/`create` are at-most-once: a retried write must not run twice.
pub fn dcs_semantics() -> SemanticsTable {
    SemanticsTable::new()
        .method("set", Semantics::AtMostOnce)
        .method("create", Semantics::AtMostOnce)
}

/// `echo(n)` returns `n`; `work(n)` sleeps the service time, returns `n`.
pub struct BenchService {
    /// Sleep per `work` call.
    pub work: Duration,
}

impl ElasticService for BenchService {
    fn dispatch(
        &mut self,
        method: &str,
        args: &[u8],
        _ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        let n: u64 = decode_args(method, args)?;
        match method {
            "echo" => encode_result(&n),
            "work" => {
                std::thread::sleep(self.work);
                encode_result(&n)
            }
            other => Err(RemoteError::no_such_method(other)),
        }
    }
}

/// A running system under test: server and client hosts on loopback, the
/// pool on the server, one stub on the client.
pub struct Deployment {
    /// Which workload it serves.
    pub workload: Workload,
    /// Host of the pool.
    pub server: Arc<TcpHost>,
    /// Host of the stub.
    pub client: Arc<TcpHost>,
    /// The pool.
    pub pool: ElasticPool,
    /// The one stub the generator drives.
    pub stub: Stub,
    /// The cluster the pool takes slices from.
    pub cluster: ClusterHandle,
    /// The pool's shared store.
    pub store: Arc<Store>,
    /// Metrics registry (traced deployments only).
    pub registry: Option<Arc<Registry>>,
    /// The clock everything runs on.
    pub clock: SharedClock,
    /// DCS path of each root index.
    pub paths: Vec<String>,
    /// DCS payload each root was created with.
    pub initial: Vec<Vec<u8>>,
    /// Wall time of `ElasticPool::instantiate` until every member is up.
    pub instantiate_s: f64,
    /// Wall time of the whole set-up.
    pub setup_s: f64,
}

fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + limit;
    while !done() {
        if Instant::now() > end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Deploys `workload`; `traced` wires a metrics registry into the pool,
/// both hosts and the store.
pub fn deploy(workload: Workload, seed: u64, traced: bool) -> Result<Deployment, String> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| format!("bind loopback: {e}");
    let server = Arc::new(TcpHost::bind("127.0.0.1:0", 0).map_err(io)?);
    let client = Arc::new(TcpHost::bind("127.0.0.1:0", 1).map_err(io)?);
    client.register_host(0, server.local_addr());
    client.preconnect(EndpointId(0));
    let clock: SharedClock = Arc::new(SystemClock::new());
    let store = Arc::new(Store::new(StoreConfig::default()));
    let (metrics, registry) = if traced {
        let (handle, registry) = MetricsHandle::shared();
        server.install_metrics(&handle);
        client.install_metrics(&handle);
        store.install_lock_metrics(&handle);
        (handle, Some(registry))
    } else {
        (MetricsHandle::disabled(), None)
    };
    let (min, max) = workload.pool_bounds();
    let cluster = ClusterHandle::new(ResourceManager::new(ClusterConfig {
        nodes: max,
        provisioning: LatencyModel::instant(),
        ..ClusterConfig::default()
    }));
    let deps = PoolDeps {
        cluster: cluster.clone(),
        net: server.clone() as Arc<dyn Host>,
        store: Arc::clone(&store),
        clock: Arc::clone(&clock),
        trace: TraceHandle::disabled(),
        metrics,
    };
    let ti = Instant::now();
    let pool = ElasticPool::instantiate(
        workload.config(),
        Arc::new(move || workload.service()),
        deps,
        None,
    )
    .map_err(|e| format!("instantiate: {e}"))?;
    if !wait_until(Duration::from_secs(10), || {
        pool.size() >= min && pool.members().len() >= min as usize
    }) {
        return Err(format!("pool did not reach {min} members"));
    }
    let instantiate_s = ti.elapsed().as_secs_f64();

    let (ep, mailbox) = client.open();
    let mut stub = Stub::connect(
        client.clone() as Arc<dyn Network>,
        ep,
        mailbox,
        pool.sentinel(),
        ClientLb::Random { seed },
        Arc::clone(&clock),
    )
    .map_err(|e| format!("connect: {e}"))?;
    let config = workload.config();
    stub.set_semantics(config.semantics().clone());
    stub.set_sharding(config.sharding().clone());
    stub.set_reply_timeout(workload.budget());
    stub.set_invocation_budget(workload.budget());
    let learned = wait_until(Duration::from_secs(10), || {
        if stub.members().len() < min as usize {
            let _ = stub.refresh_members();
        }
        stub.members().len() >= min as usize
    });
    if !learned {
        return Err(format!(
            "stub learned {} of {min} members",
            stub.members().len()
        ));
    }

    let (paths, initial) = if workload == Workload::DcsKeyed {
        dcs_populate(&mut stub, seed)?
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Deployment {
        workload,
        server,
        client,
        pool,
        stub,
        cluster,
        store,
        registry,
        clock,
        paths,
        initial,
        instantiate_s,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// Creates the DCS roots `/r0../r255` with seeded payloads, pipelined
/// like the load itself. Returns the paths and their payloads.
fn dcs_populate(stub: &mut Stub, seed: u64) -> Result<(Vec<String>, Vec<Vec<u8>>), String> {
    let mut rng = Rng::new(seed, "dcs-initial");
    let paths: Vec<String> = (0..DCS_ROOTS).map(|k| format!("/r{k}")).collect();
    let initial: Vec<Vec<u8>> = paths
        .iter()
        .map(|_| schedule::payload(&mut rng, DCS_PAYLOAD))
        .collect();
    let mut pending = std::collections::HashSet::new();
    for (path, data) in paths.iter().zip(&initial) {
        let id = stub
            .invoke_begin("create", &(path, data))
            .map_err(|e| format!("create {path}: {e}"))?;
        pending.insert(id);
    }
    let end = Instant::now() + Duration::from_secs(10);
    while !pending.is_empty() && Instant::now() < end {
        for (id, result) in stub.drain_completed() {
            result.map_err(|e| format!("create: {e}"))?;
            pending.remove(&id);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    if pending.is_empty() {
        Ok((paths, initial))
    } else {
        Err(format!("{} creates did not finish", pending.len()))
    }
}

impl Deployment {
    /// A load generator over this deployment's stub.
    pub fn generator<'a>(
        &'a mut self,
        window: usize,
        spans: Option<&'a mut Spans>,
    ) -> (Generator<'a>, &'a ElasticPool) {
        let drain =
            Duration::from_micros(self.workload.budget().as_micros()) + Duration::from_secs(2);
        (
            Generator {
                stub: &mut self.stub,
                paths: &self.paths,
                window,
                give_up_at: usize::MAX,
                drain,
                spans,
            },
            &self.pool,
        )
    }

    /// The consistent-hash ring the pool routes keyed calls by, rebuilt
    /// from the sentinel's `PoolInfo` as a stub would.
    pub fn ring(&self) -> Result<ShardRing, String> {
        let (ep, mailbox) = self.client.open();
        let info = self.ask_pool_info(ep, &mailbox);
        self.client.close(ep);
        let (members, uids) = info?;
        let pairs: Vec<(u64, EndpointId)> = uids.into_iter().zip(members).collect();
        Ok(ShardRing::from_members(&pairs))
    }

    fn ask_pool_info(
        &self,
        ep: EndpointId,
        mailbox: &Mailbox,
    ) -> Result<(Vec<EndpointId>, Vec<u64>), String> {
        self.client
            .send(
                ep,
                self.pool.sentinel(),
                RmiMessage::PoolInfoRequest.encode(),
            )
            .map_err(|e| format!("send PoolInfoRequest: {e:?}"))?;
        let end = Instant::now() + Duration::from_secs(2);
        while Instant::now() < end {
            let Ok(d) = mailbox.recv_timeout(Duration::from_millis(100)) else {
                continue;
            };
            if let Ok(RmiMessage::PoolInfo { members, uids, .. }) = RmiMessage::decode(&d.payload) {
                return Ok((members, uids));
            }
        }
        Err("no PoolInfo from the sentinel".to_string())
    }

    /// DCS read-back: every root must hold its last acknowledged write, or
    /// its initial payload when never written. Roots whose last write did
    /// not end acknowledged are skipped. Returns `(checked, skipped)`.
    pub fn dcs_read_back(
        &mut self,
        writes: &[(u16, Vec<u8>, Status)],
    ) -> Result<(usize, usize), String> {
        let mut expected: Vec<Option<&[u8]>> =
            self.initial.iter().map(|d| Some(d.as_slice())).collect();
        for (root, data, status) in writes {
            expected[*root as usize] = (*status == Status::Ok).then_some(data.as_slice());
        }
        let mut checked = 0;
        let mut skipped = 0;
        for (root, want) in expected.iter().enumerate() {
            let Some(want) = want else {
                skipped += 1;
                continue;
            };
            let got: Option<ZNode> = self
                .stub
                .invoke("get", &self.paths[root])
                .map_err(|e| format!("read-back get {}: {e}", self.paths[root]))?;
            match got {
                Some(node) if node.data == *want => checked += 1,
                Some(_) => {
                    return Err(format!(
                        "{} does not hold its last acknowledged write",
                        self.paths[root]
                    ))
                }
                None => return Err(format!("{} vanished", self.paths[root])),
            }
        }
        Ok((checked, skipped))
    }

    /// Waits for the elastic pool to settle back at its minimum with no
    /// leaked slices. Returns the final `(size, slices in use)`.
    pub fn quiesce(&self, limit: Duration) -> Result<(u32, usize), String> {
        let min = self.workload.pool_bounds().0;
        let settled = || {
            let size = self.pool.size();
            (size, self.cluster.slices_in_use())
        };
        if wait_until(limit, || {
            let (size, slices) = settled();
            size == min && slices == size as usize
        }) {
            Ok(settled())
        } else {
            let (size, slices) = settled();
            Err(format!(
                "pool did not quiesce within {limit:?}: size {size} (min {min}), slices in use {slices}"
            ))
        }
    }

    /// Stops the pool and both hosts.
    pub fn shutdown(mut self) {
        self.pool.shutdown();
        self.server.shutdown();
        self.client.shutdown();
    }
}

/// The elastic-step schedule: `(rate, share of the run)` per step.
pub const STEPS: [(f64, f64); 3] = [(600.0, 0.2), (2_400.0, 0.45), (300.0, 0.35)];

/// The stepped schedule over `secs` seconds, and the offset of the load
/// step (start of the 2400/s segment), nanoseconds.
pub fn step_schedule(seed: u64, label: &str, secs: f64) -> (Vec<Arrival>, u64) {
    let mut out = Vec::new();
    let mut offset = 0u64;
    let mut step_at = 0;
    let mut ops = Workload::ElasticStep.ops(seed, &format!("{label}-ops"));
    for (i, (rate, share)) in STEPS.iter().enumerate() {
        let len = (secs * share * 1e9) as u64;
        if i == 1 {
            step_at = offset;
        }
        for mut a in schedule::open_loop(seed, &format!("{label}-{i}"), *rate, len, ops.as_mut()) {
            a.due_ns += offset;
            out.push(a);
        }
        offset += len;
    }
    (out, step_at)
}

/// Members the 2400/s step needs at the configured service time.
pub fn step_needs() -> u32 {
    (STEPS[1].0 * WORK_SERVICE.as_secs_f64()).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in [Workload::EchoTcp, Workload::DcsKeyed, Workload::ElasticStep] {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn step_schedule_is_seeded_and_stepped() {
        let (a, step_at) = step_schedule(3, "s", 2.0);
        assert_eq!(a, step_schedule(3, "s", 2.0).0);
        assert_ne!(a, step_schedule(4, "s", 2.0).0);
        assert_eq!(step_at, 400_000_000);
        let in_step = a
            .iter()
            .filter(|x| (400_000_000..1_300_000_000).contains(&x.due_ns))
            .count();
        // 2400/s for 0.9 s.
        assert!((1_900..2_450).contains(&in_step), "{in_step}");
        assert_eq!(step_needs(), 3);
    }
}
