//! Isolated per-layer costs: each layer's public functions replayed on the
//! benchmark thread on the workload's own request and response shapes,
//! timed from outside.

use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::{Duration, Instant};

use elasticrmi::{
    InvocationContext, ReplyCache, ReplyCacheConfig, RmiMessage, ServiceContext, ShardRing,
    Skeleton,
};
use erm_apps::dcs::ZNode;
use erm_kvstore::{Store, StoreConfig};
use erm_metrics::TraceHandle;
use erm_sim::{SharedClock, SimDuration, SystemClock};
use erm_transport::{to_bytes, EndpointId, Host, InProcNetwork, Network, TcpHost};

use crate::alloc;
use crate::schedule::Op;
use crate::spans::Spans;
use crate::stats::quantile;
use crate::workloads::{BenchService, Workload, DCS_PAYLOAD};

/// One request as the stub would send it, with its reply.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Remote method.
    pub method: &'static str,
    /// Encoded arguments.
    pub args: Vec<u8>,
    /// Encoded result.
    pub reply: Vec<u8>,
    /// The `Request` frame payload.
    pub request: RmiMessage,
    /// The `Response` frame payload.
    pub response: RmiMessage,
}

/// The request/response shapes of `ops`.
pub fn shapes(workload: Workload, ops: &[Op], paths: &[String]) -> Vec<Shape> {
    let config = workload.config();
    let clock = SystemClock::new();
    let now = erm_sim::Clock::now(&clock);
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let enc = |r: Result<Vec<u8>, erm_transport::WireError>| r.expect("encodable");
            let (method, args, reply) = match op {
                Op::Echo(n) => ("echo", enc(to_bytes(n)), enc(to_bytes(n))),
                Op::Work(n) => ("work", enc(to_bytes(n)), enc(to_bytes(n))),
                Op::Get(r) => {
                    let node = Some(ZNode {
                        data: vec![0xa5; DCS_PAYLOAD],
                        created_zxid: 1,
                        modified_zxid: i as u64 + 1,
                    });
                    (
                        "get",
                        enc(to_bytes(&paths[*r as usize])),
                        enc(to_bytes(&node)),
                    )
                }
                Op::Set { root, data } => (
                    "set",
                    enc(to_bytes(&(&paths[*root as usize], data))),
                    enc(to_bytes(&(i as u64 + 1))),
                ),
            };
            let context = InvocationContext {
                id: i as u64,
                deadline: now + SimDuration::from_secs(2),
                attempt: 1,
                origin: EndpointId((1 << 32) + 1),
                semantics: config.semantics().semantics_for(method),
                routing_key: config.sharding().routing_key_for(method, &args),
            };
            Shape {
                method,
                request: RmiMessage::Request {
                    call: i as u64,
                    context,
                    method: method.to_string(),
                    args: args.clone(),
                },
                response: RmiMessage::Response {
                    call: i as u64,
                    outcome: Ok(reply.clone()),
                    replayed: false,
                },
                args,
                reply,
            }
        })
        .collect()
}

/// Mean wall nanoseconds and allocations per call of `f` over `items`,
/// cycled for about `budget`. One span per pass over `items`.
pub fn per_call<T>(
    spans: &mut Spans,
    layer: &'static str,
    call: &'static str,
    budget: Duration,
    items: &[T],
    mut f: impl FnMut(&T),
) -> (f64, f64) {
    assert!(!items.is_empty());
    let (t0, a0) = (Instant::now(), alloc::thread_allocs());
    let mut calls = 0u64;
    while t0.elapsed() < budget {
        let t = Instant::now();
        for item in items {
            f(item);
        }
        spans.record(layer, call, u64::MAX, t, Instant::now(), items.len() as u32);
        calls += items.len() as u64;
    }
    let ns = t0.elapsed().as_nanos() as f64 / calls as f64;
    (ns, (alloc::thread_allocs() - a0) as f64 / calls as f64)
}

/// Costs of a standalone skeleton fed the workload's requests:
/// `(ingest ns, step ns)` per request, spans for the first pass. elastic-step's 1 ms sleep is left
/// out so the number is the skeleton's own work.
pub fn skeleton_costs(
    workload: Workload,
    shapes: &[Shape],
    paths: &[String],
    spans: &mut Spans,
    budget: Duration,
) -> (f64, f64) {
    let net = Arc::new(InProcNetwork::new());
    let (endpoint, mailbox) = net.open();
    let (ctl, _ctl_mailbox) = net.open();
    let (client, replies) = net.open();
    let clock: SharedClock = Arc::new(SystemClock::new());
    let config = workload.config();
    let ctx = ServiceContext::new(
        Arc::new(Store::new(StoreConfig::default())),
        config.class_name(),
        0,
        Arc::clone(&clock),
        Arc::new(AtomicU32::new(1)),
    );
    let service = match workload {
        Workload::ElasticStep => Box::new(BenchService {
            work: Duration::ZERO,
        }),
        _ => workload.service(),
    };
    let mut skeleton = Skeleton::new(
        0,
        endpoint,
        ctl,
        net.clone() as Arc<dyn Network>,
        Arc::clone(&clock),
        service,
        ctx,
        TraceHandle::disabled(),
        config.admission_config(),
    );
    let mut next_id = 0u64;
    let mut request = |method: &str, args: &[u8]| {
        next_id += 1;
        let msg = RmiMessage::Request {
            call: next_id,
            context: InvocationContext {
                id: next_id,
                deadline: clock.now() + SimDuration::from_secs(2),
                attempt: 1,
                origin: client,
                semantics: config.semantics().semantics_for(method),
                routing_key: None,
            },
            method: method.to_string(),
            args: args.to_vec(),
        };
        (next_id, msg)
    };
    for path in paths {
        let args = to_bytes(&(path, vec![0u8; DCS_PAYLOAD])).expect("encodable");
        skeleton.handle(client, request("create", &args).1, &mailbox);
    }
    while replies.try_recv().is_ok() {}

    let (mut ingest_ns, mut step_ns, mut n) = (0u128, 0u128, 0u64);
    let t0 = Instant::now();
    'outer: loop {
        for s in shapes {
            let (id, msg) = request(s.method, &s.args);
            let t = Instant::now();
            skeleton.ingest(client, msg, &mailbox);
            let t1 = Instant::now();
            while skeleton.step() {}
            let t2 = Instant::now();
            // One pass of spans is enough to see the shape; the means
            // below cover every pass.
            if n < shapes.len() as u64 {
                spans.record("skeleton", "ingest", id, t, t1, 1);
                spans.record("skeleton", "step", id, t1, t2, 1);
            }
            ingest_ns += (t1 - t).as_nanos();
            step_ns += (t2 - t1).as_nanos();
            n += 1;
            while replies.try_recv().is_ok() {}
            if t0.elapsed() > budget {
                break 'outer;
            }
        }
    }
    (ingest_ns as f64 / n as f64, step_ns as f64 / n as f64)
}

/// `ReplyCache::begin` + `complete` per invocation at `reply_len` bytes.
pub fn reply_cache_cost(reply_len: usize, spans: &mut Spans, budget: Duration) -> f64 {
    let mut cache: ReplyCache<Vec<u8>> = ReplyCache::new(ReplyCacheConfig::default());
    let clock = SystemClock::new();
    let origin = EndpointId((1 << 32) + 1);
    let reply = vec![0x5a; reply_len];
    let mut id = 0u64;
    let ids: Vec<u64> = (0..256).collect();
    per_call(spans, "semantics", "begin_complete", budget, &ids, |_| {
        id += 1;
        let deadline = erm_sim::Clock::now(&clock) + SimDuration::from_secs(2);
        cache.begin(origin, id, deadline);
        cache.complete(origin, id, reply.clone(), reply_len);
    })
    .0
}

/// One-way latency over a fresh pair of loopback `TcpHost`s: `send` on one
/// until the mailbox receive on the other. Returns `(p50 us, p99 us)`.
pub fn oneway(bytes: usize, samples: usize, spans: &mut Spans) -> Result<(f64, f64), String> {
    let io = |e: std::io::Error| format!("bind loopback: {e}");
    let a = TcpHost::bind("127.0.0.1:0", 0).map_err(io)?;
    let b = TcpHost::bind("127.0.0.1:0", 1).map_err(io)?;
    a.register_host(1, b.local_addr());
    let (from, _from_mailbox) = a.open_endpoint();
    let (to, mailbox) = b.open_endpoint();
    let mut lat = Vec::with_capacity(samples);
    for i in 0..samples + 100 {
        let payload = vec![0x3c; bytes];
        let t = Instant::now();
        a.send(from, to, payload)
            .map_err(|e| format!("send: {e:?}"))?;
        mailbox
            .recv_timeout(Duration::from_secs(2))
            .map_err(|e| format!("recv: {e:?}"))?;
        let end = Instant::now();
        if i >= 100 {
            spans.record("transport", "send_recv", u64::MAX, t, end, 1);
            lat.push((end - t).as_nanos() as f64 / 1_000.0);
        }
    }
    a.shutdown();
    b.shutdown();
    Ok((quantile(&mut lat, 0.5), quantile(&mut lat, 0.99)))
}

/// Owner lookup cost on `ring` for the routing keys of `shapes`, if any.
pub fn owner_cost(
    ring: &ShardRing,
    shapes: &[Shape],
    spans: &mut Spans,
    budget: Duration,
) -> Option<f64> {
    let keys: Vec<u64> = shapes
        .iter()
        .filter_map(|s| match &s.request {
            RmiMessage::Request { context, .. } => context.routing_key,
            _ => None,
        })
        .collect();
    if keys.is_empty() || ring.is_empty() {
        return None;
    }
    Some(
        per_call(spans, "shard", "owner", budget, &keys, |k| {
            std::hint::black_box(ring.owner(*k));
        })
        .0,
    )
}
