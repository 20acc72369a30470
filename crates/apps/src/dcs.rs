//! DCS: a distributed coordination service on ElasticRMI (paper §5.2).
//!
//! "DCS is a distributed co-ordination service for datacenter applications,
//! similar to Chubby and Apache Zookeeper. DCS has a hierarchical name space
//! which can be used for distributed configuration and synchronization.
//! Updates are totally ordered."
//!
//! The namespace is a tree of slash-separated paths. Every mutation is
//! stamped with a **zxid** drawn from a shared atomic sequencer, giving a
//! single total order of updates across the whole pool, observable through
//! each node's `modified_zxid`.
//!
//! Remote methods:
//!
//! * `create(path, data)` — create a node (parent must exist; `/` is
//!   implicit),
//! * `set(path, data)` / `get(path)` / `delete(path)`,
//! * `exists(path)`, `children(path)` (sorted),
//! * `sync()` — returns the current zxid high-water mark.
//!
//! Delete requires the node to be childless, as in ZooKeeper. Watch-style
//! change polling is available through `changes_since(zxid)`, backed by a
//! bounded, totally ordered changelog.
//!
//! The changelog is slotted: the entry `(zxid, op, path)` of update `zxid`
//! lives in its own store cell, `DCS$changelog/{zxid % 1000}`, written
//! with one `put` inside the update's class-locked critical section. The
//! sequencer hands out gap-free zxids under that same lock, so the live
//! slots always hold exactly the last 1000 updates, and each new update
//! overwrites the oldest one. An update therefore costs one small write
//! however full the log is.
//!
//! `changes_since` takes no lock, so writers may overwrite slots while it
//! scans them. It first reads the zxid high-water mark `head`, keeps only
//! entries in `(head - 1000, head]` after its argument, sorts them by zxid
//! and returns the unbroken run that ends at the newest one. Every reply is
//! thus a gap-free run of the total order; when its first zxid is not the
//! caller's cursor plus one, the entries in between have been evicted and
//! the caller should resync.
//!
//! Sessions and ephemeral nodes (the Chubby/ZooKeeper feature the paper's
//! DCS alludes to) are supported as an extension: `create_session(ttl_secs)`
//! returns a session id kept alive by `heartbeat`; `create_ephemeral` ties a
//! node to a session, and `expire_sessions` reaps nodes of lapsed sessions.

use elasticrmi::{
    decode_args, encode_result, ElasticService, KeyExtractor, MethodCallStats, RemoteError,
    ServiceContext, ShardingTable,
};
use serde::{Deserialize, Serialize};

use crate::model::{demand_vote, AppKind};

/// A node in the hierarchical namespace, as returned by `get`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZNode {
    /// The node's payload.
    pub data: Vec<u8>,
    /// zxid of the update that created the node.
    pub created_zxid: u64,
    /// zxid of the most recent update to the node.
    pub modified_zxid: u64,
}

/// One changelog entry: the update's zxid, its operation (`create`, `set`
/// or `delete`) and the path it touched.
type Change = (u64, String, String);

/// The elastic coordination service.
#[derive(Debug, Default)]
pub struct Dcs {
    updates_here: u64,
}

impl Dcs {
    /// Creates a DCS server instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// The elastic class name.
    pub const CLASS: &'static str = "DCS";

    const TREE_PREFIX: &'static str = "dcs!";

    /// The key-affinity table for a sharded coordination pool: namespace
    /// methods key on the path's *root component*, so a whole subtree
    /// (`/locks/...`, `/leases/...`) is owned by one member — `children`
    /// sees every sibling locally and subtree-local mutations never cross
    /// members. Session/zxid methods stay unkeyed: the zxid sequencer is a
    /// single pool-global atomic, and `create_ephemeral` carries its session
    /// id first, ahead of the path.
    pub fn sharding() -> ShardingTable {
        ShardingTable::new()
            .method("create", KeyExtractor::FirstPathRoot)
            .method("set", KeyExtractor::FirstPathRoot)
            .method("get", KeyExtractor::FirstPathRoot)
            .method("exists", KeyExtractor::FirstPathRoot)
            .method("children", KeyExtractor::FirstPathRoot)
            .method("delete", KeyExtractor::FirstPathRoot)
    }

    fn validate_path(path: &str) -> Result<(), RemoteError> {
        let ok = path.starts_with('/')
            && !path.contains("//")
            && (path == "/" || !path.ends_with('/'))
            && path.len() <= 512;
        if ok {
            Ok(())
        } else {
            Err(RemoteError::new("InvalidPath", format!("{path:?}")))
        }
    }

    fn node_key(path: &str) -> String {
        format!("{}{path}", Self::TREE_PREFIX)
    }

    fn parent_of(path: &str) -> Option<&str> {
        if path == "/" {
            return None;
        }
        match path.rfind('/') {
            Some(0) => Some("/"),
            Some(i) => Some(&path[..i]),
            None => None,
        }
    }

    /// Number of changelog slots: the log keeps the last this many updates.
    const CHANGELOG_SLOTS: u64 = 1_000;

    /// Store-key prefix of the changelog slots, `DCS$changelog/`.
    fn changelog_prefix() -> String {
        elasticrmi::field_key(Self::CLASS, "changelog/")
    }

    /// Records update `zxid` in its changelog slot (the data source for
    /// ZooKeeper-style watch polling), overwriting the entry 1000 updates
    /// older. Callers hold the class lock that stamped `zxid`.
    fn log_change(ctx: &ServiceContext, zxid: u64, op: &str, path: &str) {
        let key = format!(
            "{}{}",
            Self::changelog_prefix(),
            zxid % Self::CHANGELOG_SLOTS
        );
        let entry = erm_transport::to_bytes(&(zxid, op, path)).expect("log entry encodes");
        ctx.store().put(&key, entry);
    }

    /// The logged updates after `since`, in zxid order, as one unbroken
    /// run of zxids.
    ///
    /// The scan holds no lock. Reading `head` first bounds it to updates
    /// already stamped, and an entry whose slot a writer overwrote during
    /// the scan is missing from what was read. Only the run of consecutive
    /// zxids ending at the newest entry read is returned, so such a hole
    /// cuts the reply short instead of skipping an update.
    fn changes_since(ctx: &ServiceContext, since: u64) -> Result<Vec<Change>, RemoteError> {
        let head = ctx.shared::<u64>("zxid").get().unwrap_or(0);
        let after = since.max(head.saturating_sub(Self::CHANGELOG_SLOTS));
        let mut changes = Vec::new();
        for key in ctx.store().keys_with_prefix(&Self::changelog_prefix()) {
            let Some(cell) = ctx.store().get(&key) else {
                continue;
            };
            let change: Change = erm_transport::from_bytes(&cell.value)
                .map_err(|e| RemoteError::new("CorruptChangelog", e.to_string()))?;
            if (after + 1..=head).contains(&change.0) {
                changes.push(change);
            }
        }
        changes.sort_unstable_by_key(|change| change.0);
        let run_start = changes
            .windows(2)
            .rposition(|pair| pair[1].0 != pair[0].0 + 1)
            .map_or(0, |hole| hole + 1);
        changes.drain(..run_start);
        Ok(changes)
    }

    fn next_zxid(ctx: &ServiceContext) -> u64 {
        ctx.shared::<u64>("zxid").update(
            || 0,
            |z| {
                *z += 1;
                *z
            },
        )
    }

    fn session_key(id: u64) -> String {
        format!("dcs-session/{id}")
    }

    fn ephemeral_index_key(id: u64) -> String {
        format!("dcs-ephemeral/{id}")
    }

    fn node_exists(ctx: &ServiceContext, path: &str) -> bool {
        path == "/" || ctx.store().get(&Self::node_key(path)).is_some()
    }

    fn read_node(ctx: &ServiceContext, path: &str) -> Result<Option<ZNode>, RemoteError> {
        match ctx.store().get(&Self::node_key(path)) {
            Some(v) => {
                Ok(Some(erm_transport::from_bytes(&v.value).map_err(|e| {
                    RemoteError::new("CorruptNode", e.to_string())
                })?))
            }
            None => Ok(None),
        }
    }

    fn write_node(ctx: &ServiceContext, path: &str, node: &ZNode) {
        let bytes = erm_transport::to_bytes(node).expect("znode encodes");
        ctx.store().put(&Self::node_key(path), bytes);
    }

    fn children_of(ctx: &ServiceContext, path: &str) -> Vec<String> {
        let prefix = if path == "/" {
            format!("{}/", Self::TREE_PREFIX)
        } else {
            format!("{}{path}/", Self::TREE_PREFIX)
        };
        ctx.store()
            .keys_with_prefix(&prefix)
            .into_iter()
            .filter(|k| !k[prefix.len()..].contains('/')) // direct children only
            .map(|k| k[Self::TREE_PREFIX.len()..].to_string())
            .collect()
    }
}

impl ElasticService for Dcs {
    fn dispatch(
        &mut self,
        method: &str,
        args: &[u8],
        ctx: &mut ServiceContext,
    ) -> Result<Vec<u8>, RemoteError> {
        match method {
            "create" => {
                let (path, data): (String, Vec<u8>) = decode_args(method, args)?;
                Self::validate_path(&path)?;
                if path == "/" {
                    return Err(RemoteError::new("NodeExists", "/"));
                }
                let parent = Self::parent_of(&path).expect("non-root has a parent");
                // Creation is serialized per class so parent checks and the
                // zxid stamp are atomic (a synchronized elastic method).
                let result = ctx.synchronized(|| {
                    if !Self::node_exists(ctx, parent) {
                        return Err(RemoteError::new("NoParent", parent.to_string()));
                    }
                    if Self::node_exists(ctx, &path) {
                        return Err(RemoteError::new("NodeExists", path.clone()));
                    }
                    let zxid = Self::next_zxid(ctx);
                    Self::write_node(
                        ctx,
                        &path,
                        &ZNode {
                            data: data.clone(),
                            created_zxid: zxid,
                            modified_zxid: zxid,
                        },
                    );
                    Self::log_change(ctx, zxid, "create", &path);
                    Ok(zxid)
                });
                self.updates_here += 1;
                encode_result(&result?)
            }
            "set" => {
                let (path, data): (String, Vec<u8>) = decode_args(method, args)?;
                Self::validate_path(&path)?;
                let result = ctx.synchronized(|| {
                    let Some(mut node) = Self::read_node(ctx, &path)? else {
                        return Err(RemoteError::new("NoNode", path.clone()));
                    };
                    let zxid = Self::next_zxid(ctx);
                    node.data = data.clone();
                    node.modified_zxid = zxid;
                    Self::write_node(ctx, &path, &node);
                    Self::log_change(ctx, zxid, "set", &path);
                    Ok(zxid)
                });
                self.updates_here += 1;
                encode_result(&result?)
            }
            "get" => {
                let path: String = decode_args(method, args)?;
                Self::validate_path(&path)?;
                encode_result(&Self::read_node(ctx, &path)?)
            }
            "exists" => {
                let path: String = decode_args(method, args)?;
                Self::validate_path(&path)?;
                encode_result(&Self::node_exists(ctx, &path))
            }
            "children" => {
                let path: String = decode_args(method, args)?;
                Self::validate_path(&path)?;
                if !Self::node_exists(ctx, &path) {
                    return Err(RemoteError::new("NoNode", path));
                }
                encode_result(&Self::children_of(ctx, &path))
            }
            "delete" => {
                let path: String = decode_args(method, args)?;
                Self::validate_path(&path)?;
                if path == "/" {
                    return Err(RemoteError::new("InvalidPath", "cannot delete root"));
                }
                let result = ctx.synchronized(|| {
                    if !Self::node_exists(ctx, &path) {
                        return Err(RemoteError::new("NoNode", path.clone()));
                    }
                    if !Self::children_of(ctx, &path).is_empty() {
                        return Err(RemoteError::new("NotEmpty", path.clone()));
                    }
                    let zxid = Self::next_zxid(ctx);
                    ctx.store().delete(&Self::node_key(&path));
                    Self::log_change(ctx, zxid, "delete", &path);
                    Ok(zxid)
                });
                self.updates_here += 1;
                encode_result(&result?)
            }
            "create_session" => {
                let ttl_secs: u64 = decode_args(method, args)?;
                if ttl_secs == 0 {
                    return Err(RemoteError::new("InvalidSession", "zero ttl"));
                }
                let id = ctx.shared::<u64>("next_session").update(
                    || 0,
                    |n| {
                        *n += 1;
                        *n
                    },
                );
                let deadline = ctx.now().as_micros() + ttl_secs * 1_000_000;
                ctx.store().put(
                    &Self::session_key(id),
                    erm_transport::to_bytes(&(deadline, ttl_secs)).expect("session record encodes"),
                );
                encode_result(&id)
            }
            "heartbeat" => {
                let id: u64 = decode_args(method, args)?;
                let Some(cell) = ctx.store().get(&Self::session_key(id)) else {
                    return Err(RemoteError::new("NoSession", id.to_string()));
                };
                let (_, ttl_secs): (u64, u64) = erm_transport::from_bytes(&cell.value)
                    .map_err(|e| RemoteError::new("CorruptSession", e.to_string()))?;
                let deadline = ctx.now().as_micros() + ttl_secs * 1_000_000;
                ctx.store().put(
                    &Self::session_key(id),
                    erm_transport::to_bytes(&(deadline, ttl_secs)).expect("session record encodes"),
                );
                encode_result(&deadline)
            }
            "create_ephemeral" => {
                let (session, path, data): (u64, String, Vec<u8>) = decode_args(method, args)?;
                Self::validate_path(&path)?;
                if ctx.store().get(&Self::session_key(session)).is_none() {
                    return Err(RemoteError::new("NoSession", session.to_string()));
                }
                // Create exactly like a normal node...
                let created = self.dispatch(
                    "create",
                    &erm_transport::to_bytes(&(path.clone(), data)).expect("args encode"),
                    ctx,
                )?;
                // ...then index it under its owning session.
                ctx.shared::<Vec<String>>(&format!("ephemeral/{session}"))
                    .update(Vec::new, |paths| paths.push(path.clone()));
                ctx.store().put(
                    &Self::ephemeral_index_key(session),
                    Vec::new(), // marker: session owns ephemerals
                );
                Ok(created)
            }
            "expire_sessions" => {
                // Reaps every session whose deadline passed, deleting its
                // ephemeral nodes (children-last so deletes succeed).
                let now = ctx.now().as_micros();
                let mut expired = 0u32;
                let sessions = ctx.store().keys_with_prefix("dcs-session/");
                for key in sessions {
                    let Some(cell) = ctx.store().get(&key) else {
                        continue;
                    };
                    let Ok((deadline, _ttl)) = erm_transport::from_bytes::<(u64, u64)>(&cell.value)
                    else {
                        continue;
                    };
                    if deadline > now {
                        continue;
                    }
                    let id: u64 = key["dcs-session/".len()..].parse().unwrap_or(0);
                    let owned = ctx
                        .shared::<Vec<String>>(&format!("ephemeral/{id}"))
                        .get()
                        .unwrap_or_default();
                    let mut sorted = owned;
                    sorted.sort_by_key(|p| std::cmp::Reverse(p.len()));
                    for path in sorted {
                        let _ = self.dispatch(
                            "delete",
                            &erm_transport::to_bytes(&path).expect("path encodes"),
                            ctx,
                        );
                    }
                    ctx.store().delete(&key);
                    ctx.store().delete(&Self::ephemeral_index_key(id));
                    ctx.store().delete(&format!("DCS$ephemeral/{id}"));
                    expired += 1;
                }
                encode_result(&expired)
            }
            "changes_since" => {
                // Watch polling: every update after `zxid`, in total order.
                // Returns (zxid, op, path) triples; the log is bounded, so a
                // far-behind client may miss entries (it should resync).
                let since: u64 = decode_args(method, args)?;
                encode_result(&Self::changes_since(ctx, since)?)
            }
            "sync" => {
                let zxid = ctx.shared::<u64>("zxid").get().unwrap_or(0);
                encode_result(&zxid)
            }
            other => Err(RemoteError::no_such_method(other)),
        }
    }

    fn change_pool_size(&mut self, stats: &MethodCallStats, ctx: &mut ServiceContext) -> i32 {
        let model = AppKind::Dcs.model();
        let update_rate: f64 = ["create", "set", "delete"]
            .iter()
            .map(|m| stats.rate(m))
            .sum();
        let pool_rate = update_rate * f64::from(ctx.pool_size().max(1));
        demand_vote(pool_rate, model.per_object_capacity, ctx.pool_size(), 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_kvstore::{Store, StoreConfig};
    use erm_sim::VirtualClock;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn member(store: &Arc<Store>, uid: u64) -> (Dcs, ServiceContext) {
        (
            Dcs::new(),
            ServiceContext::new(
                Arc::clone(store),
                Dcs::CLASS,
                uid,
                Arc::new(VirtualClock::new()),
                Arc::new(AtomicU32::new(3)),
            ),
        )
    }

    fn fresh() -> (Dcs, ServiceContext) {
        member(&Arc::new(Store::new(StoreConfig::default())), 0)
    }

    fn call<A: serde::Serialize, R: serde::de::DeserializeOwned>(
        svc: &mut Dcs,
        ctx: &mut ServiceContext,
        method: &str,
        args: &A,
    ) -> Result<R, RemoteError> {
        let bytes = svc.dispatch(method, &erm_transport::to_bytes(args).unwrap(), ctx)?;
        Ok(erm_transport::from_bytes(&bytes).unwrap())
    }

    #[test]
    fn create_get_roundtrip() {
        let (mut svc, mut ctx) = fresh();
        let zxid: u64 = call(&mut svc, &mut ctx, "create", &("/cfg", b"x".to_vec())).unwrap();
        assert_eq!(zxid, 1);
        let node: Option<ZNode> = call(&mut svc, &mut ctx, "get", &"/cfg").unwrap();
        let node = node.unwrap();
        assert_eq!(node.data, b"x");
        assert_eq!(node.created_zxid, 1);
    }

    #[test]
    fn create_requires_parent() {
        let (mut svc, mut ctx) = fresh();
        let err =
            call::<_, u64>(&mut svc, &mut ctx, "create", &("/a/b", Vec::<u8>::new())).unwrap_err();
        assert_eq!(err.kind, "NoParent");
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/a", Vec::<u8>::new())).unwrap();
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/a/b", Vec::<u8>::new())).unwrap();
    }

    #[test]
    fn duplicate_create_rejected() {
        let (mut svc, mut ctx) = fresh();
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/x", Vec::<u8>::new())).unwrap();
        let err =
            call::<_, u64>(&mut svc, &mut ctx, "create", &("/x", Vec::<u8>::new())).unwrap_err();
        assert_eq!(err.kind, "NodeExists");
    }

    #[test]
    fn updates_are_totally_ordered() {
        let (mut svc, mut ctx) = fresh();
        let z1: u64 = call(&mut svc, &mut ctx, "create", &("/a", Vec::<u8>::new())).unwrap();
        let z2: u64 = call(&mut svc, &mut ctx, "create", &("/b", Vec::<u8>::new())).unwrap();
        let z3: u64 = call(&mut svc, &mut ctx, "set", &("/a", b"v".to_vec())).unwrap();
        assert!(z1 < z2 && z2 < z3, "zxids must strictly increase");
        let hw: u64 = call(&mut svc, &mut ctx, "sync", &()).unwrap();
        assert_eq!(hw, z3);
    }

    #[test]
    fn children_are_sorted_and_direct_only() {
        let (mut svc, mut ctx) = fresh();
        for p in ["/svc", "/svc/b", "/svc/a", "/svc/a/deep"] {
            let _: u64 = call(&mut svc, &mut ctx, "create", &(p, Vec::<u8>::new())).unwrap();
        }
        let kids: Vec<String> = call(&mut svc, &mut ctx, "children", &"/svc").unwrap();
        assert_eq!(kids, vec!["/svc/a", "/svc/b"]);
        let root_kids: Vec<String> = call(&mut svc, &mut ctx, "children", &"/").unwrap();
        assert_eq!(root_kids, vec!["/svc"]);
    }

    #[test]
    fn delete_requires_empty_node() {
        let (mut svc, mut ctx) = fresh();
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/d", Vec::<u8>::new())).unwrap();
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/d/kid", Vec::<u8>::new())).unwrap();
        let err = call::<_, u64>(&mut svc, &mut ctx, "delete", &"/d").unwrap_err();
        assert_eq!(err.kind, "NotEmpty");
        let _: u64 = call(&mut svc, &mut ctx, "delete", &"/d/kid").unwrap();
        let _: u64 = call(&mut svc, &mut ctx, "delete", &"/d").unwrap();
        let exists: bool = call(&mut svc, &mut ctx, "exists", &"/d").unwrap();
        assert!(!exists);
    }

    #[test]
    fn invalid_paths_rejected() {
        let (mut svc, mut ctx) = fresh();
        for bad in ["", "no-slash", "/a//b", "/trailing/"] {
            let err = call::<_, Option<ZNode>>(&mut svc, &mut ctx, "get", &bad).unwrap_err();
            assert_eq!(err.kind, "InvalidPath", "path {bad:?}");
        }
    }

    #[test]
    fn set_on_missing_node_fails() {
        let (mut svc, mut ctx) = fresh();
        let err =
            call::<_, u64>(&mut svc, &mut ctx, "set", &("/ghost", b"x".to_vec())).unwrap_err();
        assert_eq!(err.kind, "NoNode");
    }

    #[test]
    fn zxids_are_unique_across_members() {
        // Concurrent updates through different pool members draw from one
        // sequencer: no duplicate zxids, the total order of the paper.
        let store = Arc::new(Store::new(StoreConfig::default()));
        let mut handles = Vec::new();
        for uid in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let (mut svc, mut ctx) = member(&store, uid);
                let mut zxids = Vec::new();
                for i in 0..50 {
                    let path = format!("/m{uid}-{i}");
                    let z: u64 = call(
                        &mut svc,
                        &mut ctx,
                        "create",
                        &(path.as_str(), Vec::<u8>::new()),
                    )
                    .unwrap();
                    zxids.push(z);
                }
                zxids
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate zxid would break total ordering");
        assert_eq!(*all.last().unwrap(), n as u64, "zxids are gap-free");
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use erm_kvstore::{Store, StoreConfig};
    use erm_sim::{SimDuration, VirtualClock};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    struct Rig {
        svc: Dcs,
        ctx: ServiceContext,
        clock: Arc<VirtualClock>,
    }

    fn rig() -> Rig {
        let clock = Arc::new(VirtualClock::new());
        Rig {
            svc: Dcs::new(),
            ctx: ServiceContext::new(
                Arc::new(Store::new(StoreConfig::default())),
                Dcs::CLASS,
                0,
                clock.clone(),
                Arc::new(AtomicU32::new(3)),
            ),
            clock,
        }
    }

    fn call<A: serde::Serialize, R: serde::de::DeserializeOwned>(
        r: &mut Rig,
        method: &str,
        args: &A,
    ) -> Result<R, RemoteError> {
        let bytes = r
            .svc
            .dispatch(method, &erm_transport::to_bytes(args).unwrap(), &mut r.ctx)?;
        Ok(erm_transport::from_bytes(&bytes).unwrap())
    }

    #[test]
    fn sessions_are_created_with_increasing_ids() {
        let mut r = rig();
        let a: u64 = call(&mut r, "create_session", &30u64).unwrap();
        let b: u64 = call(&mut r, "create_session", &30u64).unwrap();
        assert!(b > a);
    }

    #[test]
    fn zero_ttl_session_rejected() {
        let mut r = rig();
        let err = call::<_, u64>(&mut r, "create_session", &0u64).unwrap_err();
        assert_eq!(err.kind, "InvalidSession");
    }

    #[test]
    fn ephemeral_node_dies_with_its_session() {
        let mut r = rig();
        let session: u64 = call(&mut r, "create_session", &30u64).unwrap();
        let _: u64 = call(
            &mut r,
            "create_ephemeral",
            &(session, "/lock", b"me".to_vec()),
        )
        .unwrap();
        let exists: bool = call(&mut r, "exists", &"/lock").unwrap();
        assert!(exists);
        // Session lapses...
        r.clock.advance(SimDuration::from_secs(31));
        let expired: u32 = call(&mut r, "expire_sessions", &()).unwrap();
        assert_eq!(expired, 1);
        let exists: bool = call(&mut r, "exists", &"/lock").unwrap();
        assert!(!exists, "ephemeral node must be reaped with the session");
    }

    #[test]
    fn heartbeat_keeps_session_alive() {
        let mut r = rig();
        let session: u64 = call(&mut r, "create_session", &30u64).unwrap();
        let _: u64 = call(
            &mut r,
            "create_ephemeral",
            &(session, "/leader", Vec::<u8>::new()),
        )
        .unwrap();
        r.clock.advance(SimDuration::from_secs(20));
        let _: u64 = call(&mut r, "heartbeat", &session).unwrap();
        r.clock.advance(SimDuration::from_secs(20)); // 40s total, but renewed at 20
        let expired: u32 = call(&mut r, "expire_sessions", &()).unwrap();
        assert_eq!(expired, 0);
        let exists: bool = call(&mut r, "exists", &"/leader").unwrap();
        assert!(exists);
    }

    #[test]
    fn heartbeat_of_unknown_session_errors() {
        let mut r = rig();
        let err = call::<_, u64>(&mut r, "heartbeat", &99u64).unwrap_err();
        assert_eq!(err.kind, "NoSession");
    }

    #[test]
    fn ephemeral_on_dead_session_rejected() {
        let mut r = rig();
        let err = call::<_, u64>(
            &mut r,
            "create_ephemeral",
            &(404u64, "/x", Vec::<u8>::new()),
        )
        .unwrap_err();
        assert_eq!(err.kind, "NoSession");
    }

    #[test]
    fn ephemeral_trees_are_reaped_children_first() {
        let mut r = rig();
        let session: u64 = call(&mut r, "create_session", &10u64).unwrap();
        let _: u64 = call(
            &mut r,
            "create_ephemeral",
            &(session, "/svc", Vec::<u8>::new()),
        )
        .unwrap();
        let _: u64 = call(
            &mut r,
            "create_ephemeral",
            &(session, "/svc/a", Vec::<u8>::new()),
        )
        .unwrap();
        r.clock.advance(SimDuration::from_secs(11));
        let expired: u32 = call(&mut r, "expire_sessions", &()).unwrap();
        assert_eq!(expired, 1);
        let exists: bool = call(&mut r, "exists", &"/svc").unwrap();
        assert!(!exists, "parent deleted after its ephemeral child");
    }

    #[test]
    fn persistent_nodes_survive_session_expiry() {
        let mut r = rig();
        let session: u64 = call(&mut r, "create_session", &10u64).unwrap();
        let _: u64 = call(&mut r, "create", &("/durable", Vec::<u8>::new())).unwrap();
        let _: u64 = call(
            &mut r,
            "create_ephemeral",
            &(session, "/temp", Vec::<u8>::new()),
        )
        .unwrap();
        r.clock.advance(SimDuration::from_secs(11));
        let _: u32 = call(&mut r, "expire_sessions", &()).unwrap();
        let durable: bool = call(&mut r, "exists", &"/durable").unwrap();
        let temp: bool = call(&mut r, "exists", &"/temp").unwrap();
        assert!(durable && !temp);
    }
}

#[cfg(test)]
mod watch_tests {
    use super::*;
    use erm_kvstore::{Store, StoreConfig};
    use erm_sim::VirtualClock;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn fresh() -> (Dcs, ServiceContext) {
        (
            Dcs::new(),
            ServiceContext::new(
                Arc::new(Store::new(StoreConfig::default())),
                Dcs::CLASS,
                0,
                Arc::new(VirtualClock::new()),
                Arc::new(AtomicU32::new(3)),
            ),
        )
    }

    fn call<A: serde::Serialize, R: serde::de::DeserializeOwned>(
        svc: &mut Dcs,
        ctx: &mut ServiceContext,
        method: &str,
        args: &A,
    ) -> R {
        let bytes = svc
            .dispatch(method, &erm_transport::to_bytes(args).unwrap(), ctx)
            .unwrap();
        erm_transport::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn changes_since_returns_totally_ordered_updates() {
        let (mut svc, mut ctx) = fresh();
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/a", Vec::<u8>::new()));
        let z2: u64 = call(&mut svc, &mut ctx, "set", &("/a", b"v".to_vec()));
        let _: u64 = call(&mut svc, &mut ctx, "delete", &"/a");
        let all: Vec<(u64, String, String)> = call(&mut svc, &mut ctx, "changes_since", &0u64);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].1, "create");
        assert_eq!(all[1], (z2, "set".to_string(), "/a".to_string()));
        assert_eq!(all[2].1, "delete");
        for pair in all.windows(2) {
            assert!(pair[0].0 < pair[1].0, "zxids strictly increase");
        }
    }

    #[test]
    fn changes_since_filters_by_zxid() {
        let (mut svc, mut ctx) = fresh();
        let z1: u64 = call(&mut svc, &mut ctx, "create", &("/a", Vec::<u8>::new()));
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/b", Vec::<u8>::new()));
        let after: Vec<(u64, String, String)> = call(&mut svc, &mut ctx, "changes_since", &z1);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].2, "/b");
    }

    #[test]
    fn reads_do_not_appear_in_the_changelog() {
        let (mut svc, mut ctx) = fresh();
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/a", Vec::<u8>::new()));
        let _: Option<ZNode> = call(&mut svc, &mut ctx, "get", &"/a");
        let _: bool = call(&mut svc, &mut ctx, "exists", &"/a");
        let all: Vec<(u64, String, String)> = call(&mut svc, &mut ctx, "changes_since", &0u64);
        assert_eq!(all.len(), 1, "only the create is logged");
    }

    #[test]
    fn changelog_is_bounded() {
        let (mut svc, mut ctx) = fresh();
        for i in 0..1_100 {
            let _: u64 = call(
                &mut svc,
                &mut ctx,
                "create",
                &(format!("/n{i}"), Vec::<u8>::new()),
            );
        }
        let all: Vec<(u64, String, String)> = call(&mut svc, &mut ctx, "changes_since", &0u64);
        assert_eq!(all.len(), 1_000, "log capped at 1000 entries");
        assert_eq!(all[0].0, 101, "oldest entries evicted first");
    }

    #[test]
    fn sharding_table_makes_subtrees_shard_local() {
        let table = Dcs::sharding();
        assert!(table.is_enabled());
        let subtree_key = elasticrmi::hash_bytes(b"/locks");
        // Every namespace method on any node under /locks keys identically,
        // so the whole subtree lives on one member.
        let create = erm_transport::to_bytes(&("/locks/a", vec![1u8])).unwrap();
        let get = erm_transport::to_bytes(&"/locks/a/owner").unwrap();
        let children = erm_transport::to_bytes(&"/locks").unwrap();
        assert_eq!(table.routing_key_for("create", &create), Some(subtree_key));
        assert_eq!(table.routing_key_for("get", &get), Some(subtree_key));
        assert_eq!(
            table.routing_key_for("children", &children),
            Some(subtree_key)
        );
        // A sibling subtree keys elsewhere; session methods stay unkeyed.
        let other = erm_transport::to_bytes(&"/leases/a").unwrap();
        assert_ne!(table.routing_key_for("exists", &other), Some(subtree_key));
        let session = erm_transport::to_bytes(&30u64).unwrap();
        assert_eq!(table.routing_key_for("create_session", &session), None);
        assert_eq!(table.routing_key_for("sync", &[]), None);
    }
}

#[cfg(test)]
mod changelog_tests {
    use super::*;
    use erm_kvstore::{Store, StoreConfig};
    use erm_sim::VirtualClock;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn member(store: &Arc<Store>, uid: u64) -> (Dcs, ServiceContext) {
        (
            Dcs::new(),
            ServiceContext::new(
                Arc::clone(store),
                Dcs::CLASS,
                uid,
                Arc::new(VirtualClock::new()),
                Arc::new(AtomicU32::new(2)),
            ),
        )
    }

    fn call<A: serde::Serialize, R: serde::de::DeserializeOwned>(
        svc: &mut Dcs,
        ctx: &mut ServiceContext,
        method: &str,
        args: &A,
    ) -> R {
        let bytes = svc
            .dispatch(method, &erm_transport::to_bytes(args).unwrap(), ctx)
            .unwrap();
        erm_transport::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn wrap_around_keeps_exactly_the_last_thousand_in_order() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut svc, mut ctx) = member(&store, 0);
        // Update zxid z: odd z creates /w{z/2}, even z sets it.
        let expected = |zxid: u64| {
            let op = if zxid.is_multiple_of(2) {
                "set"
            } else {
                "create"
            };
            (zxid, op.to_string(), format!("/w{}", (zxid - 1) / 2))
        };
        for zxid in 1..=2_500u64 {
            let (_, method, path) = expected(zxid);
            let stamped: u64 = call(&mut svc, &mut ctx, &method, &(path, vec![zxid as u8]));
            assert_eq!(stamped, zxid);
        }
        let all: Vec<Change> = call(&mut svc, &mut ctx, "changes_since", &0u64);
        let want: Vec<Change> = (1_501..=2_500).map(expected).collect();
        assert_eq!(all, want, "the last 1000 updates, oldest first");
        let tail: Vec<Change> = call(&mut svc, &mut ctx, "changes_since", &2_400u64);
        assert_eq!(tail, (2_401..=2_500).map(expected).collect::<Vec<_>>());
        let none: Vec<Change> = call(&mut svc, &mut ctx, "changes_since", &2_500u64);
        assert!(none.is_empty());
    }

    #[test]
    fn two_members_see_the_same_total_order() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut svc_a, mut ctx_a) = member(&store, 1);
        let (mut svc_b, mut ctx_b) = member(&store, 2);
        let mut zxids = Vec::new();
        for i in 0..30u32 {
            let (svc, ctx) = if i.is_multiple_of(3) {
                (&mut svc_b, &mut ctx_b)
            } else {
                (&mut svc_a, &mut ctx_a)
            };
            let path = format!("/m{}", i / 2);
            let method = if i.is_multiple_of(2) { "create" } else { "set" };
            let zxid: u64 = call(svc, ctx, method, &(path, Vec::<u8>::new()));
            zxids.push(zxid);
        }
        let from_a: Vec<Change> = call(&mut svc_a, &mut ctx_a, "changes_since", &0u64);
        let from_b: Vec<Change> = call(&mut svc_b, &mut ctx_b, "changes_since", &0u64);
        assert_eq!(from_a, from_b, "one log, one order, whoever reads it");
        let logged: Vec<u64> = from_a.iter().map(|c| c.0).collect();
        assert_eq!(logged, zxids, "every update logged, in zxid order");
        assert_eq!(logged, (1..=30).collect::<Vec<u64>>());
        let since: Vec<Change> = call(&mut svc_b, &mut ctx_b, "changes_since", &zxids[9]);
        assert_eq!(since, from_a[10..]);
    }

    #[test]
    fn polling_a_wrapped_log_under_concurrent_writes_never_skips_an_update() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const WRITES: u64 = 20_000;
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut svc, mut ctx) = member(&store, 1);
        let _: u64 = call(&mut svc, &mut ctx, "create", &("/hot", Vec::<u8>::new()));
        for _ in 0..1_500 {
            let _: u64 = call(&mut svc, &mut ctx, "set", &("/hot", vec![1u8]));
        }
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..WRITES {
                    let _: u64 = call(&mut svc, &mut ctx, "set", &("/hot", vec![2u8]));
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        let (mut poller, mut poll_ctx) = member(&store, 2);
        let mut cursor = 1_000u64;
        loop {
            let finished = done.load(Ordering::SeqCst);
            let reply: Vec<Change> = call(&mut poller, &mut poll_ctx, "changes_since", &cursor);
            let head = poll_ctx.shared::<u64>("zxid").get().unwrap();
            if let Some(first) = reply.first() {
                // A reply may start past the cursor only when the next
                // update has left the 1000-slot window by now.
                assert!(
                    first.0 == cursor + 1 || head >= cursor + 1 + 1_000,
                    "cursor {cursor}: reply starts at {} with head {head}",
                    first.0
                );
            }
            for change in &reply {
                assert_eq!(change.1, "set");
                assert_eq!(change.2, "/hot");
            }
            // A reader 1000 behind races the writer for the oldest slots.
            let whole: Vec<Change> = call(&mut poller, &mut poll_ctx, "changes_since", &0u64);
            for pair in reply.windows(2).chain(whole.windows(2)) {
                assert_eq!(pair[1].0, pair[0].0 + 1, "a reply skipped an update");
            }
            if let Some(last) = reply.last() {
                cursor = last.0;
            }
            if finished {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(cursor, 1_501 + WRITES, "the final poll reaches the head");
    }

    #[test]
    fn no_store_value_outgrows_a_node_or_a_log_entry() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let (mut svc, mut ctx) = member(&store, 0);
        for i in 0..1_100 {
            let _: u64 = call(
                &mut svc,
                &mut ctx,
                "create",
                &(format!("/n{i}"), Vec::<u8>::new()),
            );
        }
        let node = erm_transport::to_bytes(&ZNode {
            data: Vec::new(),
            created_zxid: 0,
            modified_zxid: 0,
        })
        .unwrap();
        let entry = erm_transport::to_bytes(&(0u64, "create", "/n1099")).unwrap();
        let bound = node.len().max(entry.len());
        for key in store.keys_with_prefix("") {
            let len = store.get(&key).unwrap().value.len();
            assert!(len <= bound, "{key} holds {len} bytes, over {bound}");
        }
        let slots = store.keys_with_prefix(&Dcs::changelog_prefix());
        assert_eq!(slots.len(), 1_000, "one cell per retained entry");
    }
}
