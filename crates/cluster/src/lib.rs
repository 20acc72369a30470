#![warn(missing_docs)]

//! Mesos-like cluster resource manager substrate (paper §2.4, §4.2).
//!
//! ElasticRMI obtains "virtual nodes" by asking Apache Mesos for *slices*
//! (resource offers): a configurable reservation of CPU and memory on one of
//! the managed nodes, at most one elastic object per slice. This crate
//! reproduces the parts of that contract the middleware observes:
//!
//! * a fixed inventory of nodes divided into slices,
//! * a grant protocol where a request for `k` slices may yield `l < k`
//!   when the cluster is short (the paper instantiates only `l` objects),
//! * a provisioning-latency model (slices become usable after a delay),
//! * slice release/reuse ("this slice is then available to other elastic
//!   objects in the cluster"),
//! * master failures, during which adding/removing objects is impossible
//!   (paper §4.4), and
//! * administrator alerts when utilization crosses configurable thresholds
//!   (paper §4.2).
//!
//! # Example
//!
//! ```
//! use erm_cluster::{ClusterConfig, ResourceManager};
//! use erm_sim::{SimDuration, SimTime};
//!
//! let mut cluster = ResourceManager::new(ClusterConfig::default());
//! let outcome = cluster.request_slices(3, SimTime::ZERO).unwrap();
//! assert_eq!(outcome.granted, 3);
//! // Slices are usable only after the provisioning latency has elapsed.
//! let ready = cluster.poll_ready(SimTime::ZERO + SimDuration::from_minutes(5));
//! assert_eq!(ready.len(), 3);
//! ```

mod handle;
mod latency;
mod manager;

pub use handle::ClusterHandle;
pub use latency::LatencyModel;
pub use manager::{
    AdminAlert, ClusterConfig, ClusterError, NodeId, RequestOutcome, ResourceManager, Revocation,
    SliceGrant, SliceId,
};
