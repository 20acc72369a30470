//! Shared state over the external store (paper §4.1, Fig. 6).
//!
//! The ElasticRMI preprocessor "translates reads and writes of instance and
//! static fields into get(...) and put(...) method calls" on the store,
//! keying field `x` of class `C1` as `"C1$x"`, and translates `synchronized`
//! methods into acquisition of a per-class lock named after the class. This
//! module is that translation, as a library.

use std::marker::PhantomData;
use std::sync::Arc;

use erm_kvstore::{LockOwner, Store};
use erm_sim::{Clock, SimDuration};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// The store key for field `field` of class `class` — the paper's `C1$x`
/// mangling.
pub fn field_key(class: &str, field: &str) -> String {
    format!("{class}${field}")
}

/// A typed handle to one shared field of an elastic class.
///
/// Every member of the pool constructing a `SharedField` for the same class
/// and field name reads and writes the same store cell, which is what makes
/// the pool "appear to the client as a single remote object" (§2.2).
#[derive(Debug)]
pub struct SharedField<T> {
    store: Arc<Store>,
    key: String,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for SharedField<T> {
    fn clone(&self) -> Self {
        SharedField {
            store: Arc::clone(&self.store),
            key: self.key.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: Serialize + DeserializeOwned> SharedField<T> {
    /// Creates the handle for `class.field` on `store`.
    pub fn new(store: Arc<Store>, class: &str, field: &str) -> Self {
        SharedField {
            store,
            key: field_key(class, field),
            _marker: PhantomData,
        }
    }

    /// The underlying store key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Reads the field; `None` if it was never written.
    ///
    /// # Panics
    ///
    /// Panics if the stored bytes do not decode as `T` — that is a schema
    /// mismatch between pool members, a programming error.
    pub fn get(&self) -> Option<T> {
        self.store.get(&self.key).map(|v| {
            erm_transport::from_bytes(&v.value)
                .unwrap_or_else(|e| panic!("shared field {} corrupt: {e}", self.key))
        })
    }

    /// Writes the field.
    pub fn set(&self, value: &T) {
        let bytes = erm_transport::to_bytes(value).expect("shared field value encodes");
        self.store.put(&self.key, bytes);
    }

    /// Atomic read-modify-write via compare-and-put retry. `init` supplies
    /// the value when the field is absent; `f`'s return value is passed
    /// through. Lock-free: concurrent updates retry rather than block.
    ///
    /// Every call decodes and re-encodes the *whole* value, under whatever
    /// lock the caller holds, so its cost grows with the value, not with the
    /// change. Append-only data (logs, histories, indexes) belongs in one
    /// cell per entry, written with a single `put`; a growing collection
    /// behind one field makes each append cost as much as the collection.
    pub fn update<R>(&self, init: impl Fn() -> T, mut f: impl FnMut(&mut T) -> R) -> R {
        loop {
            let current = self.store.get(&self.key);
            let (expected, mut value) = match &current {
                Some(v) => (
                    Some(v.version),
                    erm_transport::from_bytes::<T>(&v.value)
                        .unwrap_or_else(|e| panic!("shared field {} corrupt: {e}", self.key)),
                ),
                None => (None, init()),
            };
            let out = f(&mut value);
            let bytes = erm_transport::to_bytes(&value).expect("shared field value encodes");
            if self
                .store
                .compare_and_put(&self.key, expected, bytes)
                .is_ok()
            {
                return out;
            }
        }
    }
}

/// Executes `body` under the class-wide lock (`ERMI.lock(class)`), blocking
/// until acquired. Mirrors a `synchronized` elastic method: mutual
/// exclusion with respect to every other synchronized method of the same
/// class across the whole pool — and, like the paper, *not* an ACID
/// transaction.
///
/// The wait is clock-aware: it parks on the lock table's condition
/// variable (woken by every release and by crash reclamation through
/// [`Store::release_owner`]) and re-reads the injected clock for TTL
/// expiry. Earlier versions slept real time between `try_lock` attempts
/// while the TTL was measured on the injected clock — under a
/// [`erm_sim::VirtualClock`] a crashed owner's lock then never expired and
/// the waiter livelocked.
///
/// # Panics
///
/// Panics if `owner` is fenced: a crash-reclaimed member re-entering a
/// critical section under its old identity is a protocol violation, and
/// running `body` without the lock would break mutual exclusion.
pub fn synchronized<R>(
    store: &Store,
    class: &str,
    owner: LockOwner,
    clock: &dyn Clock,
    ttl: SimDuration,
    body: impl FnOnce() -> R,
) -> R {
    assert!(
        store.lock_blocking(class, owner, clock, ttl),
        "fenced {owner} must not enter synchronized({class})"
    );
    // Run the body and always release, even if it panics, so a poisoned
    // member cannot wedge the whole class. Releasing through `unlock_at`
    // records the hold time when lock metrics are installed.
    struct Unlock<'a> {
        store: &'a Store,
        class: &'a str,
        owner: LockOwner,
        clock: &'a dyn Clock,
    }
    impl Drop for Unlock<'_> {
        fn drop(&mut self) {
            let _ = self
                .store
                .unlock_at(self.class, self.owner, self.clock.now());
        }
    }
    let _guard = Unlock {
        store,
        class,
        owner,
        clock,
    };
    body()
}

#[cfg(test)]
mod tests {
    use super::*;
    use erm_kvstore::StoreConfig;
    use erm_sim::VirtualClock;

    fn store() -> Arc<Store> {
        Arc::new(Store::new(StoreConfig::default()))
    }

    #[test]
    fn field_key_matches_paper_mangling() {
        assert_eq!(field_key("C1", "x"), "C1$x");
    }

    #[test]
    fn set_get_roundtrip_typed() {
        let f: SharedField<Vec<String>> = SharedField::new(store(), "Cache", "keys");
        assert_eq!(f.get(), None);
        f.set(&vec!["a".into(), "b".into()]);
        assert_eq!(f.get(), Some(vec!["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn distinct_fields_do_not_alias() {
        let s = store();
        let x: SharedField<u32> = SharedField::new(Arc::clone(&s), "C1", "x");
        let z: SharedField<u32> = SharedField::new(Arc::clone(&s), "C1", "z");
        x.set(&1);
        z.set(&2);
        assert_eq!((x.get(), z.get()), (Some(1), Some(2)));
    }

    #[test]
    fn update_initializes_absent_field() {
        let f: SharedField<u64> = SharedField::new(store(), "C1", "count");
        let out = f.update(
            || 100,
            |v| {
                *v += 1;
                *v
            },
        );
        assert_eq!(out, 101);
        assert_eq!(f.get(), Some(101));
    }

    #[test]
    fn concurrent_updates_never_lose_increments() {
        let s = store();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let f: SharedField<u64> = SharedField::new(s, "C1", "n");
                for _ in 0..500 {
                    f.update(|| 0, |v| *v += 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let f: SharedField<u64> = SharedField::new(s, "C1", "n");
        assert_eq!(f.get(), Some(4000));
    }

    #[test]
    fn synchronized_provides_mutual_exclusion() {
        let s = store();
        let clock = VirtualClock::new();
        let ttl = SimDuration::from_secs(60);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let clock = clock.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    synchronized(&s, "C1", LockOwner::new(t), &clock, ttl, || {
                        // Unsynchronized read-modify-write: only safe because
                        // the class lock serializes these bodies.
                        let f: SharedField<u64> = SharedField::new(Arc::clone(&s), "C1", "rmw");
                        let v = f.get().unwrap_or(0);
                        f.set(&(v + 1));
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let f: SharedField<u64> = SharedField::new(s, "C1", "rmw");
        assert_eq!(
            f.get(),
            Some(800),
            "lost updates imply broken mutual exclusion"
        );
    }

    #[test]
    fn synchronized_waiter_wakes_when_crashed_owner_is_fenced() {
        // Regression: the waiter used to spin on real `thread::sleep`s while
        // the lock TTL was measured on the injected clock. Under a paused
        // VirtualClock a crashed owner's lock never expired, so the waiter
        // livelocked until the process was killed. The clock-aware wait must
        // complete as soon as the pool fences the crashed owner, with the
        // virtual clock never moving at all.
        let s = store();
        let clock = VirtualClock::new(); // paused: nobody advances it
        let ttl = SimDuration::from_secs(3600);
        let crashed = LockOwner::new(1);
        assert!(s.try_lock("C1", crashed, clock.now(), ttl));
        let s2 = Arc::clone(&s);
        let clock2 = clock.clone();
        let waiter = std::thread::spawn(move || {
            synchronized(&s2, "C1", LockOwner::new(2), &clock2, ttl, || 42)
        });
        // Let the waiter actually block on the held lock first.
        while s.lock_stats().failures == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Crash reclamation: fence the dead owner, free its locks.
        assert_eq!(
            s.release_owner(crashed, clock.now()),
            vec!["C1".to_string()]
        );
        assert_eq!(waiter.join().unwrap(), 42);
        assert!(s.fenced_epoch(crashed).is_some());
    }

    #[test]
    fn synchronized_waiter_observes_virtual_ttl_expiry() {
        // The other half of the clock-awareness contract: no release ever
        // happens, but advancing the *virtual* clock past the holder's TTL
        // must unblock the waiter (the old real-time backoff would have
        // spun forever since it never re-read an advanced clock under a
        // lock that "expired" only in sim time).
        let s = store();
        let clock = VirtualClock::new();
        let ttl = SimDuration::from_secs(30);
        let dead = LockOwner::new(1);
        assert!(s.try_lock("C1", dead, clock.now(), ttl));
        let s2 = Arc::clone(&s);
        let clock2 = clock.clone();
        let waiter = std::thread::spawn(move || {
            synchronized(&s2, "C1", LockOwner::new(2), &clock2, ttl, || 7)
        });
        while s.lock_stats().failures == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        clock.advance(SimDuration::from_secs(31));
        assert_eq!(waiter.join().unwrap(), 7);
        assert_eq!(
            s.lock_stats().expirations,
            1,
            "the lock was stolen, not released"
        );
    }

    #[test]
    fn synchronized_releases_on_panic() {
        let s = store();
        let clock = VirtualClock::new();
        let ttl = SimDuration::from_secs(60);
        let s2 = Arc::clone(&s);
        let clock2 = clock.clone();
        let _ = std::thread::spawn(move || {
            synchronized(&s2, "C1", LockOwner::new(1), &clock2, ttl, || {
                panic!("method body exploded");
            })
        })
        .join();
        // Lock must be free again.
        assert!(s.try_lock("C1", LockOwner::new(2), clock.now(), ttl));
    }
}
