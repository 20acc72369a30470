//! Seeded inputs: arrival times, operations, keys and payloads. Everything
//! a run sends is generated here from `--seed` before timing starts.

use erm_sim::derive_seed;
use erm_workloads::ZipfKeys;

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for the named component of a run seeded with `seed`.
    pub fn new(seed: u64, label: &str) -> Rng {
        Rng(derive_seed(seed, label))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One remote call the generator makes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `echo(n)`: must return `n`.
    Echo(u64),
    /// `work(n)`: sleeps the service time, must return `n`.
    Work(u64),
    /// DCS `get(/r<root>)`.
    Get(u16),
    /// DCS `set(/r<root>, data)`.
    Set {
        /// Path root index.
        root: u16,
        /// Node payload.
        data: Vec<u8>,
    },
}

/// An operation and the time it is due, in nanoseconds from phase start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// When the open-loop schedule sends it.
    pub due_ns: u64,
    /// What it sends.
    pub op: Op,
}

/// Where a workload's operations come from.
pub trait OpSource {
    /// The next operation.
    fn next_op(&mut self) -> Op;
}

/// `echo` with random arguments.
pub struct EchoOps(pub Rng);

impl OpSource for EchoOps {
    fn next_op(&mut self) -> Op {
        Op::Echo(self.0.next_u64())
    }
}

/// `work` with random arguments.
pub struct WorkOps(pub Rng);

impl OpSource for WorkOps {
    fn next_op(&mut self) -> Op {
        Op::Work(self.0.next_u64())
    }
}

/// The DCS mix: Zipf-ranked path roots, a fixed write share, fixed-size
/// random payloads on writes.
pub struct DcsOps {
    keys: ZipfKeys,
    rng: Rng,
    write_frac: f64,
    payload: usize,
}

impl DcsOps {
    /// `roots` path roots ranked by Zipf(`skew`), `write_frac` of calls are
    /// `set`s of `payload` bytes.
    pub fn new(
        seed: u64,
        label: &str,
        roots: u64,
        skew: f64,
        write_frac: f64,
        payload: usize,
    ) -> Self {
        DcsOps {
            keys: ZipfKeys::new(roots, skew, derive_seed(seed, label)),
            rng: Rng::new(seed, label),
            write_frac,
            payload,
        }
    }
}

impl OpSource for DcsOps {
    fn next_op(&mut self) -> Op {
        let root = self.keys.next_key() as u16;
        if self.rng.unit() < self.write_frac {
            Op::Set {
                root,
                data: payload(&mut self.rng, self.payload),
            }
        } else {
            Op::Get(root)
        }
    }
}

/// `len` random bytes.
pub fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Poisson arrivals at `rate` per second for `duration_ns`, each carrying
/// the next operation from `ops`.
pub fn open_loop(
    seed: u64,
    label: &str,
    rate: f64,
    duration_ns: u64,
    ops: &mut dyn OpSource,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, label);
    let mut out = Vec::with_capacity((rate * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(Arrival {
            due_ns: t as u64,
            op: ops.next_op(),
        });
    }
}

/// `n` operations for a saturation phase, which sends as fast as the
/// window allows and has no schedule.
pub fn batch(n: usize, ops: &mut dyn OpSource) -> Vec<Op> {
    (0..n).map(|_| ops.next_op()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dcs(seed: u64) -> Vec<Arrival> {
        let mut ops = DcsOps::new(seed, "ops", 256, 1.1, 0.1, 1024);
        open_loop(seed, "arrivals", 3_000.0, 500_000_000, &mut ops)
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(dcs(7), dcs(7));
        let mut a = EchoOps(Rng::new(7, "echo"));
        let mut b = EchoOps(Rng::new(7, "echo"));
        assert_eq!(batch(100, &mut a), batch(100, &mut b));
    }

    #[test]
    fn different_seed_different_inputs() {
        let (a, b) = (dcs(7), dcs(8));
        assert_ne!(a, b);
        let dues = |v: &[Arrival]| v.iter().map(|x| x.due_ns).collect::<Vec<_>>();
        assert_ne!(dues(&a), dues(&b), "arrival times must depend on the seed");
        let mut x = EchoOps(Rng::new(7, "echo"));
        let mut y = EchoOps(Rng::new(8, "echo"));
        assert_ne!(batch(10, &mut x), batch(10, &mut y));
    }

    #[test]
    fn open_loop_rate_mix_and_payloads_are_as_configured() {
        let a = dcs(11);
        // 3k/s for 0.5 s: 1500 expected, Poisson sd ~39.
        assert!((1_350..1_650).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 500_000_000);
        let writes: Vec<&Op> = a
            .iter()
            .map(|x| &x.op)
            .filter(|o| matches!(o, Op::Set { .. }))
            .collect();
        let share = writes.len() as f64 / a.len() as f64;
        assert!((0.06..0.14).contains(&share), "write share {share}");
        assert!(writes
            .iter()
            .all(|o| matches!(o, Op::Set { data, .. } if data.len() == 1024)));
        // Zipf(1.1): root 0 is the hottest.
        let hot = a
            .iter()
            .filter(|x| matches!(x.op, Op::Get(0) | Op::Set { root: 0, .. }))
            .count();
        assert!(hot as f64 / a.len() as f64 > 0.1, "hot share {hot}");
    }
}
