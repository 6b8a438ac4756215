//! The seeded request stream every prefix of the stack is driven with,
//! and the tally that classifies (and digests) the replies.
//!
//! All sizing constants of the benchmark live here. They are part of the
//! benchmark's definition: a commit under test never sees them, only the
//! `(SimTime, Request)` pairs they generate.

use rand::rngs::StdRng;
use rand::Rng;
use sim_core::{ByteSize, SimDuration, SimTime};
use temporal_importance::protocol::{Request, Response, VerbKind};
use temporal_importance::{
    Admission, Error, Importance, ImportanceCurve, ObjectClass, ObjectId, StoreError,
};

/// Request mix in per-mille: put 50 %, get 35 %, advise 10 %, density
/// 2.5 %, stats 2.5 %.
const PUT_PER_MILLE: u32 = 500;
const GET_PER_MILLE: u32 = 350;
const ADVISE_PER_MILLE: u32 = 100;
const DENSITY_PER_MILLE: u32 = 25;

/// Operations per simulated minute, summed over all client threads.
/// With 1–4 MiB puts at 50 % of the mix this offers ~1.25× what
/// [`TOTAL_CAPACITY_GIB`] can hold over the palette's lifetimes.
pub const OPS_PER_SIM_MINUTE: u64 = 13;
/// Capacity of the whole store, split evenly over shards.
pub const TOTAL_CAPACITY_GIB: u64 = 390;
/// Warm-up length: 30 simulated days at [`OPS_PER_SIM_MINUTE`], the
/// longest lifetime in the palette, so every curve family has both live
/// and lapsed members when timing starts.
pub const WARMUP_OPS: u64 = 600_000;
/// Residents each shard must hold after warm-up (workload-health guard).
pub const MIN_RESIDENTS_PER_SHARD: u64 = 50_000;
/// Key-space stride separating client id ranges: no two clients touch
/// the same object, so a rejection is capacity pressure, never a
/// duplicate id.
const CLIENT_STRIDE: u64 = 1 << 40;
/// Gets pick `puts · u^GET_SKEW` back from the newest put.
const GET_SKEW: i32 = 8;

/// Divides the stream's size (capacity, arrival rate, warm-up length,
/// resident floor) by one factor, keeping offered/capacity — and so the
/// regime — unchanged. `1` for measured runs, `50` for `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const CHECK: Scale = Scale(50);

    pub fn shard_capacity(self, shards: u32) -> ByteSize {
        ByteSize::from_mib(TOTAL_CAPACITY_GIB * 1024 / self.0 / u64::from(shards))
    }

    pub fn warmup_ops(self) -> u64 {
        WARMUP_OPS / self.0
    }

    pub fn min_residents_per_shard(self) -> u64 {
        MIN_RESIDENTS_PER_SHARD / self.0
    }

    /// "full size" or "1/50 size", for the report.
    pub fn label(self) -> String {
        match self.0 {
            1 => "full size".into(),
            factor => format!("1/{factor} size"),
        }
    }

    /// Scales an operation count or a duration in milliseconds.
    pub fn shrink(self, full: u64) -> u64 {
        (full / self.0).max(1)
    }
}

/// One client's request stream. Client `c` of `n` issues every `n`-th
/// share of the arrival rate in its own key range.
#[derive(Debug)]
pub struct Stream {
    rng: StdRng,
    base: u64,
    puts: u64,
    issued: u64,
    /// Simulated minutes advance by `issued * minutes_num / OPS_PER_SIM_MINUTE`.
    minutes_num: u64,
}

impl Stream {
    pub fn new(seed: u64, client: u32, clients: u32, scale: Scale) -> Stream {
        Stream {
            rng: sim_core::rng::stream(seed, &format!("bench-stack-client-{client}")),
            base: u64::from(client) * CLIENT_STRIDE,
            puts: 0,
            issued: 0,
            minutes_num: u64::from(clients) * scale.0,
        }
    }

    /// The simulated instant of the next request.
    pub fn now(&self) -> SimTime {
        SimTime::from_minutes(self.issued * self.minutes_num / OPS_PER_SIM_MINUTE)
    }

    /// Generates the next request.
    pub fn next(&mut self) -> (SimTime, Request) {
        let at = self.now();
        let roll = self.rng.gen_range(0u32..1000);
        let request = if roll < PUT_PER_MILLE || self.puts == 0 {
            let id = ObjectId::new(self.base + self.puts);
            self.puts += 1;
            Request::Put {
                id,
                bytes: ByteSize::from_mib(1 + self.rng.gen_range(0u64..4)),
                curve: curve_mix(&mut self.rng),
                class: ObjectClass::default(),
            }
        } else if roll < PUT_PER_MILLE + GET_PER_MILLE {
            let u: f64 = self.rng.gen();
            let back = ((self.puts as f64) * u.powi(GET_SKEW)) as u64;
            Request::Get {
                id: ObjectId::new(self.base + self.puts - 1 - back.min(self.puts - 1)),
            }
        } else if roll < PUT_PER_MILLE + GET_PER_MILLE + ADVISE_PER_MILLE {
            Request::Advise {
                id: ObjectId::new(self.base + CLIENT_STRIDE / 2 + self.issued),
                bytes: ByteSize::from_mib(2),
                incoming: Importance::new_clamped(0.1 * f64::from(self.rng.gen_range(1u32..=10))),
            }
        } else if roll < PUT_PER_MILLE + GET_PER_MILLE + ADVISE_PER_MILLE + DENSITY_PER_MILLE {
            Request::Density
        } else {
            Request::Stats
        };
        self.issued += 1;
        (at, request)
    }
}

/// `bench_serve`'s annotation palette: mostly two-step (the paper's
/// Fig. 1 shape) with fixed-plateau, fixed-lifetime and ephemeral
/// minorities. A small quantised set on purpose — annotations come from a
/// handful of site policies, and the engine keeps one candidate stream
/// per distinct curve shape.
fn curve_mix(rng: &mut StdRng) -> ImportanceCurve {
    match rng.gen_range(0u32..10) {
        0..=3 => ImportanceCurve::two_step(
            Importance::FULL,
            SimDuration::from_days(15),
            SimDuration::from_days(15),
        ),
        4..=5 => ImportanceCurve::Fixed {
            importance: Importance::new_clamped(0.2 * f64::from(rng.gen_range(2u32..=4))),
            expiry: SimDuration::from_days(10 * u64::from(rng.gen_range(1u32..=3))),
        },
        6 => ImportanceCurve::two_step(
            Importance::new_clamped(0.6),
            SimDuration::from_days(5),
            SimDuration::from_days(25),
        ),
        7..=8 => ImportanceCurve::fixed_lifetime(SimDuration::from_days(
            5 * u64::from(rng.gen_range(1u32..=3)),
        )),
        _ => ImportanceCurve::Ephemeral,
    }
}

/// What the replies to a run of requests added up to.
///
/// A *failed* operation is a service error, a journal error, or a reply
/// of the wrong variant. A `StoreError::Full` rejection is the engine's
/// policy at work and counts as `puts_rejected`, not as a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub ops: u64,
    pub puts_accepted: u64,
    pub puts_rejected: u64,
    pub gets_hit: u64,
    pub gets_miss: u64,
    /// Whole-store verbs (`density`, `stats`): a sharded store answers
    /// each with one request per shard.
    pub fanouts: u64,
    pub evicted: u64,
    pub failed: u64,
    /// Order-sensitive hash of every reply's deterministic content.
    pub digest: u64,
}

impl Tally {
    pub fn puts(&self) -> u64 {
        self.puts_accepted + self.puts_rejected
    }

    pub fn put_accept_share(&self) -> f64 {
        self.puts_accepted as f64 / self.puts().max(1) as f64
    }

    pub fn get_hit_share(&self) -> f64 {
        self.gets_hit as f64 / (self.gets_hit + self.gets_miss).max(1) as f64
    }

    /// Counters of `self` minus those of an earlier snapshot.
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            ops: self.ops - earlier.ops,
            puts_accepted: self.puts_accepted - earlier.puts_accepted,
            puts_rejected: self.puts_rejected - earlier.puts_rejected,
            gets_hit: self.gets_hit - earlier.gets_hit,
            gets_miss: self.gets_miss - earlier.gets_miss,
            fanouts: self.fanouts - earlier.fanouts,
            evicted: self.evicted - earlier.evicted,
            failed: self.failed - earlier.failed,
            digest: self.digest,
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.puts_accepted += other.puts_accepted;
        self.puts_rejected += other.puts_rejected;
        self.gets_hit += other.gets_hit;
        self.gets_miss += other.gets_miss;
        self.fanouts += other.fanouts;
        self.evicted += other.evicted;
        self.failed += other.failed;
        self.digest ^= other.digest;
    }

    fn mix(&mut self, word: u64) {
        self.digest = (self.digest ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds in the reply to a request of kind `verb`.
    pub fn settle(&mut self, verb: VerbKind, response: &Response) {
        self.ops += 1;
        self.mix(verb.code());
        match (verb, response) {
            (VerbKind::Put, Response::Put(Ok(outcome))) => {
                self.puts_accepted += 1;
                self.evicted += outcome.evicted.len() as u64;
                self.mix(outcome.id.raw());
                self.mix(outcome.evicted.len() as u64);
            }
            (VerbKind::Put, Response::Put(Err(Error::Store(StoreError::Full { .. })))) => {
                self.puts_rejected += 1;
                self.mix(1);
            }
            (VerbKind::Get, Response::Get(Ok(Some(info)))) => {
                self.gets_hit += 1;
                self.mix(info.size.as_bytes());
                self.mix(info.arrival.as_minutes());
                self.mix(info.importance.value().to_bits());
            }
            (VerbKind::Get, Response::Get(Ok(None))) => {
                self.gets_miss += 1;
                self.mix(2);
            }
            (VerbKind::Advise, Response::Advise(Ok(admission))) => {
                self.mix(match admission {
                    Admission::Fits { victims } => *victims as u64,
                    Admission::Preempting { victims, .. } => (1 << 32) | *victims as u64,
                    _ => 3 << 32,
                });
            }
            (VerbKind::Density, Response::Density(Ok(info))) => {
                self.fanouts += 1;
                self.mix(info.used.as_bytes());
                // Summed over shards in reply order, so only the
                // single-store value is bit-stable; keep the digest to
                // what every prefix can reproduce.
            }
            (VerbKind::Stats, Response::Stats(Ok(stats))) => {
                self.fanouts += 1;
                self.mix(stats.objects);
                self.mix(stats.unit.stores_attempted);
                self.mix(stats.unit.evictions_preempted);
            }
            _ => {
                self.failed += 1;
                self.mix(u64::MAX);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_digest(seed: u64, ops: usize) -> u64 {
        let mut stream = Stream::new(seed, 0, 1, Scale::FULL);
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for _ in 0..ops {
            let (at, request) = stream.next();
            for byte in format!("{}:{request:?}", at.as_minutes()).bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }

    #[test]
    fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
        assert_eq!(request_digest(7, 5_000), request_digest(7, 5_000));
        assert_ne!(request_digest(7, 5_000), request_digest(8, 5_000));
    }

    #[test]
    fn clients_share_the_arrival_rate_and_never_share_keys() {
        let mut a = Stream::new(1, 0, 2, Scale::FULL);
        let mut b = Stream::new(1, 1, 2, Scale::FULL);
        for _ in 0..1_300 {
            a.next();
            b.next();
        }
        // 2 × 1,300 ops at 13 per simulated minute.
        assert_eq!(a.now(), SimTime::from_minutes(200));
        assert_eq!(b.now(), a.now());
        let (_, first_b) = Stream::new(1, 1, 2, Scale::FULL).next();
        match first_b {
            Request::Put { id, .. } => assert_eq!(id.raw(), CLIENT_STRIDE),
            other => panic!("a stream opens with a put, got {other:?}"),
        }
    }

    #[test]
    fn scaling_keeps_offered_load_over_capacity() {
        // 1/50 of the capacity at 1/50 of the arrival rate.
        let full = Scale::FULL.shard_capacity(1).as_bytes();
        let check = Scale::CHECK.shard_capacity(1).as_bytes();
        assert!((full as f64 / check as f64 - 50.0).abs() < 0.01);
        let mut stream = Stream::new(1, 0, 1, Scale::CHECK);
        for _ in 0..13 {
            stream.next();
        }
        assert_eq!(stream.now(), SimTime::from_minutes(50));
    }
}
