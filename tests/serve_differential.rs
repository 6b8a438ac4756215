//! Differential determinism test for `tempimpd`, the sharded serving
//! layer.
//!
//! N concurrent clients hammer a live service through the pipelined
//! submit path and the blocking `StoreApi` path simultaneously. The
//! service records each shard's *effective* request log — batch-coalesced
//! monotone timestamps, in the shard's processing order. Replaying every
//! log single-threaded through [`tempimpd::replay`] must reproduce each
//! live shard exactly: same residents, same occupancy, same lifetime
//! counters, same importance density. That holds because a shard's final
//! state is a pure function of its effective log — concurrency only
//! decides the interleaving, never the semantics.
//!
//! Alongside it, property tests pin the routing function: total (every id
//! maps to a shard in range) and stable (fresh routers agree, so a log
//! replayed tomorrow lands objects on the same shards as the live run).

use proptest::prelude::*;
use temporal_reclaim::serve::{replay, Pending, Tempimpd};
use temporal_reclaim::tempimp::*;

const CLIENTS: u32 = 4;
const OPS_PER_CLIENT: u64 = 2_000;
const SHARDS: u32 = 4;
/// Simulated minutes between a client's consecutive ops: fast enough that
/// the run spans months, so waning, expiry and cadenced sweeps all fire
/// while the clients are still writing.
const SIM_MINUTES_PER_OP: u64 = 90;

fn curve_for(pick: u32) -> ImportanceCurve {
    match pick % 5 {
        0 => ImportanceCurve::two_step(
            Importance::FULL,
            SimDuration::from_days(10),
            SimDuration::from_days(10),
        ),
        1 => ImportanceCurve::Fixed {
            importance: Importance::new_clamped(0.5),
            expiry: SimDuration::from_days(20),
        },
        2 => ImportanceCurve::fixed_lifetime(SimDuration::from_days(7)),
        3 => ImportanceCurve::Persistent,
        _ => ImportanceCurve::Ephemeral,
    }
}

/// One client's deterministic op stream: mostly puts (keys strided so
/// clients collide on shards but never on ids), with gets, advise probes
/// and the occasional fan-out mixed in, issued through a blend of the
/// pipelined and the blocking paths.
fn drive(client: &mut ServeClient, index: u32, rng: &mut impl rand::Rng) {
    let base = u64::from(index) << 32;
    let mut pending: Vec<Pending> = Vec::new();
    let mut put_count = 0u64;
    for i in 0..OPS_PER_CLIENT {
        let at = SimTime::from_minutes(i * SIM_MINUTES_PER_OP);
        let roll = rng.gen_range(0u32..100);
        let request = if roll < 60 || put_count == 0 {
            put_count += 1;
            Request::Put {
                id: ObjectId::new(base + put_count),
                bytes: ByteSize::from_mib(1 + rng.gen_range(0u64..8)),
                curve: curve_for(rng.gen_range(0u32..32)),
                class: Default::default(),
            }
        } else if roll < 85 {
            Request::Get {
                id: ObjectId::new(base + 1 + rng.gen_range(0..put_count)),
            }
        } else if roll < 95 {
            Request::Advise {
                id: ObjectId::new(base + (1 << 24) + i),
                bytes: ByteSize::from_mib(4),
                incoming: Importance::new_clamped(0.8),
            }
        } else if roll < 98 {
            Request::Density
        } else {
            Request::Stats
        };
        // Blend transports: pipelined submits keep many requests racing
        // across shards; periodic blocking calls interleave the other
        // code path (and bound the window).
        if i % 16 == 0 {
            let _ = client.call(at, request);
            for p in pending.drain(..) {
                let _: Response = p.wait();
            }
        } else {
            pending.push(client.submit(at, request).expect("live service accepts"));
        }
    }
    for p in pending {
        let _ = p.wait();
    }
}

/// The tentpole property: a concurrent run replayed single-threaded per
/// shard reproduces the live fleet exactly.
#[test]
fn concurrent_run_replays_to_identical_shards() {
    let service = Tempimpd::builder()
        .shards(SHARDS)
        // Small shards so preemption and rejection both happen under the
        // concurrent load — determinism must survive the interesting
        // paths, not just happy-path appends.
        .shard_capacity(ByteSize::from_mib(96))
        .record_log(true)
        .spawn();
    let capacity = service.shard_capacity();
    let policy = service.policy();
    let sweep_every = service.sweep_every();
    let router = ShardRouter::new(service.shards());
    let prototype = service.client();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let mut client = prototype.clone();
            scope.spawn(move || {
                let mut rng = rng::stream(0xd1ff, &format!("serve-diff-{c}"));
                drive(&mut client, c, &mut rng);
            });
        }
    });
    drop(prototype);

    let reports = service.shutdown().expect_clean();
    assert_eq!(reports.len() as u32, SHARDS);
    let total_requests: u64 = reports.iter().map(|r| r.requests).sum();
    // Keyed requests land on exactly one shard; each Density/Stats
    // fan-out lands on all of them, so the floor is every client's op
    // count.
    assert!(total_requests >= u64::from(CLIENTS) * OPS_PER_CLIENT);

    for report in reports {
        // The log is the shard's ground truth; replaying it through the
        // same single-threaded engine must land in the identical state.
        let replayed = replay(capacity, policy, sweep_every, &report.log);
        assert_eq!(
            replayed.now(),
            report.final_now,
            "shard {}: effective clock diverged",
            report.shard
        );
        let live = &report.unit;
        let twin = replayed.unit();
        assert_eq!(
            live.len(),
            twin.len(),
            "shard {}: resident count",
            report.shard
        );
        assert_eq!(
            live.used(),
            twin.used(),
            "shard {}: occupancy",
            report.shard
        );
        assert_eq!(
            live.stats(),
            twin.stats(),
            "shard {}: lifetime counters",
            report.shard
        );

        let mut live_objects: Vec<_> = live.iter().map(|o| (o.id(), o.size())).collect();
        let mut twin_objects: Vec<_> = twin.iter().map(|o| (o.id(), o.size())).collect();
        live_objects.sort_unstable();
        twin_objects.sort_unstable();
        assert_eq!(
            live_objects, twin_objects,
            "shard {}: residents",
            report.shard
        );

        // Ownership is total: everything resident on this shard routes
        // here, so no request ever reached the wrong worker.
        for (id, _) in &live_objects {
            assert_eq!(
                router.route(*id),
                report.shard,
                "object {id:?} on wrong shard"
            );
        }

        let live_density = live.importance_density(report.final_now);
        let twin_density = twin.importance_density(report.final_now);
        assert!(
            (live_density - twin_density).abs() < 1e-12,
            "shard {}: density diverged ({live_density} vs {twin_density})",
            report.shard
        );
    }
}

proptest! {
    /// Routing is total: for any shard count and any id, the route is a
    /// valid shard index.
    #[test]
    fn routing_is_total(shards in 1u32..=64, raw in 0u64..=u64::MAX) {
        let router = ShardRouter::new(shards);
        prop_assert!(router.route(ObjectId::new(raw)) < shards);
    }

    /// Routing is stable: fresh routers with the same shard count agree
    /// on every id, and repeated calls agree with themselves — the
    /// property that lets a recorded log find its objects on replay.
    #[test]
    fn routing_is_stable(shards in 1u32..=64, raw in 0u64..=u64::MAX) {
        let id = ObjectId::new(raw);
        let a = ShardRouter::new(shards);
        let b = ShardRouter::new(shards);
        prop_assert_eq!(a.route(id), b.route(id));
        prop_assert_eq!(a.route(id), a.route(id));
    }
}
