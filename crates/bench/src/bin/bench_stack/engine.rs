//! `engine_direct`: one thread, a bare `StorageUnit` behind
//! `StoreApi::call`. The core engine does all the work here and the serve
//! and durable layers none.

use std::time::Instant;

use temporal_importance::protocol::StoreApi;
use temporal_importance::StorageUnit;

use crate::drive::{direct, Until, SAMPLE_EVERY};
use crate::report::{Report, Timed};
use crate::stats::median;
use crate::stream::{Scale, Stream, Tally};
use crate::{health_guard, Config, SETUPS, WINDOWS};

/// The unit every direct prefix uses: per-event record keeping off, as in
/// a serving shard (the records would otherwise grow with every eviction),
/// default policy and observer.
pub fn build_unit(scale: Scale) -> StorageUnit {
    StorageUnit::builder(scale.shard_capacity(1))
        .recording(false)
        .build()
}

/// Warms `store` up directly: the first two thirds unobserved, the last
/// third tallied for the health guard. Returns that last third's tally.
pub fn warm_up<S: StoreApi>(
    store: &mut S,
    stream: &mut Stream,
    tally: &mut Tally,
    scale: Scale,
) -> Tally {
    let ops = scale.warmup_ops();
    direct(store, stream, tally, Until::Ops(ops - ops / 3), None);
    let before = *tally;
    direct(store, stream, tally, Until::Ops(ops / 3), None);
    tally.since(&before)
}

/// Conservation on a unit against the tally of everything sent to it.
pub fn check_unit(report: &mut Report, unit: &StorageUnit, tally: &Tally) {
    let stats = unit.stats();
    report.check(
        format!(
            "puts {} = accepted {} + rejected {}",
            stats.stores_attempted,
            stats.stores_accepted,
            stats.rejections()
        ),
        stats.stores_attempted == stats.stores_accepted + stats.rejections()
            && stats.stores_accepted == tally.puts_accepted
            && stats.rejections() == tally.puts_rejected,
    );
    report.check("used <= capacity", unit.used() <= unit.capacity());
}

/// One set-up: a fresh unit, warmed up and guarded, and what that took.
fn set_up(config: &Config) -> Result<(StorageUnit, Stream, Tally, f64), String> {
    let started = Instant::now();
    let mut unit = build_unit(config.scale);
    let mut stream = Stream::new(config.seed, 0, 1, config.scale);
    let mut tally = Tally::default();
    let steady = warm_up(&mut unit, &mut stream, &mut tally, config.scale);
    let took = started.elapsed().as_secs_f64();
    health_guard(&steady, &[unit.len() as u64], config.scale)?;
    Ok((unit, stream, tally, took))
}

pub fn run(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut unit, mut stream, mut tally, setup) = set_up(config)?;

    let mut timed = Timed::default();
    for index in 0..WINDOWS {
        let end = Instant::now() + config.window();
        let (ops, took) = direct(
            &mut unit,
            &mut stream,
            &mut tally,
            Until::Time(end),
            Some(timed.latency.window(index)),
        );
        timed.ops_per_s.push(ops as f64 / took.as_secs_f64());
    }

    report.metric("peak_rss_mib", crate::host::peak_rss_mib());
    report.absorb_counts(tally.ops, tally.failed);
    report.note(format!("latency: one `call`, 1 in {SAMPLE_EVERY} timed"));
    timed.report(&mut report);
    report.metric("write_amp", 1.0);
    report.note(format!(
        "core.unit.put_accept_share {:.4}  core.unit.get_hit_share {:.4}  residents {}",
        tally.put_accept_share(),
        tally.get_hit_share(),
        unit.len()
    ));
    check_unit(&mut report, &unit, &tally);
    drop(unit);

    // The other set-ups come after the timed phase, so that the store it
    // ran on is the only one `peak_rss_mib` has seen.
    let mut setups = vec![setup];
    for _ in 1..SETUPS {
        setups.push(set_up(config)?.3);
    }
    report.metric("setup_s", median(&mut setups));
    Ok(report)
}
