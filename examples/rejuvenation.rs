//! The §3/§6 "active intervention" scenario: a road-recorded video is
//! annotated as important until a backup completes, then demoted by a
//! trigger so the storage can reclaim it.
//!
//! Run with: `cargo run --example rejuvenation`

use temporal_reclaim::tempimp::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut unit = StorageUnit::new(ByteSize::from_gib(4));
    let video = ObjectId::new(1);

    // "Video objects captured on the road are important until the user can
    // return home and successfully create a backup copy" (§3). The upload
    // application annotates with high importance and a conservative expiry.
    let on_the_road = ImportanceCurve::fixed_lifetime(SimDuration::from_days(30));
    unit.put(video, ByteSize::from_gib(2), on_the_road, SimTime::ZERO)?;
    println!(
        "day 0: road video stored at importance {}",
        unit.get(video).unwrap().current_importance(SimTime::ZERO)
    );

    // Day 20: the trip ran long — the user extends the annotation. A
    // raise-only annotation (`AnnotateMode::Raise`) restarts the curve.
    let day20 = SimTime::from_days(20);
    let extended = ImportanceCurve::fixed_lifetime(SimDuration::from_days(30));
    unit.annotate(video, extended, AnnotateMode::Raise, day20)?;
    println!(
        "day 20: rejuvenated; now expires {} days later than originally",
        20
    );

    // Lowering via a raise is refused — decay must come from the curve
    // or an explicit trigger.
    let err = unit
        .annotate(
            video,
            ImportanceCurve::Ephemeral,
            AnnotateMode::Raise,
            day20,
        )
        .unwrap_err();
    println!("day 20: lowering via rejuvenate refused: {err}");

    // Day 25: the backup application reports success and fires the §6
    // trigger: a replacing annotation demotes the local copy to cache-like
    // importance.
    let day25 = SimTime::from_days(25);
    unit.annotate(
        video,
        ImportanceCurve::Ephemeral,
        AnnotateMode::Replace,
        day25,
    )?;
    println!(
        "day 25: backup complete — demoted to importance {}",
        unit.get(video).unwrap().current_importance(day25)
    );

    // Now any incoming object reclaims that space automatically.
    let fresh = ImportanceCurve::two_step(
        Importance::FULL,
        SimDuration::from_days(15),
        SimDuration::from_days(15),
    );
    let outcome = unit.put(ObjectId::new(2), ByteSize::from_gib(3), fresh, day25)?;
    println!(
        "day 25: new capture stored; reclaimed {} old object(s) including the backed-up video: {}",
        outcome.evicted.len(),
        outcome.evicted.iter().any(|e| e.id == video)
    );
    Ok(())
}
