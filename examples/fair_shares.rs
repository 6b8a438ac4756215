//! Multi-user fairness (§1) plus the annotation advisor (§5.1.2):
//! importance-weighted budgets stop greedy users from monopolizing the
//! store, and the advisor tells each user what annotation will actually
//! survive.
//!
//! Run with: `cargo run --example fair_shares`

use temporal_reclaim::core::protocol::StoreApi;
use temporal_reclaim::core::{
    Advisor, FairStore, FairStoreError, Forecast, Importance, ImportanceCurve, ObjectIdGen,
    ObjectSpec, PrincipalId, StorageUnit,
};
use temporal_reclaim::{ByteSize, SimDuration, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let unit = StorageUnit::new(ByteSize::from_gib(4));
    let mut store = FairStore::new(unit, ByteSize::from_gib(1));
    let mut ids = ObjectIdGen::new();

    let greedy = PrincipalId::new(1);
    let honest = PrincipalId::new(2);

    // The greedy user annotates everything at importance 1.0; the honest
    // user admits their media is only half-important. Same budget. Objects
    // expire after a day, so the disk cycles and steady-state throughput
    // is governed by each user's weighted budget.
    for round in 0..240 {
        let at = SimTime::from_hours(round);
        store.sweep_expired(at);
        for (who, importance) in [(greedy, 1.0), (honest, 0.5)] {
            let spec = ObjectSpec::new(
                ids.next_id(),
                ByteSize::from_mib(64),
                ImportanceCurve::Fixed {
                    importance: Importance::new_clamped(importance),
                    expiry: SimDuration::from_days(1),
                },
            );
            match store.store(who, spec, at) {
                Ok(_) => {}
                // Quota refusals and engine fullness are both expected
                // once the disk saturates.
                Err(FairStoreError::QuotaExceeded { .. }) => {}
                Err(FairStoreError::Store(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    for (label, who) in [("greedy (1.0)", greedy), ("honest (0.5)", honest)] {
        let usage = store.usage(who);
        println!(
            "{label}: {} objects stored, {} refused by quota, {:.0} MiB weighted charge",
            usage.accepted,
            usage.quota_refusals,
            usage.charged as f64 / (1024.0 * 1024.0),
        );
    }
    println!();

    // Now the advisor closes the loop on a *saturated* disk: what should
    // a newcomer request to actually survive?
    let mut busy = StorageUnit::new(ByteSize::from_gib(2));
    for i in 0..32 {
        let curve = ImportanceCurve::Fixed {
            importance: Importance::new_clamped(0.5),
            expiry: SimDuration::from_days(30),
        };
        busy.put(
            ids.next_id(),
            ByteSize::from_mib(64),
            curve,
            SimTime::from_minutes(i),
        )?;
    }
    let advisor = Advisor::from_snapshot(busy.density_snapshot(SimTime::from_days(10)));
    let size = ByteSize::from_mib(256);
    println!(
        "advisor: a {size} object currently needs importance > {}",
        advisor.admission_threshold_for(size)
    );
    let curve = ImportanceCurve::two_step(
        Importance::new_clamped(0.8),
        SimDuration::from_days(10),
        SimDuration::from_days(10),
    );
    match advisor.forecast(&curve, size) {
        Forecast::Admitted { expected_survival } => println!(
            "advisor: a 0.8-plateau two-step annotation is admitted, expected survival {}",
            expected_survival
                .map(|d| d.to_string())
                .unwrap_or_else(|| "full lifetime".into())
        ),
        Forecast::Rejected { threshold } => {
            println!("advisor: rejected — must exceed importance {threshold}")
        }
        _ => {}
    }
    if let Some(plateau) = advisor.min_plateau_for(
        size,
        SimDuration::from_days(10),
        SimDuration::from_days(10),
        SimDuration::from_days(12),
    ) {
        println!("advisor: to survive 12 days, request a plateau of at least {plateau}");
    }
    Ok(())
}
