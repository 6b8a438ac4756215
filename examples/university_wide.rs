//! The §5.3 scenario: the whole university's lecture capture spread over
//! a Besteffs cluster with random-walk placement.
//!
//! Run with: `cargo run --release --example university_wide`
//! (add `-- --full` for the paper's full 2,000-node scale: 33–52 s wall
//! on 2 vCPUs, against 0.9–1.0 s for the default 1/20 scale)

use temporal_reclaim::experiments::university::{self, UniversityRunConfig};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { 1 } else { 20 };
    println!("§5.3 university-wide capture on Besteffs (scale 1/{scale}, 2 simulated years)\n");
    for capacity_gib in [80u64, 120] {
        let cfg = UniversityRunConfig::paper(13, capacity_gib, scale);
        let result = university::run(cfg);
        println!(
            "{} nodes x {capacity_gib} GiB ({:.1} TB capacity), demand {:.1} TB (pressure {:.2}):",
            result.config.nodes,
            result.capacity_bytes as f64 / 1e12,
            result.offered_bytes as f64 / 1e12,
            result.pressure()
        );
        println!(
            "  university cameras: {:>5.1}% of objects stored",
            100.0 * result.university.acceptance()
        );
        println!(
            "  student cameras:    {:>5.1}% of objects stored",
            100.0 * result.student.acceptance()
        );
        println!(
            "  placement: {:.1} probes per placed object, {:.1}% direct stores",
            result.mean_probes,
            100.0 * result.cluster_stats.direct_stores as f64
                / result.cluster_stats.placed.max(1) as f64
        );
        println!(
            "  final cluster importance density: {:.3}\n",
            result.density.values().last().copied().unwrap_or(0.0)
        );
    }
    println!(
        "Student cameras keep their fixed 50%-importance annotation; only the\n\
         available storage changes — and their acceptance rises with it."
    );
}
