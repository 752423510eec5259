//! Sharded sweeps, distilled to the exactness contract: partition a
//! design space into `DesignId`-range units, evaluate them **out of
//! order** (here: reversed, as a work-stealing fleet might finish them),
//! merge through `ShardMerge` — and get the byte-identical frontier a
//! single uninterrupted sweep produces.
//!
//! This is the in-process miniature of `sweepctl sweep local --workers N`,
//! which runs the same partition/merge across real worker processes with
//! a durable journal (see DESIGN.md, "Sharded, durable sweeps").
//!
//! ```sh
//! cargo run --release --example sharded_sweep
//! ```

use mpipu::{Backend, Scenario, Zoo};
use mpipu_explore::{
    objectives, partition_units, Axis, NullSweepSink, ParamSpace, ParetoFold, ShardMerge,
    SweepEngine, TileChoice, UnitFold,
};

fn main() {
    // 2 tiles × 16 widths × 5 cluster sizes × 2 precisions = 320 designs.
    let space = ParamSpace::new(
        Scenario::small_tile()
            .workload(Zoo::ResNet18)
            .sample_steps(128)
            .seed(7),
    )
    .axis(Axis::tile(vec![TileChoice::Small, TileChoice::Big]))
    .axis(Axis::w_grid(8, 38, 2))
    .axis(Axis::cluster_log2(1, 16))
    .axis(Axis::software_precision(vec![16, 28]));
    let objectives = vec![
        objectives::FP_SLOWDOWN,
        objectives::INT_TOPS_PER_MM2,
        objectives::FP_TFLOPS_PER_W,
    ];
    let engine = SweepEngine::new()
        .threads(1)
        .backend(Backend::MemoizedAnalytic.instantiate());

    // The oracle: one uninterrupted sweep over the whole space.
    let reference = engine.run(&space, ParetoFold::new(objectives.clone()), &NullSweepSink);

    // The sharded run: 64-point units, evaluated in REVERSE order. The
    // merge absorbs each unit's fold as it lands, and the folds break
    // every exact tie toward the lowest id in any arrival order — so the
    // completion schedule (worker count, steals, retries) can never
    // change a result.
    let units = partition_units(space.len(), 64);
    println!(
        "sweeping {} designs as {} units, completing in reverse ...",
        space.len(),
        units.len()
    );
    let mut merge = ShardMerge::new(ParetoFold::new(objectives), None);
    for unit in units.iter().rev() {
        let front = engine.run_range(
            &space,
            unit.lo,
            unit.hi,
            ParetoFold::new(vec![
                objectives::FP_SLOWDOWN,
                objectives::INT_TOPS_PER_MM2,
                objectives::FP_TFLOPS_PER_W,
            ]),
            &NullSweepSink,
        );
        merge.offer(unit.index, UnitFold { front, top: None });
    }
    let (front, _) = merge.finish();

    assert_eq!(
        front, reference,
        "sharded merge must be exact, not approximately equal"
    );
    println!(
        "sharded frontier == uninterrupted frontier: {} Pareto-optimal designs, bit-identical",
        front.len()
    );
    println!("\ntile\tw\tcluster\tsw_prec\tfp_slowdown\tTOPS/mm2\tTFLOPS/W");
    for p in front.iter().take(8) {
        println!(
            "{}\t{:.3}\t{:.1}\t{:.3}",
            p.labels.join("\t"),
            p.values[0],
            p.values[1],
            p.values[2]
        );
    }
    if front.len() > 8 {
        println!("... and {} more", front.len() - 8);
    }
}
