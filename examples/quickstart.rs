//! Quickstart: compose a scenario with the `Scenario` builder, then drop
//! down to the bit-accurate datapath for single inner products.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Runs at smoke scale (small sampled-step counts) so CI can execute it
//! on every push; scale up with `.sample_steps(512)` for paper fidelity.

use mpipu::datapath::{exact_dot_fp16, IntSignedness, Ipu, IpuConfig};
use mpipu::fp::{Fp16, FpFormat};
use mpipu::sim::Schedule;
use mpipu::{Scenario, Zoo};

fn main() {
    // --- Scenario API: whole-workload studies in one chain ---------------
    // The paper's headline question: what does a narrow (12-bit) adder
    // tree cost on ResNet-18, relative to the wide-tree baseline?
    let narrow = Scenario::big_tile()
        .w(12)
        .workload(Zoo::ResNet18)
        .seed(7)
        .sample_steps(32); // smoke scale
    let slowdown = narrow.run().normalized();
    println!("MC-IPU(12), big tile, ResNet-18 fwd: {slowdown:.2}x the baseline time");

    // Backward gradients have a wider dynamic range — same chain, one
    // more call.
    let bwd = narrow.clone().backward().run().normalized();
    println!("  …and {bwd:.2}x on the backward pass");

    // Clustering claws the loss back (§3.3), and the hardware model
    // prices the design point.
    let clustered = narrow.cluster(1);
    let sd = clustered.run().normalized();
    let m = clustered.metrics(sd);
    println!(
        "  cluster=1: {sd:.2}x, {:.1} TOPS/mm2, {:.2} TFLOPS/W effective",
        m.int_tops_per_mm2, m.fp_tflops_per_w
    );

    // Mixed-precision deployment: INT4 body, FP16 first/last layers.
    let hybrid = Scenario::small_tile()
        .w(12)
        .cluster(1)
        .workload(Zoo::ResNet18)
        .schedule(Schedule::FirstLastFp16)
        .sample_steps(32)
        .run();
    println!(
        "hybrid INT4+FP16-ends: {:.0}% of MAC work in FP16, {:.2}x vs all-INT4 baseline\n",
        100.0 * hybrid.fp_fraction,
        hybrid.normalized()
    );

    // --- Datapath level: single inner products, bit-accurate -------------
    // A 16-lane IPU with a 28-bit adder tree (the precision the paper
    // shows preserves FP32-CPU accuracy for FP32 accumulation).
    let cfg = IpuConfig::big(28);
    let mut ipu = Ipu::new(cfg);

    let a: Vec<Fp16> = [1.5f32, -2.25, 0.125, 1024.0, 3.75, -0.5, 2.0, 0.25]
        .iter()
        .map(|&x| Fp16::from_f32(x))
        .collect();
    let b: Vec<Fp16> = [0.5f32, 1.5, -8.0, 0.001, 2.5, 4.0, -1.25, 16.0]
        .iter()
        .map(|&x| Fp16::from_f32(x))
        .collect();

    let result = ipu.fp_ip(&a, &b);
    let exact = exact_dot_fp16(&a, &b).to_f64();
    println!("FP16 inner product on IPU(28):");
    println!("  approximate (datapath) = {}", result.f32);
    println!("  exact                  = {exact}");
    println!(
        "  cycles                 = {} (9 nibble iterations)",
        result.cycles
    );

    // The same dot product on a narrow multi-cycle unit: MC-IPU(12)
    // keeps a 12-bit adder tree but serves 28-bit alignments over
    // multiple cycles, trading FP throughput for area.
    let mut mc = Ipu::multi_cycle(IpuConfig::big(12)); // software precision stays 28
    let mc_result = mc.fp_ip(&a, &b);
    println!("\nSame operands on MC-IPU(12):");
    println!("  result = {} ({} cycles)", mc_result.f32, mc_result.cycles);

    // INT modes share the multiplier array.
    let xs = [1, -2, 3, -4, 5, -6, 7, -8];
    let ws = [7, 6, 5, 4, 3, 2, 1, 0];
    let mut int_ipu = Ipu::new(IpuConfig::small(16));
    let dot = int_ipu.int_ip(&xs, &ws, 1, 1, IntSignedness::Signed, IntSignedness::Signed);
    let expect: i128 = xs.iter().zip(&ws).map(|(&x, &w)| (x * w) as i128).sum();
    println!("\nINT4 inner product: {dot} (expected {expect}), 1 cycle");
}
