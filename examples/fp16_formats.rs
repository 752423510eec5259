//! Tour of the bit-level floating-point substrate: formats, signed
//! magnitudes, nibble decomposition, and the walk-through example of the
//! paper's Fig 4 (multi-cycle alignment).
//!
//! ```sh
//! cargo run --example fp16_formats
//! ```

use mpipu::datapath::{AccFormat, Ehu, IpuConfig, McIpu};
use mpipu::fp::{Bf16, Fp16, FpFormat, Nibbles, SignedMagnitude, Tf32};

fn main() {
    // --- Formats ---------------------------------------------------------
    for v in [1.0f32, -0.375, 65504.0, 6.1e-5, 5.96e-8] {
        let h = Fp16::from_f32(v);
        let sm = SignedMagnitude::from_fp16(h).unwrap();
        println!(
            "fp16({v:>10}) bits={:#06x} class={:?} magnitude={} exp={}",
            h.0,
            h.classify(),
            sm.m,
            sm.exp
        );
    }
    println!();
    println!("bf16(pi) = {}", Bf16::from_f32(std::f32::consts::PI));
    println!("tf32(pi) = {}", Tf32::from_f32(std::f32::consts::PI));

    // --- Nibble decomposition (paper §2.2) --------------------------------
    let sm = SignedMagnitude::from_f32_via_fp16(-1.5);
    let nb = Nibbles::from_fp16_magnitude(sm);
    println!(
        "\nsigned magnitude of -1.5 is {} -> nibbles N2={} N1={} N0={} (N0 pre-shifted)",
        sm.m, nb.n[2], nb.n[1], nb.n[0]
    );
    println!("reconstructed: {}", nb.reconstruct());

    // --- Fig 4 walk-through ------------------------------------------------
    // Products with exponents (10, 2, 3, 8), sp = 5 (w = 14): alignments
    // (0, 8, 7, 2); A and D execute in cycle 0, B and C in cycle 1.
    let ehu = Ehu::new(28);
    let plan = ehu.plan(&[Some(10), Some(2), Some(3), Some(8)]);
    println!("\nFig 4 walk-through (exponents 10, 2, 3, 8; sp = 5):");
    println!("  max exponent = {}", plan.max_exp);
    println!("  alignments   = {:?}", plan.shifts);
    println!(
        "  partitions   = {:?} -> {} cycles/iteration",
        plan.partitions_naive(5),
        plan.cycles(5)
    );

    let cfg = IpuConfig {
        n: 4,
        w: 14,
        software_precision: 28,
        acc: AccFormat::Fp32,
        headroom_l: 10,
    };
    let mc = McIpu::new(cfg);
    let a: Vec<Fp16> = [1024.0f32, 4.0, 8.0, 256.0]
        .iter()
        .map(|&x| Fp16::from_f32(x))
        .collect();
    let b = vec![Fp16::ONE; 4];
    let sched = mc.schedule(&a, &b);
    println!(
        "  MC-IPU(14) schedule: {} cycles total ({} per nibble iteration)",
        sched.total_cycles, sched.cycles_per_iteration
    );
}
