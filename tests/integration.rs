//! Cross-crate integration tests: exercise the full stack through the
//! `mpipu` facade — formats → datapath → layers → simulator → hardware
//! model — the way the experiment binaries do.

use mpipu::analysis::dist::Distribution;
use mpipu::analysis::hist::exponent_histogram;
use mpipu::analysis::sweep::{precision_sweep, SweepConfig};
use mpipu::datapath::{exact_dot_fp16, AccFormat, Ipu, IpuConfig};
use mpipu::dnn::layers::{conv2d_emulated, conv2d_f32};
use mpipu::dnn::synthetic::fill_normal;
use mpipu::dnn::tensor::Tensor;
use mpipu::dnn::zoo::{resnet18, Pass, Workload};
use mpipu::fp::{Fp16, FpFormat};
use mpipu::hw::tile_model::{TileBreakdown, TileHwConfig};
use mpipu::hw::DesignPoint;
use mpipu::sim::{run_workload, LayerPrecision, Schedule, SimDesign, SimOptions, TileConfig};
use mpipu::{Scenario, Zoo};

/// End-to-end E1 (Fig 3): at the software precision the paper recommends,
/// errors versus the FP32-CPU reference vanish for every distribution.
#[test]
fn fig3_recommended_precisions_hold_across_distributions() {
    for dist in [
        Distribution::Laplace { b: 1.0 },
        Distribution::Normal { std: 1.0 },
        Distribution::Uniform { scale: 1.0 },
        Distribution::Resnet18Like,
        Distribution::Resnet50Like,
    ] {
        let rows = precision_sweep(&SweepConfig {
            dist,
            acc: AccFormat::Fp32,
            n: 16,
            samples: 300,
            precisions: vec![28],
            seed: 99,
        });
        assert!(
            rows[0].median_rel_err_pct < 1e-4,
            "{}: rel err {} at p=28",
            dist.name(),
            rows[0].median_rel_err_pct
        );
    }
}

/// The MC-IPU delivers the same numerics as the wide-tree IPU whenever
/// it has to multi-cycle — the architectural core of the paper.
#[test]
fn mc_ipu_narrow_tree_equals_wide_tree_quality() {
    let mut sampler = mpipu::analysis::dist::Sampler::new(Distribution::BackwardLike, 5);
    let cfg_narrow = IpuConfig::big(12); // software precision 28
    let cfg_wide = IpuConfig::big(38).with_software_precision(28);
    let mut mc = Ipu::multi_cycle(cfg_narrow);
    let mut wide = Ipu::new(cfg_wide);
    for _ in 0..200 {
        let a = sampler.sample_vec(16);
        let b = sampler.sample_vec(16);
        let exact = exact_dot_fp16(&a, &b).to_f64();
        let rm = mc.fp_ip(&a, &b).fixed.to_f64();
        let rw = wide.fp_ip(&a, &b).fixed.to_f64();
        let scale = exact.abs().max(1e-30);
        // Both are approximations; the MC-IPU must not be meaningfully
        // worse than the 38-bit single-cycle tree.
        let em = (rm - exact).abs() / scale;
        let ew = (rw - exact).abs() / scale;
        // The 38-bit tree's register keeps 5 more fraction bits (its value
        // grid is 2^(exp-34) vs 2^(exp-29)), so the MC-IPU cannot match it
        // bit-for-bit; both must sit far below the 28-bit software
        // precision requirement (~2^-20 relative).
        assert!(em <= 1e-5, "MC error {em} (wide error {ew})");
        assert!(ew <= 1e-5, "wide error {ew}");
    }
}

/// A convolution layer computed on the emulated datapath converges to the
/// f32 reference as IPU precision grows (E2 mechanism).
#[test]
fn conv_layer_error_decreases_with_precision() {
    let mut input = Tensor::zeros(&[8, 8, 8]);
    fill_normal(input.data_mut(), 0.5, 3);
    input.relu_inplace();
    let mut weight = Tensor::zeros(&[4, 8, 3, 3]);
    fill_normal(weight.data_mut(), 0.1, 4);
    let reference = conv2d_f32(&input, &weight, 1, 1);
    let err = |p: u32| -> f64 {
        let out = conv2d_emulated(
            &input,
            &weight,
            1,
            1,
            IpuConfig::big(p).with_software_precision(p),
        );
        reference
            .data()
            .iter()
            .zip(out.data())
            .map(|(r, e)| (r - e).abs() as f64)
            .sum()
    };
    let (e8, e16, e28) = (err(8), err(16), err(28));
    assert!(e8 >= e16, "{e8} vs {e16}");
    assert!(e16 >= e28, "{e16} vs {e28}");
    // The p=28 residual is the FP16 input-quantization floor (the
    // emulated path rounds operands to FP16; the reference is full f32),
    // ~6e-5 per output here.
    assert!(e28 < 5e-2, "residual {e28}");
}

/// E5/E6: the simulator's headline orderings hold end to end.
#[test]
fn simulator_reproduces_fig8_orderings() {
    let opts = SimOptions {
        sample_steps: 64,
        seed: 42,
    };
    let fwd = resnet18(Pass::Forward);
    let bwd = resnet18(Pass::Backward);
    let design = |w: u32, cluster: usize| SimDesign {
        tile: TileConfig::big().with_cluster_size(cluster),
        w,
        software_precision: 28,
        n_tiles: 4,
    };
    // Precision ordering (Fig 8a).
    let n12 = run_workload(&design(12, 64), &fwd, &opts).normalized();
    let n28 = run_workload(&design(28, 64), &fwd, &opts).normalized();
    assert!(n12 > n28);
    // Backward slower than forward.
    let b16 = run_workload(&design(16, 64), &bwd, &opts).normalized();
    let f16 = run_workload(&design(16, 64), &fwd, &opts).normalized();
    assert!(b16 > f16);
    // Clustering helps (Fig 8b).
    let c1 = run_workload(&design(16, 1), &bwd, &opts).normalized();
    assert!(c1 < b16);
    // Baseline is exactly 1.
    let base = run_workload(&design(38, 64), &fwd, &opts).normalized();
    assert!((base - 1.0).abs() < 1e-9);
}

/// E7 (Fig 9): forward alignments are narrow, backward wide.
#[test]
fn exponent_statistics_match_fig9() {
    let fwd = exponent_histogram(Distribution::Resnet18Like, 8, 5000, 1);
    let bwd = exponent_histogram(Distribution::BackwardLike, 8, 5000, 1);
    assert!(
        fwd.tail_fraction(8) < 0.05,
        "forward tail {}",
        fwd.tail_fraction(8)
    );
    assert!(
        bwd.tail_fraction(8) > 0.3,
        "backward tail {}",
        bwd.tail_fraction(8)
    );
}

/// E4 + E8: hardware model and simulator compose into the Fig 10 story —
/// the proposed design points beat NO-OPT on INT efficiency.
#[test]
fn design_points_beat_baseline_on_int_efficiency() {
    let opts = SimOptions {
        sample_steps: 48,
        seed: 11,
    };
    let slowdown = {
        let d = SimDesign {
            tile: TileConfig::big().with_cluster_size(1),
            w: 16,
            software_precision: 28,
            n_tiles: 4,
        };
        let mut cycles = 0;
        let mut base = 0;
        for wl in Workload::paper_study_cases() {
            let r = run_workload(&d, &wl, &opts);
            cycles += r.total_cycles();
            base += r.total_baseline_cycles();
        }
        (cycles as f64 / base as f64).max(1.0)
    };
    let no_opt = DesignPoint {
        w: 38,
        cluster_size: 64,
        big: true,
    }
    .metrics(1.0);
    let p16 = DesignPoint {
        w: 16,
        cluster_size: 1,
        big: true,
    }
    .metrics(slowdown);
    assert!(p16.int_tops_per_mm2 > no_opt.int_tops_per_mm2);
    assert!(p16.int_tops_per_w > no_opt.int_tops_per_w);
}

/// The full FP16 surface is faithful: every finite value round-trips
/// through a 1-element IPU product with 1.0.
#[test]
fn identity_product_roundtrips_every_finite_fp16() {
    let cfg = IpuConfig {
        n: 1,
        w: 16,
        software_precision: 16,
        acc: AccFormat::Fp16,
        headroom_l: 4,
    };
    let mut ipu = Ipu::new(cfg);
    for bits in (0u16..=u16::MAX).step_by(7) {
        let x = Fp16(bits);
        if x.is_non_finite() {
            continue;
        }
        let r = ipu.fp_ip(&[x], &[Fp16::ONE]);
        assert_eq!(r.fp16.to_f64(), x.to_f64(), "bits {bits:#06x}");
    }
}

/// The `Scenario` builder reproduces the Fig 8 orderings end to end —
/// same physics as the hand-assembled path, one fluent chain.
#[test]
fn scenario_builder_reproduces_fig8_orderings() {
    let base = Scenario::big_tile()
        .workload(Zoo::ResNet18)
        .sample_steps(64)
        .seed(42);
    let n12 = base.clone().w(12).run().normalized();
    let n28 = base.clone().w(28).run().normalized();
    assert!(n12 > n28, "{n12} vs {n28}");
    let b16 = base.clone().w(16).backward().run().normalized();
    let f16 = base.clone().w(16).run().normalized();
    assert!(b16 > f16);
    let c1 = base.clone().w(16).cluster(1).backward().run().normalized();
    assert!(c1 < b16);
    let baseline = base.w(38).run().normalized();
    assert!((baseline - 1.0).abs() < 1e-9);
}

/// Scenario chains agree bit-for-bit with the explicit `SimDesign` path
/// (the determinism contract the experiment ports rely on).
#[test]
fn scenario_builder_matches_explicit_design_bit_for_bit() {
    let opts = SimOptions {
        sample_steps: 48,
        seed: 0xC0FFEE,
    };
    for w in [12u32, 16, 38] {
        let direct = run_workload(
            &SimDesign {
                tile: TileConfig::big().with_cluster_size(4),
                w,
                software_precision: 28,
                n_tiles: 4,
            },
            &resnet18(Pass::Backward),
            &opts,
        );
        let via_builder = Scenario::big_tile()
            .w(w)
            .cluster(4)
            .workload(Zoo::ResNet18)
            .backward()
            .sample_steps(48)
            .seed(0xC0FFEE)
            .run();
        assert_eq!(via_builder.result.total_cycles(), direct.total_cycles());
        assert_eq!(
            via_builder.result.total_baseline_cycles(),
            direct.total_baseline_cycles()
        );
    }
}

/// Mixed-precision schedules through the facade: the hybrid split sits
/// between all-INT4 and all-FP16, and its FP16 share is the small one.
#[test]
fn scenario_schedules_order_correctly() {
    let base = Scenario::small_tile()
        .w(12)
        .cluster(1)
        .workload(Zoo::ResNet18)
        .sample_steps(48)
        .seed(3);
    let int4 = base
        .clone()
        .schedule(Schedule::Uniform(LayerPrecision::Int { ka: 1, kb: 1 }))
        .run();
    let hybrid = base.clone().schedule(Schedule::FirstLastFp16).run();
    let fp16 = base.schedule(Schedule::Uniform(LayerPrecision::Fp16)).run();
    assert_eq!(int4.fp_fraction, 0.0);
    assert_eq!(fp16.fp_fraction, 1.0);
    assert!(hybrid.fp_fraction > 0.0 && hybrid.fp_fraction < 0.8);
    assert!(int4.result.total_cycles() < hybrid.result.total_cycles());
    assert!(hybrid.result.total_cycles() < fp16.result.total_cycles());
}

/// Hardware model sanity through the facade: monotone area in tree width.
#[test]
fn hw_model_monotone_in_tree_width() {
    let mut prev = f64::INFINITY;
    for w in [38u32, 28, 20, 12] {
        let a = TileBreakdown::model(TileHwConfig::big(w)).area_um2();
        assert!(a < prev);
        prev = a;
    }
}
