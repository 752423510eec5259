//! Property-based invariants of the DNN substrate.

use mpipu_datapath::{AccFormat, Ipu, IpuConfig};
use mpipu_dnn::layers::{conv2d_f32, fp16_operands, linear_decoded, linear_f32, softmax};
use mpipu_dnn::shape::ConvShape;
use mpipu_dnn::tensor::Tensor;
use mpipu_dnn::train::Mlp;
use mpipu_fp::{Fp16, FpFormat};
use proptest::prelude::*;

/// A reference emulated linear layer: raw FP16 vectors through
/// `Ipu::fp_ip_accumulate`, each weight row converted per output, a fresh
/// unit per call.
fn linear_reference(x: &[f32], weight: &Tensor, bias: &[f32], cfg: IpuConfig) -> Vec<f32> {
    let c = weight.shape()[1];
    let xa: Vec<Fp16> = x.iter().map(|&v| Fp16::from_f32(v)).collect();
    let mut ipu = Ipu::new(cfg);
    (0..weight.shape()[0])
        .map(|ok| {
            let row = &weight.data()[ok * c..(ok + 1) * c];
            let wb: Vec<Fp16> = row.iter().map(|&v| Fp16::from_f32(v)).collect();
            ipu.reset();
            let mut i = 0;
            while i < c {
                let hi = (i + cfg.n).min(c);
                ipu.fp_ip_accumulate(&xa[i..hi], &wb[i..hi]);
                i = hi;
            }
            ipu.read_fp() as f32 + bias[ok]
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conv output geometry follows the standard formula for any input.
    #[test]
    fn conv_geometry(
        c in 1usize..4, k in 1usize..4,
        h in 3usize..10, w in 3usize..10,
        r in 1usize..4, stride in 1usize..3, pad in 0usize..2,
    ) {
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= r);
        let input = Tensor::zeros(&[c, h, w]);
        let weight = Tensor::zeros(&[k, c, r, r]);
        let out = conv2d_f32(&input, &weight, stride, pad);
        let ho = (h + 2 * pad - r) / stride + 1;
        let wo = (w + 2 * pad - r) / stride + 1;
        prop_assert_eq!(out.shape(), &[k, ho, wo]);
    }

    /// Convolution is linear in the input: conv(αx) = α·conv(x).
    #[test]
    fn conv_is_linear(scale in 0.25f32..4.0, seed in 0u64..100) {
        let mut input = Tensor::zeros(&[2, 5, 5]);
        mpipu_dnn::synthetic::fill_normal(input.data_mut(), 1.0, seed);
        let mut weight = Tensor::zeros(&[3, 2, 3, 3]);
        mpipu_dnn::synthetic::fill_normal(weight.data_mut(), 0.2, seed + 1);
        let base = conv2d_f32(&input, &weight, 1, 1);
        let mut scaled = input.clone();
        for v in scaled.data_mut() {
            *v *= scale;
        }
        let out = conv2d_f32(&scaled, &weight, 1, 1);
        for (a, b) in base.data().iter().zip(out.data()) {
            prop_assert!((a * scale - b).abs() <= a.abs().max(1.0) * 1e-4);
        }
    }

    /// Softmax outputs a probability vector for any finite logits.
    #[test]
    fn softmax_is_distribution(v in prop::collection::vec(-50.0f32..50.0, 1..16)) {
        let p = softmax(&v);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // argmax preserved.
        let arg_in = v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let arg_out = p.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        prop_assert_eq!(arg_in, arg_out);
    }

    /// Emulated linear at p=28 matches f32 within FP16 quantization error.
    #[test]
    fn linear_decoded_tracks_f32(cin in 1usize..40, seed in 0u64..50) {
        let mut w = Tensor::zeros(&[4, cin]);
        mpipu_dnn::synthetic::fill_normal(w.data_mut(), 0.3, seed);
        let mut x = vec![0.0f32; cin];
        mpipu_dnn::synthetic::fill_normal(&mut x, 0.5, seed + 7);
        let b = vec![0.25f32; 4];
        let y = linear_f32(&x, &w, &b);
        let ye = linear_decoded(
            &mut Ipu::new(IpuConfig::big(28)),
            &fp16_operands(&x),
            &fp16_operands(w.data()),
            &b,
        );
        for (a, e) in y.iter().zip(&ye) {
            let tol = 2e-3 * (cin as f32).sqrt() + 1e-3;
            prop_assert!((a - e).abs() <= tol, "{a} vs {e} (cin={cin})");
        }
    }

    /// MAC accounting: tile steps × tile MACs covers the layer's MACs.
    #[test]
    fn tile_steps_cover_macs(
        c in 1usize..300, k in 1usize..300, o in 1usize..30,
    ) {
        let l = ConvShape::square(c, k, 3, o, 1);
        let steps = l.tile_steps(16, 64, 2, 2);
        // Each step issues (c_unroll · k_parallel · pixels) MAC slots.
        let slots = steps * (16 * 64 * 4) as u64;
        prop_assert!(slots >= l.macs(), "slots {slots} < macs {}", l.macs());
        // And padding waste is bounded by the unroll rounding (≤ 8× when
        // every dimension has a remainder of 1).
        prop_assert!(slots <= l.macs() * 64, "waste too large");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weights decoded once and one unit reused across layers and samples
    /// give the same bits as the raw-FP16 reference layer, layer by layer
    /// and end to end.
    #[test]
    fn decoded_layers_match_raw_fp16_reference(
        widths in prop::collection::vec(1usize..40, 2..=4),
        seed in 0u64..1000,
        n_sel in 0usize..3,
        w in 4u32..=60,
        software_precision in 0u32..=40,
        fp16_acc in any::<bool>(),
    ) {
        let mut cfg = IpuConfig::big(w).with_software_precision(software_precision);
        cfg.n = [1, 8, 16][n_sel];
        if fp16_acc {
            cfg.acc = AccFormat::Fp16;
        }
        let model = Mlp::new(&widths, seed);
        let decoded = model.decoded();
        let mut ipu = Ipu::new(cfg);
        for sample in 0..3 {
            let mut x = vec![0.0f32; widths[0]];
            mpipu_dnn::synthetic::fill_normal(&mut x, 1.0, seed + sample);
            let mut cur = x.clone();
            for (li, (w, b)) in model.weights.iter().zip(&model.biases).enumerate() {
                let want = linear_reference(&cur, w, b, cfg);
                let got = linear_decoded(&mut ipu, &fp16_operands(&cur), &fp16_operands(w.data()), b);
                prop_assert_eq!(bits(&got), bits(&want), "layer {}", li);
                cur = want;
                if li + 1 < model.weights.len() {
                    for v in &mut cur {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
            }
            prop_assert_eq!(bits(&decoded.logits(&mut ipu, &x)), bits(&cur));
        }
    }
}
