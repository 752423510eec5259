//! Layer forward passes: a reference `f32` path and an emulated path that
//! routes every inner product through the bit-accurate IPU datapath.
//!
//! The emulated path models FP16 inference on the proposed accelerator:
//! activations and weights are rounded to FP16, inner products run on an
//! `IPU(precision)` in chunks of the IPU's lane count with a shared
//! accumulator per output element, and the accumulated result is written
//! back in the configured format (FP16 or FP32).

use crate::tensor::Tensor;
use mpipu_datapath::{FpOperand, Ipu, IpuConfig};
use mpipu_fp::{Fp16, FpFormat};

/// Reference f32 convolution: input `[C, H, W]`, weight `[K, C, R, S]`,
/// zero padding `pad`, square stride. Returns `[K, Ho, Wo]`.
pub fn conv2d_f32(input: &Tensor, weight: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (k, wc, r, s) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "channel mismatch");
    let ho = (h + 2 * pad - r) / stride + 1;
    let wo = (w + 2 * pad - s) / stride + 1;
    let mut out = Tensor::zeros(&[k, ho, wo]);
    for ok in 0..k {
        for oh in 0..ho {
            for ow in 0..wo {
                let mut acc = 0.0f32;
                for ic in 0..c {
                    for rr in 0..r {
                        for ss in 0..s {
                            let ih = oh * stride + rr;
                            let iw = ow * stride + ss;
                            if ih < pad || iw < pad {
                                continue;
                            }
                            let (ih, iw) = (ih - pad, iw - pad);
                            if ih >= h || iw >= w {
                                continue;
                            }
                            acc += input.at3(ic, ih, iw) * weight.at4(ok, ic, rr, ss);
                        }
                    }
                }
                let o = out.idx3(ok, oh, ow);
                out.data_mut()[o] = acc;
            }
        }
    }
    out
}

/// Emulated convolution: FP16 operands, IPU datapath, one accumulator per
/// output pixel. Same geometry contract as [`conv2d_f32`].
pub fn conv2d_emulated(
    input: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
    cfg: IpuConfig,
) -> Tensor {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (k, wc, r, s) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "channel mismatch");
    let ho = (h + 2 * pad - r) / stride + 1;
    let wo = (w + 2 * pad - s) / stride + 1;
    let mut out = Tensor::zeros(&[k, ho, wo]);
    let mut ipu = Ipu::new(cfg);
    let n = cfg.n;
    let mut va: Vec<Fp16> = Vec::with_capacity(n);
    let mut vb: Vec<Fp16> = Vec::with_capacity(n);
    for ok in 0..k {
        for oh in 0..ho {
            for ow in 0..wo {
                ipu.reset();
                va.clear();
                vb.clear();
                for ic in 0..c {
                    for rr in 0..r {
                        for ss in 0..s {
                            let ih = oh * stride + rr;
                            let iw = ow * stride + ss;
                            if ih < pad || iw < pad {
                                continue;
                            }
                            let (ih, iw) = (ih - pad, iw - pad);
                            if ih >= h || iw >= w {
                                continue;
                            }
                            va.push(Fp16::from_f32(input.at3(ic, ih, iw)));
                            vb.push(Fp16::from_f32(weight.at4(ok, ic, rr, ss)));
                            if va.len() == n {
                                ipu.fp_ip_accumulate(&va, &vb);
                                va.clear();
                                vb.clear();
                            }
                        }
                    }
                }
                if !va.is_empty() {
                    ipu.fp_ip_accumulate(&va, &vb);
                }
                let o = out.idx3(ok, oh, ow);
                out.data_mut()[o] = ipu.read_fp() as f32;
            }
        }
    }
    out
}

/// Reference f32 linear layer: `y = W·x + b` with `W: [K, C]`, `x: [C]`.
pub fn linear_f32(x: &[f32], weight: &Tensor, bias: &[f32]) -> Vec<f32> {
    let (k, c) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(x.len(), c);
    assert_eq!(bias.len(), k);
    (0..k)
        .map(|ok| {
            let row = &weight.data()[ok * c..(ok + 1) * c];
            let mut acc = bias[ok];
            for (xv, wv) in x.iter().zip(row) {
                acc += xv * wv;
            }
            acc
        })
        .collect()
}

/// Round `values` to FP16 and decode them for the datapath.
pub fn fp16_operands(values: &[f32]) -> Vec<FpOperand> {
    values
        .iter()
        .map(|&v| FpOperand::from_fp16(Fp16::from_f32(v)))
        .collect()
}

/// Emulated linear layer over decoded FP16 operands, behind the MLP
/// replay: output `o` resets `ipu`, accumulates `x` against row `o` of
/// `weight` (row-major `[bias.len(), x.len()]`) in chunks of the lane
/// count, and adds `bias[o]` to the write-back value (the conversion unit
/// is outside the IPU, paper Appendix B).
pub fn linear_decoded(
    ipu: &mut Ipu,
    x: &[FpOperand],
    weight: &[FpOperand],
    bias: &[f32],
) -> Vec<f32> {
    let c = x.len();
    assert_eq!(weight.len(), bias.len() * c, "weight shape mismatch");
    let n = ipu.config().n;
    bias.iter()
        .enumerate()
        .map(|(o, &b)| {
            ipu.reset();
            for (xs, ws) in x.chunks(n).zip(weight[o * c..(o + 1) * c].chunks(n)) {
                ipu.fp_ip_accumulate_decoded(xs, ws);
            }
            ipu.read_fp() as f32 + b
        })
        .collect()
}

/// Numerically stable softmax.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = x.iter().map(|&v| (v - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpipu_datapath::AccFormat;

    fn seq_tensor(shape: &[usize], scale: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..n).map(|i| ((i % 13) as f32 - 6.0) * scale).collect(),
        )
    }

    #[test]
    fn conv_identity_kernel() {
        // 1×1 kernel with weight 1.0 is the identity.
        let input = seq_tensor(&[2, 4, 4], 0.5);
        let weight = Tensor::from_vec(&[2, 2, 1, 1], vec![1.0, 0.0, 0.0, 1.0]);
        let out = conv2d_f32(&input, &weight, 1, 0);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_f32_known_3x3() {
        // Single channel, 3×3 all-ones kernel = local sum.
        let input = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|i| i as f32).collect());
        let weight = Tensor::from_vec(&[1, 1, 3, 3], vec![1.0; 9]);
        let out = conv2d_f32(&input, &weight, 1, 0);
        assert_eq!(out.shape(), &[1, 1, 1]);
        assert_eq!(out.data()[0], 45.0);
    }

    #[test]
    fn conv_padding_and_stride() {
        let input = Tensor::from_vec(&[1, 4, 4], vec![1.0; 16]);
        let weight = Tensor::from_vec(&[1, 1, 3, 3], vec![1.0; 9]);
        let out = conv2d_f32(&input, &weight, 2, 1);
        assert_eq!(out.shape(), &[1, 2, 2]);
        // Top-left window covers 4 in-bounds pixels (pad corner).
        assert_eq!(out.data()[0], 4.0);
    }

    #[test]
    fn emulated_conv_close_to_f32_at_high_precision() {
        let input = seq_tensor(&[4, 6, 6], 0.25);
        let weight = seq_tensor(&[3, 4, 3, 3], 0.125);
        let reference = conv2d_f32(&input, &weight, 1, 1);
        let cfg = IpuConfig::big(28);
        let emulated = conv2d_emulated(&input, &weight, 1, 1, cfg);
        assert_eq!(reference.shape(), emulated.shape());
        for (r, e) in reference.data().iter().zip(emulated.data()) {
            assert!(
                (r - e).abs() <= r.abs() * 1e-3 + 1e-4,
                "reference {r} vs emulated {e}"
            );
        }
    }

    #[test]
    fn emulated_conv_degrades_gracefully_at_low_precision() {
        let input = seq_tensor(&[4, 5, 5], 0.25);
        let weight = seq_tensor(&[2, 4, 3, 3], 0.125);
        let reference = conv2d_f32(&input, &weight, 1, 0);
        let lo = conv2d_emulated(
            &input,
            &weight,
            1,
            0,
            IpuConfig::big(8).with_software_precision(8),
        );
        let hi = conv2d_emulated(&input, &weight, 1, 0, IpuConfig::big(28));
        let err = |t: &Tensor| -> f32 {
            t.data()
                .iter()
                .zip(reference.data())
                .map(|(a, b)| (a - b).abs())
                .sum()
        };
        assert!(err(&lo) >= err(&hi));
    }

    #[test]
    fn linear_matches_manual() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.5, 2.0]);
        let y = linear_f32(&[1.0, 1.0, 1.0], &w, &[0.5, -0.5]);
        assert_eq!(y, vec![6.5, 1.0]);
    }

    #[test]
    fn linear_decoded_matches_reference_fp32_acc() {
        let w = seq_tensor(&[8, 37], 0.1); // odd C exercises the tail chunk
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.03) - 0.5).collect();
        let b = vec![0.1; 8];
        let y32 = linear_f32(&x, &w, &b);
        let cfg = IpuConfig::big(28).with_acc(AccFormat::Fp32);
        let ye = linear_decoded(
            &mut Ipu::new(cfg),
            &fp16_operands(&x),
            &fp16_operands(w.data()),
            &b,
        );
        for (a, e) in y32.iter().zip(&ye) {
            assert!((a - e).abs() < 5e-3, "{a} vs {e}");
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability under large inputs.
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p[1] > p[0] && p.iter().all(|v| v.is_finite()));
    }
}
