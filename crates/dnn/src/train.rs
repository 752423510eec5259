//! A tiny from-scratch MLP trainer for the accuracy-vs-precision study.
//!
//! The paper (§3.1) evaluates Top-1 accuracy of ResNet-18/50 with FP16
//! inference at several IPU precisions and finds: precision ≥ 12 matches
//! the FP32 model on every batch; precision 8 matches on average but
//! fluctuates per batch. We reproduce the mechanism on a model we can
//! train offline: an MLP on the Gaussian-prototype task, trained in f32
//! with plain SGD + softmax cross-entropy, then evaluated with every
//! inner product routed through the emulated `IPU(precision)`.

use crate::layers::{fp16_operands, linear_decoded, linear_f32, softmax};
use crate::synthetic::Dataset;
use crate::tensor::Tensor;
use mpipu_datapath::{FpOperand, Ipu, IpuConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A multi-layer perceptron with ReLU hidden activations.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Weight matrices, one `[out, in]` tensor per layer.
    pub weights: Vec<Tensor>,
    /// Bias vectors, one per layer.
    pub biases: Vec<Vec<f32>>,
}

impl Mlp {
    /// He-style random initialization for the given layer widths
    /// (e.g. `[64, 128, 64, 10]`).
    pub fn new(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for win in widths.windows(2) {
            let (cin, cout) = (win[0], win[1]);
            let std = (2.0 / cin as f32).sqrt();
            let data: Vec<f32> = (0..cin * cout)
                .map(|_| {
                    // Box–Muller.
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen();
                    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32 * std
                })
                .collect();
            weights.push(Tensor::from_vec(&[cout, cin], data));
            biases.push(vec![0.0; cout]);
        }
        Mlp { weights, biases }
    }

    /// Forward pass in f32; returns per-layer post-activation values
    /// (index 0 = input), with the final layer pre-softmax.
    fn forward_full(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut acts = vec![x.to_vec()];
        for (li, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let mut y = linear_f32(acts.last().unwrap(), w, b);
            if li + 1 < self.weights.len() {
                for v in &mut y {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            acts.push(y);
        }
        acts
    }

    /// f32 logits for one sample.
    pub fn logits_f32(&self, x: &[f32]) -> Vec<f32> {
        self.forward_full(x).pop().unwrap()
    }

    /// The weights decoded once for emulated replay at any IPU
    /// configuration.
    pub fn decoded(&self) -> DecodedMlp<'_> {
        DecodedMlp {
            weights: self
                .weights
                .iter()
                .map(|w| fp16_operands(w.data()))
                .collect(),
            biases: &self.biases,
        }
    }

    /// One SGD step on one sample (softmax cross-entropy). Returns loss.
    pub fn sgd_step(&mut self, x: &[f32], label: usize, lr: f32) -> f32 {
        let acts = self.forward_full(x);
        let logits = acts.last().unwrap();
        let probs = softmax(logits);
        let loss = -probs[label].max(1e-12).ln();

        // Backprop. delta = dL/d(pre-activation of layer li+1).
        let mut delta: Vec<f32> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| p - if i == label { 1.0 } else { 0.0 })
            .collect();
        for li in (0..self.weights.len()).rev() {
            let input = &acts[li];
            let (cout, cin) = (self.weights[li].shape()[0], self.weights[li].shape()[1]);
            // Gradient wrt input (needed before the weight update).
            let mut dx = vec![0.0f32; cin];
            {
                let wdat = self.weights[li].data();
                for o in 0..cout {
                    let row = &wdat[o * cin..(o + 1) * cin];
                    for (dxi, wv) in dx.iter_mut().zip(row) {
                        *dxi += delta[o] * wv;
                    }
                }
            }
            // Weight and bias update.
            let wdat = self.weights[li].data_mut();
            for o in 0..cout {
                let row = &mut wdat[o * cin..(o + 1) * cin];
                for (wv, xv) in row.iter_mut().zip(input) {
                    *wv -= lr * delta[o] * xv;
                }
                self.biases[li][o] -= lr * delta[o];
            }
            if li > 0 {
                // Through the ReLU of the previous layer.
                for (dxi, &a) in dx.iter_mut().zip(&acts[li]) {
                    if a <= 0.0 {
                        *dxi = 0.0;
                    }
                }
                delta = dx;
            }
        }
        loss
    }
}

/// An [`Mlp`] with its weights decoded for the emulated datapath: the
/// weights are the same at every precision and every sample, so a replay
/// decodes them once.
#[derive(Debug, Clone)]
pub struct DecodedMlp<'a> {
    weights: Vec<Vec<FpOperand>>,
    biases: &'a [Vec<f32>],
}

impl DecodedMlp<'_> {
    /// Logits for one sample with every linear layer run on `ipu`.
    pub fn logits(&self, ipu: &mut Ipu, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        let last = self.weights.len() - 1;
        for (li, (w, b)) in self.weights.iter().zip(self.biases).enumerate() {
            let mut y = linear_decoded(ipu, &fp16_operands(&cur), w, b);
            if li < last {
                for v in &mut y {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            cur = y;
        }
        cur
    }

    /// Per-sample Top-1 correctness on `data` through an `IPU(cfg)`: the
    /// one emulated pass that [`top1`] and [`batch_top1`] derive every
    /// accuracy statistic from.
    pub fn correct(&self, data: &Dataset, cfg: IpuConfig) -> Vec<bool> {
        let mut ipu = Ipu::new(cfg);
        (0..data.len())
            .map(|i| {
                let (x, y) = data.sample(i);
                argmax(&self.logits(&mut ipu, x)) == y
            })
            .collect()
    }
}

/// Top-1 accuracy from per-sample correctness.
pub fn top1(correct: &[bool]) -> f64 {
    correct.iter().filter(|&&c| c).count() as f64 / correct.len() as f64
}

/// Per-batch Top-1 accuracies from per-sample correctness, in batches of
/// `batch` samples (the last may be short; 0 counts as 1).
pub fn batch_top1(correct: &[bool], batch: usize) -> Vec<f64> {
    correct.chunks(batch.max(1)).map(top1).collect()
}

/// Train an MLP on a dataset with plain per-sample SGD.
pub fn train(model: &mut Mlp, data: &Dataset, epochs: usize, lr: f32) -> f32 {
    let mut last_loss = f32::NAN;
    for _ in 0..epochs {
        let mut total = 0.0;
        for i in 0..data.len() {
            let (x, y) = data.sample(i);
            total += model.sgd_step(x, y, lr);
        }
        last_loss = total / data.len() as f32;
    }
    last_loss
}

/// Top-1 accuracy of the f32 model.
pub fn accuracy_f32(model: &Mlp, data: &Dataset) -> f64 {
    let correct = (0..data.len())
        .filter(|&i| {
            let (x, y) = data.sample(i);
            argmax(&model.logits_f32(x)) == y
        })
        .count();
    correct as f64 / data.len() as f64
}

/// Top-1 accuracy with inference through the emulated IPU: one replay
/// ([`DecodedMlp::correct`]) reduced by [`top1`].
pub fn accuracy_emulated(model: &Mlp, data: &Dataset, cfg: IpuConfig) -> f64 {
    top1(&model.decoded().correct(data, cfg))
}

/// Per-batch Top-1 accuracies (the paper reports per-batch fluctuation at
/// precision 8): one replay reduced by [`batch_top1`]. A batch size of 0
/// counts as 1.
pub fn batch_accuracies_emulated(
    model: &Mlp,
    data: &Dataset,
    cfg: IpuConfig,
    batch: usize,
) -> Vec<f64> {
    batch_top1(&model.decoded().correct(data, cfg), batch)
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::gaussian_prototypes;

    fn trained_setup() -> (Mlp, Dataset, Dataset) {
        // One draw so train and test share class prototypes; the split
        // stays class-balanced because labels cycle through the classes.
        let all = gaussian_prototypes(800, 32, 10, 0.35, 41);
        let split = 600 * all.d;
        let train_set = Dataset {
            x: all.x[..split].to_vec(),
            y: all.y[..600].to_vec(),
            d: all.d,
            classes: all.classes,
        };
        let test_set = Dataset {
            x: all.x[split..].to_vec(),
            y: all.y[600..].to_vec(),
            d: all.d,
            classes: all.classes,
        };
        let mut model = Mlp::new(&[32, 48, 24, 10], 17);
        train(&mut model, &train_set, 6, 0.02);
        (model, train_set, test_set)
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let train_set = gaussian_prototypes(400, 16, 4, 0.3, 1);
        let mut model = Mlp::new(&[16, 24, 4], 2);
        let first = train(&mut model, &train_set, 1, 0.02);
        let last = train(&mut model, &train_set, 5, 0.02);
        assert!(last < first, "loss {first} → {last}");
        assert!(accuracy_f32(&model, &train_set) > 0.9);
    }

    #[test]
    fn emulated_inference_matches_f32_at_high_precision() {
        let (model, _, test_set) = trained_setup();
        let base = accuracy_f32(&model, &test_set);
        assert!(base > 0.8, "f32 accuracy {base}");
        let cfg = IpuConfig::big(28);
        let emu = accuracy_emulated(&model, &test_set, cfg);
        assert!((emu - base).abs() <= 0.02, "emulated {emu} vs f32 {base}");
    }

    #[test]
    fn precision_12_matches_but_low_precision_can_degrade() {
        let (model, _, test_set) = trained_setup();
        let base = accuracy_f32(&model, &test_set);
        let acc12 = accuracy_emulated(
            &model,
            &test_set,
            IpuConfig::big(12).with_software_precision(12),
        );
        let acc4 = accuracy_emulated(
            &model,
            &test_set,
            IpuConfig::big(4).with_software_precision(4),
        );
        assert!((acc12 - base).abs() <= 0.03, "p12 {acc12} vs {base}");
        assert!(
            acc4 <= acc12 + 1e-9,
            "p4 {acc4} should not beat p12 {acc12}"
        );
    }

    #[test]
    fn batch_accuracies_cover_dataset() {
        let (model, _, test_set) = trained_setup();
        let batches = batch_accuracies_emulated(&model, &test_set, IpuConfig::big(16), 50);
        assert_eq!(batches.len(), 4);
        assert!(batches.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn batch_size_zero_counts_as_one() {
        let data = gaussian_prototypes(24, 16, 4, 0.3, 5);
        let model = Mlp::new(&[16, 8, 4], 3);
        let cfg = IpuConfig::big(16);
        let batches = batch_accuracies_emulated(&model, &data, cfg, 0);
        assert_eq!(batches.len(), data.len());
        assert_eq!(batches, batch_accuracies_emulated(&model, &data, cfg, 1));
        assert!(batches.iter().all(|&a| a == 0.0 || a == 1.0));
    }

    #[test]
    fn mlp_shapes() {
        let m = Mlp::new(&[8, 16, 4], 1);
        assert_eq!(m.weights.len(), 2);
        assert_eq!(m.weights[0].shape(), &[16, 8]);
        assert_eq!(m.weights[1].shape(), &[4, 16]);
        assert_eq!(m.biases[1].len(), 4);
    }
}
