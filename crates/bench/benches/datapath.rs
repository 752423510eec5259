//! Criterion throughput benchmarks of the bit-accurate emulation itself:
//! FP16 and INT inner products on IPU and MC-IPU at several precisions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpipu_analysis::dist::{Distribution, Sampler};
use mpipu_datapath::{IntSignedness, Ipu, IpuConfig};
use mpipu_fp::Fp16;

fn operands(n: usize, seed: u64) -> (Vec<Fp16>, Vec<Fp16>) {
    let mut s = Sampler::new(Distribution::Normal { std: 1.0 }, seed);
    (s.sample_vec(n), s.sample_vec(n))
}

fn bench_fp_ip(c: &mut Criterion) {
    let mut g = c.benchmark_group("fp_ip");
    for &w in &[12u32, 16, 28, 38] {
        let cfg = IpuConfig::big(w);
        let (a, b) = operands(16, 1);
        g.throughput(Throughput::Elements(16));
        g.bench_with_input(BenchmarkId::new("ipu", w), &w, |bch, _| {
            let mut ipu = Ipu::new(cfg);
            bch.iter(|| ipu.fp_ip(&a, &b));
        });
        g.bench_with_input(BenchmarkId::new("mc_ipu", w), &w, |bch, _| {
            let mut mc = Ipu::multi_cycle(cfg);
            bch.iter(|| mc.fp_ip(&a, &b));
        });
    }
    g.finish();
}

fn bench_int_ip(c: &mut Criterion) {
    let mut g = c.benchmark_group("int_ip");
    let cfg = IpuConfig::big(16);
    let a: Vec<i32> = (0..16).map(|i| (i * 7 % 15) - 8).collect();
    let b: Vec<i32> = (0..16).map(|i| (i * 11 % 15) - 7).collect();
    g.throughput(Throughput::Elements(16));
    for (label, ka, kb) in [("int4", 1usize, 1usize), ("int8", 2, 2), ("int16", 4, 4)] {
        g.bench_function(label, |bch| {
            let mut ipu = Ipu::new(cfg);
            bch.iter(|| ipu.int_ip(&a, &b, ka, kb, IntSignedness::Signed, IntSignedness::Signed));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fp_ip, bench_int_ip);
criterion_main!(benches);
