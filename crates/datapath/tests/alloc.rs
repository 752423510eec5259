//! The FP16 kernel allocates nothing once a unit is built: a counting
//! global allocator watches repeated inner products on an `IPU(w)` and an
//! `MC-IPU(w)`.
//!
//! A test binary of its own, so the allocator sees only this file's work;
//! the count is per thread, so the harness's threads do not add to it.

use mpipu_datapath::{AccFormat, FpOperand, Ipu, IpuConfig};
use mpipu_fp::{Fp16, FpFormat};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may allocate after its locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Forwards to the system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Operand vectors of every length 0..=16 with zeros, subnormals and wide
/// exponent spreads, so the kernels visit empty, masked and multi-partition
/// ops.
fn vectors() -> Vec<(Vec<Fp16>, Vec<Fp16>)> {
    (0..=16)
        .map(|len| {
            let a = (0..len)
                .map(|i| match i % 4 {
                    0 => Fp16(0),
                    1 => Fp16(0x0001 + i as u16),
                    2 => Fp16::from_f32(1024.0 / (i as f32 + 1.0)),
                    _ => Fp16::from_f32(-0.003 * i as f32),
                })
                .collect();
            let b = (0..len)
                .map(|i| Fp16::from_f32(1.5 - 0.37 * i as f32))
                .collect();
            (a, b)
        })
        .collect()
}

#[test]
fn fp16_kernels_do_not_allocate_after_construction() {
    // The counter is live: a real allocation is seen.
    assert_eq!(
        allocations(|| drop(black_box(Vec::<u8>::with_capacity(8)))),
        1
    );

    let ops = vectors();
    let decoded: Vec<(Vec<FpOperand>, Vec<FpOperand>)> = ops
        .iter()
        .map(|(a, b)| {
            let dec = |v: &[Fp16]| v.iter().map(|&x| FpOperand::from_fp16(x)).collect();
            (dec(a), dec(b))
        })
        .collect();
    let mut ipu = Ipu::new(IpuConfig::big(16));
    // w = 12 under FP32 accumulation: sp = 3, so spread ops take many cycles.
    let mut mc = Ipu::multi_cycle(IpuConfig::big(12).with_acc(AccFormat::Fp32));
    ipu.fp_ip_accumulate(&ops[16].0, &ops[16].1);
    mc.fp_ip_accumulate(&ops[16].0, &ops[16].1);

    let count = allocations(|| {
        for _ in 0..4 {
            for ((a, b), (da, db)) in ops.iter().zip(&decoded) {
                black_box(ipu.fp_ip_accumulate(a, b));
                black_box(ipu.fp_ip_accumulate_decoded(da, db));
                black_box(mc.fp_ip_accumulate(a, b));
                black_box(mc.fp_ip_accumulate_decoded(da, db));
                black_box(ipu.fp_ip(a, b));
                black_box(mc.fp_ip(a, b));
            }
        }
    });
    assert_eq!(count, 0, "FP16 kernels allocated {count} times");
    assert!(mc.cycles() > 9, "the MC-IPU ran multi-cycle ops");
}
