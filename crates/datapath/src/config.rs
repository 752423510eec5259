//! IPU configuration: lane count, adder-tree precision, accumulator shape.

/// Accumulation target format for FP mode (paper §3.1 considers both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccFormat {
    /// Accumulate into FP16; 16-bit software precision suffices.
    Fp16,
    /// Accumulate into FP32; 27–28-bit software precision suffices.
    Fp32,
}

impl AccFormat {
    /// The minimum IPU precision (software precision) the paper's numerical
    /// analysis found sufficient to match FP32-CPU results (§3.1):
    /// 16 bits for FP16 accumulation, 28 bits for FP32 accumulation
    /// (27 needed, 28 used in their benchmarks).
    pub fn software_precision(self) -> u32 {
        match self {
            AccFormat::Fp16 => 16,
            AccFormat::Fp32 => 28,
        }
    }
}

/// Static configuration of one inner-product unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpuConfig {
    /// Number of multiplier lanes `n` (paper uses 8 and 16).
    pub n: usize,
    /// Adder-tree precision `w` — the local shifter range and adder input
    /// bit width. The paper's designs use 12–28; the NVDLA-like baseline
    /// uses 38.
    pub w: u32,
    /// Software precision: the maximum alignment the EHU will serve;
    /// larger alignments are masked to zero (EHU stage 4). Defaults to the
    /// accumulator format's requirement.
    pub software_precision: u32,
    /// Accumulator write-back format.
    pub acc: AccFormat,
    /// Accumulation headroom `l = ⌈log2 d⌉` for `d` back-to-back
    /// accumulations without overflow (paper §2.1).
    pub headroom_l: u32,
}

impl IpuConfig {
    /// A big-tile FP32-accumulating IPU: 16 lanes, the given adder width.
    pub fn big(w: u32) -> Self {
        IpuConfig {
            n: 16,
            w,
            software_precision: AccFormat::Fp32.software_precision(),
            acc: AccFormat::Fp32,
            headroom_l: 10,
        }
    }

    /// A small-tile FP32-accumulating IPU: 8 lanes.
    pub fn small(w: u32) -> Self {
        IpuConfig {
            n: 8,
            w,
            software_precision: AccFormat::Fp32.software_precision(),
            acc: AccFormat::Fp32,
            headroom_l: 10,
        }
    }

    /// Builder: change the accumulator format (adjusts software precision).
    pub fn with_acc(mut self, acc: AccFormat) -> Self {
        self.acc = acc;
        self.software_precision = acc.software_precision();
        self
    }

    /// Builder: override the software precision (e.g. to sweep Fig 3).
    pub fn with_software_precision(mut self, p: u32) -> Self {
        self.software_precision = p;
        self
    }

    /// Adder-tree growth bits `t = ⌈log2 n⌉`.
    pub fn t(&self) -> u32 {
        growth_bits(self.n)
    }

    /// Accumulator register width: `max(33, w) + t + l` bits
    /// (paper §2.1 gives `33 + t + l` for `w ≤ 33`; wider adder trees
    /// grow the register correspondingly).
    pub fn register_bits(&self) -> u32 {
        self.w.max(33) + self.t() + self.headroom_l
    }

    /// Zero padding applied when the adder-tree result is concatenated into
    /// the accumulator: `33 − w` zeros on the right (clamped at 0 for
    /// `w > 33`).
    pub fn zero_pad(&self) -> u32 {
        33u32.saturating_sub(self.w)
    }

    /// Safe precision `sp = w − 9` (Proposition 1): alignments strictly
    /// below `sp` are served exactly by the local shifter.
    pub fn safe_precision(&self) -> u32 {
        crate::theory::safe_precision(self.w)
    }

    /// Validate the configuration, panicking with a descriptive message on
    /// nonsensical parameters.
    pub fn validate(&self) {
        assert!(
            self.n >= 1 && self.n <= 1024,
            "lane count {} out of range",
            self.n
        );
        if let Err(e) = check_adder_tree(self.w, self.n) {
            panic!("{e}");
        }
        assert!(
            self.software_precision <= 64,
            "software precision {} out of range",
            self.software_precision
        );
    }
}

/// Adder-tree growth bits `⌈log2 lanes⌉` (0 for 0 or 1 lane).
fn growth_bits(lanes: usize) -> u32 {
    usize::BITS - lanes.saturating_sub(1).leading_zeros()
}

/// Check that an IPU can be built with a `w`-bit adder tree over `lanes`
/// lanes: the tree needs at least 4 bits, and the kernel sums its
/// `w + ⌈log2 lanes⌉`-bit output in an `i64`. The error names the bound
/// `w` breaks.
pub fn check_adder_tree(w: u32, lanes: usize) -> Result<(), String> {
    let t = growth_bits(lanes);
    if w < 4 {
        return Err(format!("adder tree must be at least 4 bits, got {w}"));
    }
    if w > 64 - t {
        return Err(format!(
            "a {w}-bit adder tree over {lanes} lanes needs w + t = {} bits, beyond the \
             64-bit adder-tree sum (w <= {} at this lane count)",
            u64::from(w) + u64::from(t),
            64 - t
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_is_ceil_log2() {
        assert_eq!(
            IpuConfig {
                n: 1,
                ..IpuConfig::big(16)
            }
            .t(),
            0
        );
        assert_eq!(
            IpuConfig {
                n: 2,
                ..IpuConfig::big(16)
            }
            .t(),
            1
        );
        assert_eq!(
            IpuConfig {
                n: 8,
                ..IpuConfig::big(16)
            }
            .t(),
            3
        );
        assert_eq!(
            IpuConfig {
                n: 9,
                ..IpuConfig::big(16)
            }
            .t(),
            4
        );
        assert_eq!(
            IpuConfig {
                n: 16,
                ..IpuConfig::big(16)
            }
            .t(),
            4
        );
    }

    #[test]
    fn register_width_matches_paper() {
        // Paper: 33 + t + l.
        let c = IpuConfig::big(28);
        assert_eq!(c.register_bits(), 33 + 4 + 10);
        let c = IpuConfig::small(12);
        assert_eq!(c.register_bits(), 33 + 3 + 10);
        // NVDLA-like 38-bit tree grows the register.
        let c = IpuConfig::big(38);
        assert_eq!(c.register_bits(), 38 + 4 + 10);
    }

    #[test]
    fn zero_pad_clamps() {
        assert_eq!(IpuConfig::big(28).zero_pad(), 5);
        assert_eq!(IpuConfig::big(12).zero_pad(), 21);
        assert_eq!(IpuConfig::big(38).zero_pad(), 0);
    }

    #[test]
    fn software_precision_defaults() {
        assert_eq!(
            IpuConfig::big(16)
                .with_acc(AccFormat::Fp16)
                .software_precision,
            16
        );
        assert_eq!(IpuConfig::big(16).software_precision, 28);
    }

    #[test]
    #[should_panic(expected = "at least 4 bits")]
    fn rejects_tiny_adder() {
        IpuConfig::big(3).validate();
    }

    #[test]
    #[should_panic(expected = "w + t = 65 bits")]
    fn rejects_adder_tree_sum_beyond_64_bits() {
        IpuConfig::big(61).validate();
    }

    #[test]
    fn adder_tree_check_does_not_panic_at_the_extremes() {
        assert!(check_adder_tree(0, 0).is_err());
        assert!(check_adder_tree(u32::MAX, usize::MAX)
            .unwrap_err()
            .contains("w + t = 4294967359 bits"));
        assert_eq!(check_adder_tree(64, 1), Ok(()));
        assert_eq!(check_adder_tree(4, 0), Ok(()));
    }

    #[test]
    fn adder_tree_bound_follows_lane_count() {
        IpuConfig::big(60).validate();
        IpuConfig::small(61).validate();
        IpuConfig {
            n: 1,
            ..IpuConfig::big(64)
        }
        .validate();
    }
}
