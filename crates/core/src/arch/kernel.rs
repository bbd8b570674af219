//! Computation kernels fed by the Smache tuple stream.

use smache_sim::{ResourceUsage, Word};

/// A combinational reduction over one stencil tuple.
///
/// The Smache module hands the kernel the gathered tuple *positionally*:
/// `values[p]` holds the data of shape point `p` and bit `p` of `mask` is
/// set when that point exists for this element (boundary skips clear the
/// bit and zero the slot). This mirrors the `val_p`/`valid_mask` port
/// interface of the generated RTL, and lets kernels weight points by their
/// position in the shape.
///
/// Kernels must be pure functions of `(values, mask)`: the golden
/// reference evaluates the same function software-side, and the validation
/// suite requires bit-identical results.
pub trait Kernel {
    /// Kernel name for reports.
    fn name(&self) -> &str;

    /// Computes the output word for one gathered tuple.
    fn apply(&self, values: &[Word], mask: u64) -> Word;

    /// Computes `out.len()` tuples at once, all under `mask`: tuple `i`
    /// is `slots[p][i]` for every shape point `p`, so each `slots[p]`
    /// holds at least `out.len()` words. Replay calls it once per run of
    /// elements that share a stencil case, and its tuples are the run's
    /// (element, lane) pairs.
    ///
    /// Must equal calling [`Kernel::apply`] once per tuple, which is what
    /// the default does; a kernel overrides it to drop the per-tuple
    /// dispatch from its inner loop.
    fn apply_lanes(&self, slots: &[&[Word]], mask: u64, out: &mut [Word]) {
        let mut stack = [0; MASK_BITS];
        let mut heap = Vec::new();
        let values = if slots.len() <= MASK_BITS {
            &mut stack[..slots.len()]
        } else {
            heap.resize(slots.len(), 0);
            &mut heap[..]
        };
        for (l, o) in out.iter_mut().enumerate() {
            for (v, s) in values.iter_mut().zip(slots) {
                *v = s[l];
            }
            *o = self.apply(values, mask);
        }
    }

    /// Pipeline latency in cycles between tuple input and result output.
    fn latency(&self) -> u64 {
        1
    }

    /// Synthesised footprint of the kernel datapath.
    fn resources(&self) -> ResourceUsage;
}

/// Points a `u64` mask can name: the most slots a tuple's present points
/// come from, and the slots the default [`Kernel::apply_lanes`] gathers
/// on the stack.
const MASK_BITS: usize = 64;

/// Exact division by a point count `d` in `1..=64` without a divide
/// instruction: a multiply-high by `c = ⌈2^128 / d⌉`. With a 128-bit
/// fraction the quotient is exact for every 64-bit dividend (Lemire, Kaser
/// & Kurz, "Faster remainder by direct computation", 2019: exactness needs
/// `64 + log2 d` fraction bits). `c = 0` encodes `d = 1`. Dividends below
/// [`SMALL_SUM`] take a 64-bit multiply-high by `c64 = ⌈2^64 / d⌉`
/// instead, exact there by the same bound (`58 + 6 ≤ 64`).
#[derive(Debug, Clone, Copy)]
struct Reciprocal {
    c: u128,
    c64: u64,
    d: u64,
}

/// Sums below this divide exactly through [`Reciprocal::div_small`].
const SMALL_SUM: u64 = 1 << 58;

/// Words below this sum below [`SMALL_SUM`] over any [`MASK_BITS`] points.
const SMALL_WORD: u64 = 1 << 52;

const _: () = assert!((SMALL_WORD - 1) * (MASK_BITS as u64) < SMALL_SUM);

/// [`Reciprocal`] of every count a `u64` mask can hold, index = count.
/// Entry 0 is never divided by: callers return 0 for an empty tuple.
const RECIPROCALS: [Reciprocal; MASK_BITS + 1] = {
    let mut table = [Reciprocal { c: 0, c64: 0, d: 1 }; MASK_BITS + 1];
    let mut d = 2;
    while d <= MASK_BITS {
        table[d] = Reciprocal {
            c: u128::MAX / d as u128 + 1,
            c64: u64::MAX / d as u64 + 1,
            d: d as u64,
        };
        d += 1;
    }
    table
};

impl Reciprocal {
    /// `n / d`.
    #[inline]
    fn div(self, n: u64) -> u64 {
        if self.c == 0 {
            return n;
        }
        // ⌊c·n / 2^128⌋ from two 64×64 products.
        let n = n as u128;
        let hi = (self.c >> 64) * n;
        let lo = (self.c as u64 as u128 * n) >> 64;
        ((hi + lo) >> 64) as u64
    }

    /// `n / d` for `n` below [`SMALL_SUM`] (any other `n` gives a wrong
    /// quotient): one 64×64 product.
    #[inline]
    fn div_small(self, n: u64) -> u64 {
        if self.c64 == 0 {
            return n;
        }
        ((n as u128 * self.c64 as u128) >> 64) as u64
    }

    /// `sum / d` for a `u128` sum: the multiply-high when the sum fits 64
    /// bits, `u128` division when it carries past them.
    #[inline]
    fn div_wide(self, sum: u128) -> u64 {
        match u64::try_from(sum) {
            Ok(sum) => self.div(sum),
            Err(_) => (sum / self.d as u128) as u64,
        }
    }
}

/// [`AverageKernel::apply_lanes`] over the `present` slots: each tuple
/// sums in a `u64` and divides through [`Reciprocal::div_small`], while
/// the present words are ORed together; when any word reaches
/// [`SMALL_WORD`] the sums may not fit, and the call is redone in `u128`.
#[inline(always)]
fn average_rows(present: &[&[Word]], out: &mut [Word]) {
    let recip = RECIPROCALS[present.len()];
    let mut any = 0;
    for (l, o) in out.iter_mut().enumerate() {
        let mut sum = 0u64;
        for s in present {
            sum = sum.wrapping_add(s[l]);
            any |= s[l];
        }
        *o = recip.div_small(sum);
    }
    if any >= SMALL_WORD {
        for (l, o) in out.iter_mut().enumerate() {
            let sum: u128 = present.iter().map(|s| s[l] as u128).sum();
            *o = recip.div_wide(sum);
        }
    }
}

/// [`average_rows`] for exactly `K` present points: the fixed-size slot
/// array lets the compiler unroll the sum and drop the per-tuple bounds
/// checks.
#[inline(always)]
fn average_fixed<'a, const K: usize>(
    mut present: impl Iterator<Item = &'a [Word]>,
    out: &mut [Word],
) {
    let p: [&[Word]; K] = std::array::from_fn(|_| present.next().expect("K present points"));
    average_rows(&p, out);
}

/// A mask with the low `bits` bits set.
fn low_bits(bits: usize) -> u64 {
    if bits >= MASK_BITS {
        u64::MAX
    } else {
        (1 << bits) - 1
    }
}

/// Iterates the present values of a masked tuple.
#[inline]
pub fn present(values: &[Word], mask: u64) -> impl Iterator<Item = Word> + '_ {
    values
        .iter()
        .enumerate()
        .filter(move |(p, _)| mask & (1 << p) != 0)
        .map(|(_, &v)| v)
}

/// The paper's validation kernel: a 4-point averaging filter, generalised
/// to the integer mean of however many points the boundary case supplies.
#[derive(Debug, Clone, Copy, Default)]
pub struct AverageKernel;

impl Kernel for AverageKernel {
    fn name(&self) -> &str {
        "average"
    }

    fn apply(&self, values: &[Word], mask: u64) -> Word {
        let count = (mask & low_bits(values.len())).count_ones() as usize;
        if count == 0 {
            return 0;
        }
        let sum: u128 = present(values, mask).map(|v| v as u128).sum();
        RECIPROCALS[count].div_wide(sum)
    }

    /// Tuple-outer: each tuple sums its present points and divides by the
    /// mask's point count through an exact multiply-high reciprocal — in
    /// 64 bits while every word is below 2^52, else in `u128` (with
    /// `u128` division only when a sum carries past 64 bits).
    fn apply_lanes(&self, slots: &[&[Word]], mask: u64, out: &mut [Word]) {
        let lanes = out.len();
        let slots = &slots[..slots.len().min(MASK_BITS)];
        let count = (mask & low_bits(slots.len())).count_ones() as usize;
        let present = slots
            .iter()
            .enumerate()
            .filter(|&(p, _)| mask & (1 << p) != 0)
            .map(|(_, s)| &s[..lanes]);
        // One monomorphised loop per count of present points covers every
        // built-in 2D/3D shape up to nine points; wider rows take the
        // general loop.
        match count {
            0 => out.fill(0),
            1 => average_fixed::<1>(present, out),
            2 => average_fixed::<2>(present, out),
            3 => average_fixed::<3>(present, out),
            4 => average_fixed::<4>(present, out),
            5 => average_fixed::<5>(present, out),
            6 => average_fixed::<6>(present, out),
            7 => average_fixed::<7>(present, out),
            8 => average_fixed::<8>(present, out),
            9 => average_fixed::<9>(present, out),
            _ => average_rows(&present.collect::<Vec<_>>(), out),
        }
    }

    fn latency(&self) -> u64 {
        2 // adder tree stage + divide/normalise stage
    }

    fn resources(&self) -> ResourceUsage {
        // Calibrated to the paper's §IV prose: the Smache 11×11 build
        // reports 1088 registers against 998 of buffer+controller state;
        // the ~90-register, ~24-ALM difference is this kernel's pipeline.
        ResourceUsage {
            alms: 24,
            registers: 90,
            bram_bits: 0,
            dsps: 0,
        }
    }
}

/// Sum reduction (wrapping), useful for integral-image style workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumKernel;

impl Kernel for SumKernel {
    fn name(&self) -> &str {
        "sum"
    }

    fn apply(&self, values: &[Word], mask: u64) -> Word {
        present(values, mask).fold(0u64, |a, v| a.wrapping_add(v))
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage {
            alms: 16,
            registers: 64,
            bram_bits: 0,
            dsps: 0,
        }
    }
}

/// Maximum reduction (morphological dilation and similar filters).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxKernel;

impl Kernel for MaxKernel {
    fn name(&self) -> &str {
        "max"
    }

    fn apply(&self, values: &[Word], mask: u64) -> Word {
        present(values, mask).max().unwrap_or(0)
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage {
            alms: 12,
            registers: 48,
            bram_bits: 0,
            dsps: 0,
        }
    }
}

/// A positionally weighted stencil kernel with fixed-point weights:
/// `result = Σ w_p·v_p / Σ w_p` over the *present* points — the masked
/// normalisation keeps boundary cases well-defined (e.g. a Laplacian-style
/// smoother with a heavier centre).
#[derive(Debug, Clone)]
pub struct WeightedKernel {
    name: String,
    weights: Vec<u64>,
}

impl WeightedKernel {
    /// Creates a weighted kernel; `weights[p]` multiplies shape point `p`.
    /// At least one weight must be non-zero.
    pub fn new(name: &str, weights: Vec<u64>) -> Result<Self, crate::CoreError> {
        if weights.is_empty() || weights.iter().all(|&w| w == 0) {
            return Err(crate::CoreError::KernelNeedsNonZeroWeight);
        }
        Ok(WeightedKernel {
            name: name.to_string(),
            weights,
        })
    }

    /// The weight vector.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }
}

impl Kernel for WeightedKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&self, values: &[Word], mask: u64) -> Word {
        let mut num: u128 = 0;
        let mut den: u128 = 0;
        for (p, &v) in values.iter().enumerate() {
            if mask & (1 << p) != 0 {
                let w = self.weights.get(p).copied().unwrap_or(0) as u128;
                num += w * v as u128;
                den += w;
            }
        }
        num.checked_div(den).unwrap_or(0) as Word
    }

    fn latency(&self) -> u64 {
        3 // multiply, adder tree, normalise
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage {
            alms: 30,
            registers: 120,
            bram_bits: 0,
            dsps: self.weights.iter().filter(|&&w| w > 1).count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u64 = 0b1111;

    #[test]
    fn average_is_integer_mean_over_present() {
        assert_eq!(AverageKernel.apply(&[1, 2, 3, 4], ALL), 2); // 10/4
        assert_eq!(AverageKernel.apply(&[10, 20, 30], 0b111), 20);
        assert_eq!(AverageKernel.apply(&[7], 1), 7);
        assert_eq!(AverageKernel.apply(&[], 0), 0);
        // Masked-out points do not count: west (slot 1) absent.
        assert_eq!(AverageKernel.apply(&[9, 999, 3, 3], 0b1101), 5); // 15/3
    }

    #[test]
    fn average_does_not_overflow_on_large_words() {
        let big = u64::MAX - 1;
        assert_eq!(AverageKernel.apply(&[big, big, big, big], ALL), big);
    }

    #[test]
    fn sum_wraps_and_respects_mask() {
        assert_eq!(SumKernel.apply(&[u64::MAX, 2], 0b11), 1);
        assert_eq!(SumKernel.apply(&[1, 2, 3], 0b111), 6);
        assert_eq!(SumKernel.apply(&[1, 2, 3], 0b101), 4);
    }

    #[test]
    fn max_reduction() {
        assert_eq!(MaxKernel.apply(&[3, 9, 1], 0b111), 9);
        assert_eq!(MaxKernel.apply(&[3, 9, 1], 0b101), 3);
        assert_eq!(MaxKernel.apply(&[], 0), 0);
    }

    #[test]
    fn weighted_kernel_normalises_over_present_weights() {
        // Laplacian-ish: centre weight 4, neighbours 1 (5-point order:
        // N, W, centre, E, S).
        let k = WeightedKernel::new("laplace", vec![1, 1, 4, 1, 1]).unwrap();
        // All present: (10+20+4*30+40+50)/8 = 240/8 = 30.
        assert_eq!(k.apply(&[10, 20, 30, 40, 50], 0b11111), 30);
        // West missing: (10+4*30+40+50)/7 = 220/7 = 31.
        assert_eq!(k.apply(&[10, 0, 30, 40, 50], 0b11101), 31);
        assert_eq!(k.apply(&[1, 2, 3, 4, 5], 0), 0);
    }

    #[test]
    fn weighted_kernel_validation() {
        assert!(WeightedKernel::new("w", vec![]).is_err());
        assert!(WeightedKernel::new("w", vec![0, 0]).is_err());
        let k = WeightedKernel::new("w", vec![2, 0, 1]).unwrap();
        assert_eq!(k.weights(), &[2, 0, 1]);
        assert!(k.resources().dsps >= 1);
    }

    #[test]
    fn latencies_and_resources() {
        assert_eq!(AverageKernel.latency(), 2);
        assert_eq!(SumKernel.latency(), 1);
        assert_eq!(AverageKernel.resources().registers, 90);
        assert_eq!(AverageKernel.resources().alms, 24);
    }

    #[test]
    fn present_iterator() {
        let vals = [5u64, 6, 7, 8];
        let got: Vec<u64> = present(&vals, 0b1010).collect();
        assert_eq!(got, vec![6, 8]);
    }

    #[test]
    fn reciprocal_division_is_exact_for_every_row_count() {
        for d in 1..=64u64 {
            let r = RECIPROCALS[d as usize];
            assert_eq!(r.d, d);
            let mut dividends = vec![0, d - 1, d, u64::MAX, u64::MAX - 1];
            for k in [2, 3, 1000, u64::MAX / d - 1, u64::MAX / d] {
                dividends.push(k * d);
                dividends.push(k * d - 1);
                dividends.push((k * d).saturating_add(1));
            }
            for n in dividends {
                assert_eq!(r.div(n), n / d, "{n} / {d}");
            }
        }
    }

    #[test]
    fn small_reciprocal_is_exact_below_the_small_sum_bound() {
        let top = SMALL_SUM - 1;
        for d in 1..=64u64 {
            let r = RECIPROCALS[d as usize];
            let mut dividends = vec![0, 1, d - 1, d, d + 1, top - 1, top];
            for k in [2, 3, 1000, top / d - 1, top / d] {
                dividends.extend([k * d - 1, k * d, k * d + 1]);
            }
            // The largest sum of 64 words below 2^52.
            dividends.push((SMALL_WORD - 1) * 64);
            for n in dividends.into_iter().filter(|&n| n < SMALL_SUM) {
                assert_eq!(r.div_small(n), n / d, "{n} / {d}");
            }
        }
    }

    #[test]
    fn average_lanes_take_the_carry_path_past_64_bits() {
        let big = [u64::MAX; 3];
        let small = [6u64, 9, 1];
        let slots: Vec<&[u64]> = vec![&big, &small, &big];
        let mut out = [0u64; 3];
        AverageKernel.apply_lanes(&slots, 0b111, &mut out);
        for (l, &o) in out.iter().enumerate() {
            assert_eq!(o, AverageKernel.apply(&[big[l], small[l], big[l]], 0b111));
        }
        AverageKernel.apply_lanes(&slots, 0, &mut out);
        assert_eq!(out, [0; 3]);
    }

    #[test]
    fn kernels_are_object_safe() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(AverageKernel),
            Box::new(SumKernel),
            Box::new(MaxKernel),
            Box::new(WeightedKernel::new("w", vec![1, 2]).unwrap()),
        ];
        for k in &kernels {
            let _ = k.apply(&[1, 2], 0b11);
            assert!(!k.name().is_empty());
        }
    }
}
