//! `Kernel::apply_lanes` ≡ `Kernel::apply`, lane for lane.
//!
//! Replay calls `apply_lanes` once per run of elements that share a
//! stencil case; the cycle engine and the golden model call `apply` once
//! per tuple.
//! The two must agree bit for bit for every kernel, every mask and every
//! word — including words at 2^52, where `AverageKernel` leaves its
//! 64-bit sums for `u128` ones, and words whose sum overflows 64 bits,
//! which take its `u128` carry path instead of its reciprocal.

use proptest::prelude::*;
use smache::arch::kernel::{AverageKernel, Kernel, MaxKernel, SumKernel, WeightedKernel};

fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(AverageKernel),
        Box::new(SumKernel),
        Box::new(MaxKernel),
        Box::new(WeightedKernel::new("weighted", (1..=13).collect()).expect("non-zero weights")),
    ]
}

/// splitmix64: the lane words are a pure function of the case seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Words below this keep `AverageKernel`'s sums in 64 bits.
const SMALL_WORD: u64 = 1 << 52;

/// `arity` slot slices of `lanes` words each. `scale` picks full-range
/// words, words below 2^20 (the seeded inputs' range), words near
/// `u64::MAX` (every sum of two or more overflows 64 bits), or the
/// boundary words 2^52 − 1 and 2^52.
fn slot_words(arity: usize, lanes: usize, scale: u8, seed: u64) -> Vec<Vec<u64>> {
    let mut state = seed;
    (0..arity)
        .map(|_| {
            (0..lanes)
                .map(|_| {
                    let w = next(&mut state);
                    match scale {
                        0 => w,
                        1 => w >> 44,
                        2 => u64::MAX - (w >> 56),
                        _ => SMALL_WORD - (w & 1),
                    }
                })
                .collect()
        })
        .collect()
}

/// The integer mean over the present points, written out with one `u128`
/// division: an oracle for `AverageKernel` that shares none of its code.
fn reference_average(values: &[u64], mask: u64) -> u64 {
    let present: Vec<u128> = values
        .iter()
        .enumerate()
        .filter(|&(p, _)| mask >> p & 1 == 1)
        .map(|(_, &v)| v as u128)
        .collect();
    match present.len() {
        0 => 0,
        n => (present.iter().sum::<u128>() / n as u128) as u64,
    }
}

fn assert_lanes_match_apply(
    words: &[Vec<u64>],
    mask: u64,
    lanes: usize,
) -> Result<(), TestCaseError> {
    let slots: Vec<&[u64]> = words.iter().map(|w| w.as_slice()).collect();
    for kernel in kernels() {
        let mut out = vec![0xDEAD_BEEF; lanes];
        kernel.apply_lanes(&slots, mask, &mut out);
        for (l, &got) in out.iter().enumerate() {
            let values: Vec<u64> = words.iter().map(|w| w[l]).collect();
            if kernel.name() == "average" {
                prop_assert_eq!(
                    got,
                    reference_average(&values, mask),
                    "reference, lane {}",
                    l
                );
            }
            prop_assert_eq!(
                got,
                kernel.apply(&values, mask),
                "{} lane {} mask {:#b}",
                kernel.name(),
                l,
                mask
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn apply_lanes_equals_apply_per_lane(
        arity in 1usize..14,
        lanes in 1usize..41,
        mask in prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
        scale in 0u8..4,
        seed in any::<u64>(),
    ) {
        assert_lanes_match_apply(&slot_words(arity, lanes, scale, seed), mask, lanes)?;
    }
}

/// Slot slices longer than the lane count: kernels read only the first
/// `out.len()` words of each, as replay hands them exact-length slices
/// but the contract allows more.
#[test]
fn apply_lanes_reads_only_the_first_out_len_words() {
    let words = slot_words(5, 12, 0, 7);
    let slots: Vec<&[u64]> = words.iter().map(|w| w.as_slice()).collect();
    for kernel in kernels() {
        let mut short = vec![0; 4];
        kernel.apply_lanes(&slots, 0b10111, &mut short);
        let mut full = vec![0; 12];
        kernel.apply_lanes(&slots, 0b10111, &mut full);
        assert_eq!(short, full[..4], "{}", kernel.name());
    }
}

/// Words up to 2^52 − 1 keep the 64-bit sums, up to 64 points; one word
/// of 2^52 anywhere in the call sends the whole call to `u128`. Both give
/// the mean, at every arity and mask.
#[test]
fn average_lanes_agree_across_the_2_pow_52_boundary() {
    for arity in [1, 2, 4, 5, 9, 10, 13, 64] {
        let below: Vec<Vec<u64>> = (0..arity as u64)
            .map(|p| (0..6).map(|l| SMALL_WORD - 1 - p * 7 - l * 3).collect())
            .collect();
        let mut crossing = below.clone();
        crossing[arity - 1][5] = SMALL_WORD;
        for words in [below, crossing] {
            for mask in [u64::MAX, 1, 1 << (arity - 1), 0b1010_1010] {
                assert_lanes_match_apply(&words, mask, 6).expect("lanes equal apply");
            }
        }
    }
}
