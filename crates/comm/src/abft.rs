//! ABFT-style payload checksums for collectives.
//!
//! Every checksummed send (see `Communicator::send_coll`) computes one hash
//! per [`ABFT_BLOCK`]-element block of the payload and ships the hashes as a
//! sidecar on the packet. The receiver recomputes them on arrival: a
//! mismatch localizes the corruption to a block and triggers a bounded
//! retransmission of the sender's retained clean payload, so a flipped bit
//! in transit surfaces as a typed [`crate::CommError::Corrupted`] (or heals
//! silently) instead of poisoning the spectra downstream. This is the
//! algorithm-based fault-tolerance posture the exascale SDC literature
//! assumes: detection must be cheaper than the data motion it guards.
//!
//! # The block hash
//!
//! Each element is one or more 64-bit words (its canonical bit pattern; see
//! [`AbftData::fold`]). Element `i` of a block feeds lane `i mod 4` of four
//! independent lane states, so the four multiply chains run in parallel
//! instead of one dependent chain. Every word enters its lane through
//!
//! ```text
//! h ← rotl((h ⊕ word) · K₁, 29) · K₂        K₁, K₂ odd
//! ```
//!
//! and at the end of the block the block length and the four lane states
//! are folded together through the same step. The step is a bijection in
//! the word (for fixed `h`) and in `h` (for fixed word): xor with a
//! constant, multiplication by an odd constant modulo 2⁶⁴ and a rotation are
//! each invertible. So any change confined to one word changes its lane's
//! state, every later step of that lane keeps it changed, and the fold keeps
//! it changed: **a corruption confined to one word — any number of its
//! bits — is always detected and localized to its block**. Every element of
//! at most 64 bits (the integers, `bool`, `f32`, `f64`, and `Complex<f32>`,
//! whose halves are packed into one word) is a single word, so for those
//! types any corruption confined to one element is always detected.
//!
//! A wider element (`Complex<f64>`, tuples) is folded word by word into one
//! lane, and no 64-bit hash can catch every change of a 128-bit element:
//! some pairs of values of one element must share a hash. What the step
//! rules out is an escape that works on any data. A difference in one word
//! reaches the next word of the lane only after two odd multiplies, whose
//! carries make it depend on the data, so a change to two words of one lane
//! (two words of one element, or elements `i` and `i + 4`) escapes only for
//! data where it happens to cancel that data-dependent difference. Without
//! the second multiply it would not: flipping bit 63 of one word always
//! turns into exactly bit 28 of the lane state, and a flip of bit 28 in the
//! next word cancels it on every payload.
//!
//! The [`AbftData`] element trait exposes exactly what checksumming and
//! seeded fault injection need — a canonical bit pattern to hash and a way
//! to flip an addressed bit — for every payload type the collectives carry:
//! primitive integers, floats, `bool`, small tuples, and
//! [`psdns_fft::Complex`].

use psdns_fft::{Complex, Real};

/// Elements of the payload block are hashed this many at a time; a checksum
/// mismatch therefore localizes corruption to a 1024-element block, which is
/// what [`crate::CommError::Corrupted`] reports.
pub(crate) const ABFT_BLOCK: usize = 1024;

/// Independent hash lanes per block; element `i` feeds lane `i % LANES`.
const LANES: usize = 4;
/// Initial lane states (hex digits of π), distinct so lanes never alias.
const LANE_SEEDS: [u64; LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// Initial state of the end-of-block fold.
const FOLD_SEED: u64 = 0x4528_21e6_38d0_1377;
/// Odd multipliers (2⁶⁴/φ and the SplitMix64 constant), so each
/// multiplication is invertible modulo 2⁶⁴.
const K1: u64 = 0x9e37_79b9_7f4a_7c15;
const K2: u64 = 0xbf58_476d_1ce4_e5b9;

/// One hash step: bijective in `word` for fixed `h` and in `h` for fixed
/// `word`. The second multiply makes the difference a changed word leaves
/// in `h` depend on the data (see the module docs).
#[inline(always)]
fn mix_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(K1).rotate_left(29).wrapping_mul(K2)
}

/// An element type that checksummed collectives can carry: hashable by its
/// canonical bit pattern, and bit-addressable so the chaos layer can flip a
/// chosen bit deterministically. `Sync` because a checksummed payload is
/// shared, not copied, between the in-flight packet and the sender's
/// retransmission store.
pub trait AbftData: Clone + Send + Sync + 'static {
    /// Number of addressable bits in one element (the fault-injection
    /// address space; a payload of `n` elements has `n · BITS` flippable
    /// bits).
    const BITS: u32;
    /// Feed this element's canonical bit pattern into lane state `h`, one
    /// hash step per 64-bit word (see the module docs). An element of at
    /// most 64 bits folds as a single word, which is what makes every
    /// corruption of such an element detectable.
    fn fold(&self, h: u64) -> u64;
    /// Flip bit `bit` (`< Self::BITS`) of the element's representation.
    fn flip_bit(&mut self, bit: u32);
}

macro_rules! abft_int {
    ($($t:ty),* $(,)?) => {$(
        impl AbftData for $t {
            const BITS: u32 = <$t>::BITS;
            #[inline]
            fn fold(&self, h: u64) -> u64 {
                mix_word(h, *self as u64)
            }
            #[inline]
            fn flip_bit(&mut self, bit: u32) {
                *self ^= (1 as $t) << bit;
            }
        }
    )*};
}

abft_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! abft_float {
    ($t:ty, $bits:ty) => {
        impl AbftData for $t {
            const BITS: u32 = <$bits>::BITS;
            #[inline]
            fn fold(&self, h: u64) -> u64 {
                mix_word(h, self.to_bits() as u64)
            }
            #[inline]
            fn flip_bit(&mut self, bit: u32) {
                *self = <$t>::from_bits(self.to_bits() ^ ((1 as $bits) << bit));
            }
        }
    };
}

abft_float!(f32, u32);
abft_float!(f64, u64);

impl AbftData for bool {
    const BITS: u32 = 1;
    #[inline]
    fn fold(&self, h: u64) -> u64 {
        mix_word(h, *self as u64)
    }
    #[inline]
    fn flip_bit(&mut self, _bit: u32) {
        *self = !*self;
    }
}

/// Spectral payloads: the re and im halves. A 32-bit `Real` packs both
/// halves into one word (so the single-element guarantee holds); a 64-bit
/// one folds them back to back. The `Real` bit-access hooks keep this
/// generic over `f32`/`f64` pencils.
impl<T: Real> AbftData for Complex<T> {
    const BITS: u32 = 2 * T::BITS;
    #[inline]
    fn fold(&self, h: u64) -> u64 {
        let (re, im) = (self.re.to_bits_u64(), self.im.to_bits_u64());
        if T::BITS <= 32 {
            mix_word(h, re | im << 32)
        } else {
            mix_word(mix_word(h, re), im)
        }
    }
    #[inline]
    fn flip_bit(&mut self, bit: u32) {
        if bit < T::BITS {
            self.re = T::from_bits_u64(self.re.to_bits_u64() ^ (1u64 << bit));
        } else {
            self.im = T::from_bits_u64(self.im.to_bits_u64() ^ (1u64 << (bit - T::BITS)));
        }
    }
}

macro_rules! abft_tuple {
    ($(($($n:tt $T:ident),+)),* $(,)?) => {$(
        impl<$($T: AbftData),+> AbftData for ($($T,)+) {
            const BITS: u32 = 0 $(+ $T::BITS)+;
            #[inline]
            fn fold(&self, h: u64) -> u64 {
                let mut h = h;
                $(h = self.$n.fold(h);)+
                h
            }
            #[inline]
            fn flip_bit(&mut self, bit: u32) {
                let mut bit = bit;
                $(
                    if bit < $T::BITS {
                        return self.$n.flip_bit(bit);
                    }
                    bit -= $T::BITS;
                )+
                let _ = bit;
            }
        }
    )*};
}

abft_tuple!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

/// Hash of one block: element `i` feeds lane `i % LANES`, then the length
/// and the lane states fold into one word through the same step.
#[inline]
fn block_hash<T: AbftData>(blk: &[T]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut quads = blk.chunks_exact(LANES);
    for q in &mut quads {
        for (l, x) in lanes.iter_mut().zip(q) {
            *l = x.fold(*l);
        }
    }
    for (l, x) in lanes.iter_mut().zip(quads.remainder()) {
        *l = x.fold(*l);
    }
    lanes
        .iter()
        .fold(mix_word(FOLD_SEED, blk.len() as u64), |h, &l| {
            mix_word(h, l)
        })
}

/// One checksum per [`ABFT_BLOCK`]-element block, in payload order. Empty
/// payloads produce an empty sidecar (nothing to protect).
pub(crate) fn block_checksums<T: AbftData>(data: &[T]) -> Vec<u64> {
    data.chunks(ABFT_BLOCK).map(block_hash).collect()
}

/// Recompute the sidecar and report the first mismatching block, if any. A
/// sidecar of the wrong length (a corrupted sidecar itself, or a truncated
/// payload) counts as block 0.
pub(crate) fn first_corrupt_block<T: AbftData>(data: &[T], crcs: &[u64]) -> Option<usize> {
    if crcs.len() != data.len().div_ceil(ABFT_BLOCK) {
        return Some(0);
    }
    data.chunks(ABFT_BLOCK)
        .zip(crcs)
        .position(|(blk, &crc)| block_hash(blk) != crc)
}

/// Flip one seeded bit of the payload: `draw` (a value from
/// [`psdns_chaos::ChaosEngine::draw`]) addresses a uniformly chosen bit of
/// the `len · BITS` total. No-op on empty payloads.
pub(crate) fn flip_payload_bit<T: AbftData>(data: &mut [T], draw: u64) {
    if data.is_empty() {
        return;
    }
    let total = data.len() as u64 * T::BITS as u64;
    let bit = draw % total;
    data[(bit / T::BITS as u64) as usize].flip_bit((bit % T::BITS as u64) as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn checksums_cover_blocks_and_tail() {
        let data: Vec<u64> = (0..ABFT_BLOCK as u64 * 2 + 7).collect();
        let crcs = block_checksums(&data);
        assert_eq!(crcs.len(), 3);
        assert_eq!(first_corrupt_block(&data, &crcs), None);
        assert!(block_checksums::<u64>(&[]).is_empty());
    }

    #[test]
    fn tuple_flip_addresses_components() {
        let mut t = (0u64, 0usize, 0u64);
        t.flip_bit(64 + 3); // second component, bit 3
        assert_eq!(t, (0, 8, 0));
        t.flip_bit(64 + 64 + 63); // third component, top bit
        assert_eq!(t, (0, 8, 1 << 63));
    }

    #[test]
    fn complex_flip_is_involutive_and_detected() {
        let mut data = vec![psdns_fft::Complex64::new(1.25, -3.5); 10];
        let crcs = block_checksums(&data);
        data[7].flip_bit(64 + 13); // im mantissa bit
        assert_eq!(first_corrupt_block(&data, &crcs), Some(0));
        data[7].flip_bit(64 + 13);
        assert_eq!(first_corrupt_block(&data, &crcs), None);
    }

    #[test]
    fn wrong_sidecar_length_is_corruption() {
        let data = vec![1u32; 8];
        assert_eq!(first_corrupt_block(&data, &[]), Some(0));
    }

    proptest! {
        /// Any single bit flip anywhere in an f64 payload is detected, and
        /// the reported block is the one holding the flipped element.
        #[test]
        fn single_bit_flip_always_detected_f64(
            len in 1usize..4000,
            seed in 0u64..u64::MAX,
            bit in 0u64..u64::MAX,
        ) {
            let mut data: Vec<f64> = (0..len)
                .map(|i| (seed.wrapping_add(i as u64) as f64) * 1e-3)
                .collect();
            let crcs = block_checksums(&data);
            let bit = bit % (len as u64 * 64);
            let elem = (bit / 64) as usize;
            data[elem].flip_bit((bit % 64) as u32);
            prop_assert_eq!(first_corrupt_block(&data, &crcs), Some(elem / ABFT_BLOCK));
        }

        /// Same guarantee for u32 payloads (the metadata collectives).
        #[test]
        fn single_bit_flip_always_detected_u32(
            len in 1usize..3000,
            seed in 0u32..u32::MAX,
            bit in 0u64..u64::MAX,
        ) {
            let mut data: Vec<u32> = (0..len).map(|i| seed.wrapping_add(i as u32)).collect();
            let crcs = block_checksums(&data);
            let bit = bit % (len as u64 * 32);
            let elem = (bit / 32) as usize;
            data[elem].flip_bit((bit % 32) as u32);
            prop_assert_eq!(first_corrupt_block(&data, &crcs), Some(elem / ABFT_BLOCK));
        }

        /// XOR any nonzero mask into one element of any payload type the
        /// collectives carry: the corruption is detected and reported in
        /// that element's block.
        #[test]
        fn single_element_corruption_always_detected(
            len in 1usize..2600,
            seed in 0u64..u64::MAX,
            at in 0usize..usize::MAX,
            mask in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        ) {
            let mask = [mask.0, mask.1, mask.2];
            let word = |i: usize| seed.wrapping_add(i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
            let elem = at % len;
            prop_assert_eq!(
                corrupt_one(&mut (0..len).map(|i| word(i) as f64 * 1e-9).collect::<Vec<f64>>(), elem, mask),
                Some(elem / ABFT_BLOCK)
            );
            prop_assert_eq!(
                corrupt_one(&mut (0..len).map(|i| word(i) as u32).collect::<Vec<u32>>(), elem, mask),
                Some(elem / ABFT_BLOCK)
            );
            let c64: Vec<psdns_fft::Complex64> = (0..len)
                .map(|i| psdns_fft::Complex64::new(word(i) as f64, -(word(i + 1) as f64)))
                .collect();
            prop_assert_eq!(corrupt_one(&mut c64.clone(), elem, mask), Some(elem / ABFT_BLOCK));
            let c32: Vec<psdns_fft::Complex32> = (0..len)
                .map(|i| psdns_fft::Complex32::new(word(i) as f32, (i as f32).sin()))
                .collect();
            prop_assert_eq!(corrupt_one(&mut c32.clone(), elem, mask), Some(elem / ABFT_BLOCK));
            let tup: Vec<(u64, usize, f64)> = (0..len)
                .map(|i| (word(i), i, word(i) as f64))
                .collect();
            prop_assert_eq!(corrupt_one(&mut tup.clone(), elem, mask), Some(elem / ABFT_BLOCK));
        }
    }

    /// Checksum `data`, XOR the low `T::BITS` bits of `mask` (forced
    /// nonzero) into element `elem`, and report what verification finds.
    fn corrupt_one<T: AbftData>(data: &mut [T], elem: usize, mask: [u64; 3]) -> Option<usize> {
        let crcs = block_checksums(data);
        let set: Vec<u32> = (0..T::BITS)
            .filter(|&b| mask[b as usize / 64] >> (b % 64) & 1 == 1)
            .collect();
        let set = if set.is_empty() {
            vec![(mask[0] % T::BITS as u64) as u32]
        } else {
            set
        };
        for b in set {
            data[elem].flip_bit(b);
        }
        first_corrupt_block(data, &crcs)
    }

    #[test]
    fn repeated_high_bit_flips_do_not_cancel() {
        // Two sign-bit flips in one lane cancel under a bare xor-multiply
        // step; the rotation must keep them visible.
        let mut data = vec![1.5f64; 64];
        let crcs = block_checksums(&data);
        data[0].flip_bit(63);
        data[4].flip_bit(63);
        assert_eq!(first_corrupt_block(&data, &crcs), Some(0));
    }

    #[test]
    fn top_bit_then_rotated_bit_is_detected() {
        // Without the second multiply, bit 63 of one word becomes exactly
        // bit 28 of the lane state, and flipping bit 28 of the next word in
        // that lane cancels it on any data: the re sign bit plus im bit 28
        // of one Complex<f64>, or bit 63 of f64 element i plus bit 28 of
        // element i + 4.
        for seed in 0..64u64 {
            let mut c: Vec<psdns_fft::Complex64> = (0..9)
                .map(|i| psdns_fft::Complex64::new((seed + i) as f64 * 0.37, -1.25 * i as f64))
                .collect();
            let crcs = block_checksums(&c);
            c[5].flip_bit(63);
            c[5].flip_bit(64 + 28);
            assert_eq!(first_corrupt_block(&c, &crcs), Some(0), "seed {seed}");

            let mut f: Vec<f64> = (0..12).map(|i| (seed * 12 + i) as f64 * 1e-3).collect();
            let crcs = block_checksums(&f);
            f[2].flip_bit(63);
            f[6].flip_bit(28);
            assert_eq!(first_corrupt_block(&f, &crcs), Some(0), "seed {seed}");
        }
    }

    #[test]
    fn every_two_bit_change_of_one_complex64_is_detected() {
        // No pair of bit flips inside one Complex<f64> escapes, for a few
        // elements of a spread of values: two flips in one word are caught
        // by construction, and a flip in each word would have to cancel a
        // difference that depends on the data.
        let data: Vec<psdns_fft::Complex64> = (0..7)
            .map(|i| psdns_fft::Complex64::new((i as f64).exp(), -(i as f64 * 0.9).sin()))
            .collect();
        let crcs = block_checksums(&data);
        for elem in [0, 3, 6] {
            for a in 0..128 {
                for b in a + 1..128 {
                    let mut d = data.clone();
                    d[elem].flip_bit(a);
                    d[elem].flip_bit(b);
                    assert_eq!(
                        first_corrupt_block(&d, &crcs),
                        Some(0),
                        "elem {elem} bits {a},{b}"
                    );
                }
            }
        }
    }
}
