//! The configuration bitstream: a mutable bit vector addressed by the
//! [`crate::ConfigLayout`].

use std::fmt;

/// A device configuration: one bit per programmable resource.
///
/// The fault model of the paper is "flip one configuration bit and observe the
/// behaviour of the configured circuit"; [`Bitstream::flip`] is that operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    words: Vec<u64>,
    len: usize,
}

impl Bitstream {
    /// Creates an all-zero bitstream with `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Rebuilds a bitstream from its backing words (see
    /// [`Bitstream::words`]) — the inverse used by the `tmr-store` codec.
    /// Bits at or beyond `len` in the last word must be zero, matching what
    /// [`Bitstream::words`] produces.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `len.div_ceil(64)` words long or a
    /// bit beyond `len` is set.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last() {
                assert_eq!(last >> (len % 64), 0, "bits set beyond len");
            }
        }
        Self { words, len }
    }

    /// The backing 64-bit words, least-significant bit first; bits at or
    /// beyond [`Bitstream::len`] in the last word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bitstream has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len()`.
    pub fn get(&self, bit: usize) -> bool {
        assert!(bit < self.len, "bit {bit} out of range ({})", self.len);
        (self.words[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Writes bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len()`.
    pub fn set(&mut self, bit: usize, value: bool) {
        assert!(bit < self.len, "bit {bit} out of range ({})", self.len);
        let mask = 1u64 << (bit % 64);
        if value {
            self.words[bit / 64] |= mask;
        } else {
            self.words[bit / 64] &= !mask;
        }
    }

    /// Inverts bit `bit` and returns its new value — a Single Event Upset.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len()`.
    pub fn flip(&mut self, bit: usize) -> bool {
        let new = !self.get(bit);
        self.set(bit, new);
        new
    }

    /// Inverts every bit in `bits` — one multi-bit upset, or the accumulated
    /// upsets of one scrub interval. Flipping the same set again restores the
    /// original bitstream exactly (an involution over *sets* of distinct
    /// bits), which is what a configuration scrubber relies on.
    ///
    /// # Panics
    ///
    /// Panics if any bit is out of range.
    pub fn flip_all(&mut self, bits: &[usize]) {
        for &bit in bits {
            self.flip(bit);
        }
    }

    /// Restores this bitstream from a pristine reference — a full
    /// configuration scrub. After `scrub(&golden)` the two bitstreams are
    /// identical, no matter how many upsets accumulated in between.
    ///
    /// # Panics
    ///
    /// Panics if the two bitstreams have different lengths.
    pub fn scrub(&mut self, pristine: &Bitstream) {
        assert_eq!(self.len, pristine.len, "bitstream length mismatch");
        self.words.copy_from_slice(&pristine.words);
    }

    /// Number of bits set to 1 (the *programmed* bits — the paper's Fault List
    /// Manager injects faults only into bits actually used by the design, plus
    /// the zero bits whose resources belong to the design; see `tmr-faultsim`).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of all bits set to 1.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        // Bits at or beyond `len` are always zero, so only set bits are
        // visited, lowest first.
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = wi * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    bit
                })
            })
        })
    }

    /// Returns the indices where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the two bitstreams have different lengths.
    pub fn diff(&self, other: &Bitstream) -> Vec<usize> {
        assert_eq!(self.len, other.len, "bitstream length mismatch");
        let mut out = Vec::new();
        for (wi, (a, b)) in self.words.iter().zip(other.words.iter()).enumerate() {
            let mut delta = a ^ b;
            while delta != 0 {
                let b = delta.trailing_zeros() as usize;
                let bit = wi * 64 + b;
                if bit < self.len {
                    out.push(bit);
                }
                delta &= delta - 1;
            }
        }
        out
    }
}

impl fmt::Display for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bitstream: {} bits, {} programmed",
            self.len,
            self.count_ones()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip() {
        let mut bs = Bitstream::zeros(130);
        assert_eq!(bs.len(), 130);
        assert!(!bs.get(129));
        bs.set(129, true);
        assert!(bs.get(129));
        assert!(!bs.flip(129));
        assert!(bs.flip(0));
        assert_eq!(bs.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bs = Bitstream::zeros(10);
        bs.get(10);
    }

    #[test]
    fn iter_ones_lists_set_bits() {
        let mut bs = Bitstream::zeros(200);
        for bit in [0, 63, 64, 130, 199] {
            bs.set(bit, true);
        }
        let ones: Vec<usize> = bs.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 130, 199]);
    }

    #[test]
    fn diff_finds_single_flip() {
        let mut a = Bitstream::zeros(100);
        a.set(7, true);
        a.set(70, true);
        let mut b = a.clone();
        b.flip(42);
        assert_eq!(a.diff(&b), vec![42]);
        assert_eq!(a.diff(&a), Vec::<usize>::new());
    }

    #[test]
    fn flip_all_is_an_involution_and_scrub_restores() {
        let mut bs = Bitstream::zeros(150);
        bs.set(3, true);
        bs.set(100, true);
        let pristine = bs.clone();
        let upsets = [3usize, 64, 65, 149];
        bs.flip_all(&upsets);
        assert_eq!(pristine.diff(&bs).len(), upsets.len());
        let mut copy = bs.clone();
        copy.flip_all(&upsets);
        assert_eq!(copy, pristine, "double multi-flip restores");
        bs.scrub(&pristine);
        assert_eq!(bs, pristine, "a scrub restores regardless of the upsets");
    }

    #[test]
    fn empty_bitstream() {
        let bs = Bitstream::zeros(0);
        assert!(bs.is_empty());
        assert_eq!(bs.iter_ones().count(), 0);
    }
}
