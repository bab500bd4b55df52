//! The harness's own SplitMix64 generator.
//!
//! Workload inputs come from here and nowhere else: `atom-data` and the
//! workspace's `SeededRng` are deliberately not used, so the program under
//! test cannot change its own inputs.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (`label`) under the same seed,
    /// so adding a draw to one part of a generator never shifts another.
    pub fn stream(seed: u64, label: &str) -> Self {
        let mut h = FNV_OFFSET;
        for b in label.bytes() {
            h = fnv_step(h, b);
        }
        let mut rng = SplitMix64(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes
    /// (`n` < 2^16 against 2^64) is below 2^-48.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
}

/// FNV-1a over a stream of `u64` words: the digest used for traces, token
/// streams and the golden file.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = fnv_step(self.0, b);
        }
    }

    pub fn tokens(&mut self, tokens: &[u16]) {
        self.word(tokens.len() as u64);
        for &t in tokens {
            self.word(u64::from(t));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_labels_separate_streams() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(9).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "fresh generators agree");
        let mut x = SplitMix64::stream(9, "lengths");
        let mut y = SplitMix64::stream(9, "tokens");
        assert_ne!(x.next_u64(), y.next_u64());
        let mut z = SplitMix64::stream(9, "lengths");
        let mut x2 = SplitMix64::stream(9, "lengths");
        assert_eq!(z.next_u64(), x2.next_u64());
    }

    #[test]
    fn range_is_inclusive_and_shuffle_permutes() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.range(3, 6) - 3] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
