//! Sample summaries, digests and process facts.

/// Median of `samples` (the mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest whole percentile that leaves at least ten samples beyond it,
/// with its nearest-rank value; `None` below eleven samples.
pub fn tail(samples: &[f64]) -> Option<(usize, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = 100 * (n - 10) / n;
    let rank = (percentile * n).div_ceil(100).max(1);
    Some((percentile, sorted[rank - 1]))
}

/// `"p50 <median> · p<q> <tail> · n=<count>"` in the given unit scale.
pub fn describe(samples: &[f64], scale: f64, unit: &str) -> String {
    let mut text = format!("p50 {:.4} {unit}", median(samples) * scale);
    if let Some((percentile, value)) = tail(samples) {
        text += &format!(" · p{percentile} {:.4} {unit}", value * scale);
    }
    text + &format!(" · n={}", samples.len())
}

/// 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A splitmix64 stream: every seed the workloads use derives from the one
/// `--seed` argument through this.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_seed(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90, 90.0)));
        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((9, 1.0)));
    }

    #[test]
    fn median_of_even_count_is_mean_of_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
