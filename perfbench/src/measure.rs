//! Measurement primitives: a seeded generator, a fixed-memory latency
//! histogram, order statistics, and the process counters (`/proc`)
//! behind `cpu_us_per_unit` and `peak_rss_mib`.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of input randomness, so the
/// same `--seed` always yields the same records and scenes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Log-linear latency histogram (128 sub-buckets per power of two,
/// under 1% relative error). Its memory is fixed, so a faster engine
/// that completes more records does not raise the process's peak RSS.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// Midpoint of bucket `i`'s value range.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = i / SUB - 1;
        let lo = (SUB + i % SUB) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.total += 1;
    }

    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0..=1) in nanoseconds, nearest-rank; 0 when
    /// empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank never exceeds the total count")
    }
}

/// Median of a sample set (mean of the two middle values when even);
/// 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Throughput and CPU per unit over consecutive slices of the timed
/// window, each at least [`Slices::MIN`] long. The benchmark reports
/// their medians: the host's speed drifts over seconds, and a median
/// over slices keeps a slow stretch from moving a whole run.
pub struct Slices {
    start: Instant,
    cpu: Duration,
    units: u64,
    rates: Vec<f64>,
    cpu_us_per_unit: Vec<f64>,
}

impl Default for Slices {
    fn default() -> Self {
        Slices::new(Instant::now())
    }
}

impl Slices {
    pub const MIN: Duration = Duration::from_secs(1);

    pub fn new(now: Instant) -> Slices {
        Slices {
            start: now,
            cpu: process_cpu(),
            units: 0,
            rates: Vec::new(),
            cpu_us_per_unit: Vec::new(),
        }
    }

    /// A point where a slice may end: `units` completed so far. Callers
    /// mark only points where every slice sees the same input mix. When
    /// a slice ends, `between` runs before the next one starts.
    pub fn mark(&mut self, now: Instant, units: u64, between: &mut dyn FnMut()) {
        let dt = now - self.start;
        if dt < Self::MIN || units == self.units {
            return;
        }
        let du = (units - self.units) as f64;
        self.rates.push(du / dt.as_secs_f64());
        let cpu = process_cpu().saturating_sub(self.cpu);
        self.cpu_us_per_unit.push(cpu.as_secs_f64() * 1e6 / du);
        between();
        self.start = Instant::now();
        self.cpu = process_cpu();
        self.units = units;
    }

    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Median units per second over the slices.
    pub fn units_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Median CPU microseconds per unit over the slices.
    pub fn cpu_us_per_unit(&self) -> f64 {
        median(&self.cpu_us_per_unit)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the pass never reached).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// User plus system CPU time of this process (`/proc/self/stat`,
/// fields 14 and 15, in clock ticks of 10 ms).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields restart after
    // its closing parenthesis, with field 3 first.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Online processors (`std::thread::available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_stay_within_one_percent() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.01, 10_000.0)] {
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 100_000);
        let mut small = Histogram::default();
        small.record(3);
        assert_eq!(small.quantile_ns(0.5), 3.0);
    }

    #[test]
    fn slices_close_only_after_the_minimum_length() {
        let t = Instant::now();
        let mut s = Slices::new(t);
        let mut between = 0;
        s.mark(t + Duration::from_millis(500), 10, &mut || between += 1);
        assert_eq!(s.count(), 0);
        s.mark(t + Duration::from_secs(2), 100, &mut || between += 1);
        let t = s.start;
        s.mark(t + Duration::from_secs(1), 200, &mut || between += 1);
        s.mark(t + Duration::from_secs(5), 200, &mut || between += 1);
        assert_eq!(s.count(), 2);
        assert_eq!(s.units_per_s(), 75.0);
        assert_eq!(between, 2);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&v| v == r.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
