//! Small numeric helpers: the seeded generator, order statistics, the
//! answer fingerprint and the counter extraction every workload shares.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, portable generator, so the same seed gives the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated from its neighbours by
    /// `stream` (so `(seed, 1)` and `(seed, 2)` draw unrelated values).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between the two nearest ranks (the numpy default). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Failed decks over attempted decks (0 when nothing was attempted).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Times `f` once.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds of one `f` call: at least `min_reps` calls, then more
/// until `budget` has passed, at most `max_reps`.
pub fn median_secs(
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: impl FnMut() -> f64,
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (samples.len() < max_reps && start.elapsed() < budget) {
        samples.push(f());
    }
    median(&samples).expect("at least one sample")
}

/// Seconds one [`calibration_kernel`] call takes on the reference host
/// (release build, the 2-core container the seed-commit numbers in
/// `perfbench/README.md` come from, at a quiet time).
pub const REFERENCE_CALIBRATION_S: f64 = 0.022;

/// Kernel calls per [`HostSpeed::measure`].
const CALIBRATION_REPS: usize = 4;

/// Four independent chains of `exp`, `ln_1p` and `sqrt` on bounded
/// values. It uses no code of the program, so no change to the program
/// moves its time; only the speed of the host does. Independent chains
/// keep the core's floating-point units busy, as device evaluation
/// does; a single dependent chain followed the deck times less closely
/// when a neighbour slowed the host.
pub fn calibration_kernel() -> f64 {
    let mut x = [0.5f64, 0.6, 0.7, 0.8];
    let mut acc = 0.0;
    for i in 0..300_000u32 {
        for x in &mut x {
            let t = (*x + f64::from(i) * 2e-7).exp();
            *x = (t.ln_1p() * 0.7).sqrt();
            acc += *x;
        }
    }
    std::hint::black_box(acc)
}

/// How fast the host runs now, from calibration-kernel times taken
/// between the timed work of a run.
///
/// The host is shared and its speed drifts by a quarter and more over
/// minutes, which moves every time the run measures alike. End-to-end
/// times are therefore reported at reference-host speed: a measured
/// time times [`HostSpeed::scale`], the reference kernel time over the
/// run's median kernel time.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times a few kernel calls on each of `threads` threads at once, so
    /// a workload that keeps several cores busy is calibrated on as
    /// many.
    pub fn measure(&mut self, threads: usize) {
        for _ in 0..CALIBRATION_REPS {
            std::thread::scope(|s| {
                let calls: Vec<_> = (0..threads)
                    .map(|_| s.spawn(|| timed(calibration_kernel).1))
                    .collect();
                for call in calls {
                    let secs = call.join().expect("calibration thread panicked");
                    self.samples.push(secs);
                }
            });
        }
    }

    /// Median seconds of one kernel call over the run.
    pub fn kernel_s(&self) -> f64 {
        median(&self.samples).expect("measured at least once")
    }

    /// The factor that turns a time measured in this run into a time
    /// at reference-host speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_CALIBRATION_S / self.kernel_s()
    }
}

/// FNV-1a, 64 bit: stable across platforms, unlike the std hashers.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every `name: integer` field in a value's `Debug` text, nested
/// structs included. Reading counters this way keeps the benchmark
/// compiling when the engine adds, removes or regroups a counter: a
/// counter that is gone simply reads 0.
pub fn counters_of(value: &impl Debug) -> BTreeMap<String, u64> {
    let text = format!("{value:?}");
    let mut out = BTreeMap::new();
    for part in text.split([',', '{', '}', '(', ')']) {
        let Some((name, number)) = part.split_once(':') else {
            continue;
        };
        let name = name.trim();
        let is_ident =
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if let (true, Ok(n)) = (is_ident, number.trim().parse::<u64>()) {
            out.insert(name.to_string(), n);
        }
    }
    out
}

/// FNV-1a over the concatenation of `parts`.
pub fn hash_parts<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    parts
        .into_iter()
        .fold(FNV_OFFSET, |h, part| fnv1a(part.as_bytes(), h))
}

/// A hash of the exact output text plus the deterministic counters of
/// the run that produced it. Equal fingerprints mean every simulated
/// value and statistic is identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub csv: u64,
    pub counters: u64,
}

impl Fingerprint {
    pub fn new<'a>(
        csv: impl IntoIterator<Item = &'a str>,
        counters: impl IntoIterator<Item = &'a BTreeMap<String, u64>>,
    ) -> Self {
        let csv = hash_parts(csv);
        let counters = counters.into_iter().fold(FNV_OFFSET, |h, map| {
            map.iter().fold(h, |h, (k, v)| {
                fnv1a(&v.to_le_bytes(), fnv1a(k.as_bytes(), h))
            })
        });
        Fingerprint { csv, counters }
    }

    /// The combined answer hash.
    pub fn answer(&self) -> u64 {
        fnv1a(&self.counters.to_le_bytes(), self.csv)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x} (csv {:016x}, counters {:016x})",
            self.answer(),
            self.csv,
            self.counters
        )
    }
}

/// Named metric values with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        // rank 0.95 * 4 = 3.8: 4 + 0.8 * (5 - 4)
        assert!((percentile(&v, 95.0).unwrap() - 4.8).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        // 1..=100: p95 sits at rank 94.05.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 95.0).unwrap() - 95.05).abs() < 1e-9);
    }

    #[test]
    fn host_speed_scales_by_the_median_kernel_time() {
        let speed = HostSpeed {
            samples: vec![0.2, 0.1, 0.25 * REFERENCE_CALIBRATION_S, 0.125],
        };
        // Median of 0.0125, 0.1, 0.125, 0.2 is 0.1125.
        assert!((speed.kernel_s() - 0.1125).abs() < 1e-15);
        assert!((speed.scale() - REFERENCE_CALIBRATION_S / 0.1125).abs() < 1e-15);
        // The kernel computes the same finite value every call.
        let a = calibration_kernel();
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(a.to_bits(), calibration_kernel().to_bits());
    }

    #[test]
    fn failed_frac_counts_failures_over_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 17), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
        assert_eq!(failed_frac(3, 3), 1.0);
    }

    #[test]
    fn counters_are_read_from_nested_debug_text() {
        // The fields are only ever read through `Debug`.
        #[allow(dead_code)]
        #[derive(Debug)]
        struct Inner {
            factorizations: u64,
            ratio: f64,
        }
        #[allow(dead_code)]
        #[derive(Debug)]
        struct Outer {
            accepted: usize,
            inner: Inner,
            time: std::time::Duration,
            ptc_steps: u64,
        }
        let c = counters_of(&Outer {
            accepted: 3,
            inner: Inner {
                factorizations: 12,
                ratio: 0.5,
            },
            time: std::time::Duration::from_millis(2),
            ptc_steps: 0,
        });
        let expect: BTreeMap<String, u64> =
            [("accepted", 3), ("factorizations", 12), ("ptc_steps", 0)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
        assert_eq!(c, expect);
    }

    #[test]
    fn fingerprints_see_every_byte_and_counter() {
        let mut c = BTreeMap::new();
        c.insert("factorizations".to_string(), 3);
        let a = Fingerprint::new(["a,b\n1e0,2e0\n"], [&c]);
        assert_eq!(a, Fingerprint::new(["a,b\n1e0,2e0\n"], [&c]));
        assert_ne!(a.csv, Fingerprint::new(["a,b\n1e0,2.1e0\n"], [&c]).csv);
        let mut d = c.clone();
        d.insert("factorizations".to_string(), 4);
        assert_ne!(
            a.counters,
            Fingerprint::new(["a,b\n1e0,2e0\n"], [&d]).counters
        );
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let draw = |seed| {
            let mut g = SplitMix::new(seed, 7);
            (0..4).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut g = SplitMix::new(3, 0);
        for _ in 0..1000 {
            let u = g.symmetric();
            assert!((-1.0..1.0).contains(&u));
        }
    }
}
