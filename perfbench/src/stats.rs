//! Small measurement helpers: a seeded generator, order statistics,
//! process memory and run provenance.

use std::time::Instant;

/// SplitMix64: the benchmark's own seeded generator, so inputs never
/// depend on the randomness of the crates under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Log-bucketed histogram of positive samples at 0.1 % relative
/// resolution over `[1e-4, 1e5)`: fixed memory whatever the run length,
/// so long runs neither reallocate nor grow `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

const HIST_LOW: f64 = 1e-4;
const HIST_STEP: f64 = 1.001;
const HIST_BUCKETS: usize = 20_730; // ln(1e9) / ln(1.001)

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, value: f64) {
        let bucket = ((value / HIST_LOW).ln() / HIST_STEP.ln()).max(0.0) as usize;
        self.counts[bucket.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum += value;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile by nearest rank, interpolated geometrically
    /// within its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let within = (rank - seen) as f64 / n as f64;
                return HIST_LOW * HIST_STEP.powf(bucket as f64 + within);
            }
            seen += n;
        }
        0.0
    }
}

/// Nearest-rank quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The clock cost of one span `let t = Instant::now(); ...; ns_since(t)`
/// around nothing, in nanoseconds: `(inner, outer)`, where `inner` is
/// what such a span reads and `outer` what it costs the code around it.
/// A span around a call reads the call's time plus `inner`; the call
/// costs its caller its own time plus `outer`.
/// Measured over `probes` empty spans.
pub fn span_cost(probes: u32) -> (f64, f64) {
    let mut inner = 0u64;
    let t = Instant::now();
    for _ in 0..probes {
        let s = Instant::now();
        std::hint::black_box(());
        inner += ns_since(s);
    }
    let outer = ns_since(t);
    std::hint::black_box(inner);
    (
        inner as f64 / f64::from(probes),
        outer as f64 / f64::from(probes),
    )
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit_hash() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
