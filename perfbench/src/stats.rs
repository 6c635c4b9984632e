//! Measurement helpers: a seeded input generator, a fixed-memory latency
//! histogram, the process's peak resident set, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: the benchmark's own input generator. Inputs depend only
/// on `--seed`, never on the program's RNG or on wall-clock time.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`; the modulo bias is irrelevant at
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Mix a run seed with a label (workload name, epoch) into a sub-seed.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = seed ^ 0x5EED_DA27;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix::new(h ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Durations below this many nanoseconds are kept exactly; the rest are
/// counted in one overflow bucket (with their maximum).
const EXACT_NS: usize = 1 << 18;

/// Per-operation latency histogram with 1 ns resolution.
pub struct LatencyHist {
    exact: Vec<u32>,
    over: u64,
    over_max: u64,
    count: u64,
    sum_ns: u64,
}

impl LatencyHist {
    #[allow(clippy::slow_vector_initialization)]
    pub fn new() -> LatencyHist {
        // Written out, not lazily zeroed, so the whole table is resident
        // from the start and the memory peak does not depend on which
        // durations a run happened to see.
        let mut exact = Vec::with_capacity(EXACT_NS);
        exact.resize(EXACT_NS, 0);
        LatencyHist {
            exact,
            over: 0,
            over_max: 0,
            count: 0,
            sum_ns: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        match self.exact.get_mut(ns as usize) {
            Some(slot) => *slot += 1,
            None => {
                self.over += 1;
                self.over_max = self.over_max.max(ns);
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Operations per second of time spent inside the operations.
    pub fn per_second(&self) -> f64 {
        if self.sum_ns == 0 {
            0.0
        } else {
            self.count as f64 * 1e9 / self.sum_ns as f64
        }
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &n) in self.exact.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return ns as f64;
            }
        }
        self.over_max as f64
    }

    fn reset(&mut self) {
        self.exact.fill(0);
        self.over = 0;
        self.over_max = 0;
        self.count = 0;
        self.sum_ns = 0;
    }
}

/// Wall-clock length of one segment of a run.
pub const SEGMENT: Duration = Duration::from_millis(500);

/// Segments with fewer calls are left out of the medians, so every
/// reported p99 has at least ten samples beyond it.
const MIN_SEGMENT_CALLS: u64 = 1000;

/// One segment's figures.
#[derive(Debug, Clone, Copy)]
struct Summary {
    calls: u64,
    per_second: f64,
    p50_ns: f64,
    p99_ns: f64,
}

/// Per-call latencies of one kind of call, summarised per [`SEGMENT`]
/// of the run.
///
/// The host alternates between a slow state and states 1.35–1.6×
/// faster, in spells from one second to most of a run. Each figure is
/// therefore taken at the slow decile over segments (the lower decile of
/// rates, the upper decile of latencies), which reads the slow state
/// unless fast spells cover nine tenths of a run. A plain mean or median
/// moves with the share of fast spells a run happened to get.
pub struct Timings {
    pooled: LatencyHist,
    current: LatencyHist,
    segments: Vec<Summary>,
}

impl Timings {
    pub fn new() -> Timings {
        Timings {
            pooled: LatencyHist::new(),
            current: LatencyHist::new(),
            segments: Vec::new(),
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.pooled.record(ns);
        self.current.record(ns);
    }

    /// Close the current segment.
    pub fn end_segment(&mut self) {
        if self.current.count() >= MIN_SEGMENT_CALLS {
            self.segments.push(Summary {
                calls: self.current.count(),
                per_second: self.current.per_second(),
                p50_ns: self.current.quantile_ns(0.5),
                p99_ns: self.current.quantile_ns(0.99),
            });
        }
        self.current.reset();
    }

    /// The `q` quantile of `f` over segments; the whole run's value when
    /// no segment had enough calls.
    fn over_segments(&self, f: impl Fn(&Summary) -> f64, q: f64, pooled: f64) -> f64 {
        if self.segments.is_empty() {
            return pooled;
        }
        let mut values: Vec<f64> = self.segments.iter().map(f).collect();
        values.sort_by(f64::total_cmp);
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        values[rank - 1]
    }

    /// Calls per second of time spent inside the calls.
    pub fn per_second(&self) -> f64 {
        self.over_segments(|s| s.per_second, 0.1, self.pooled.per_second())
    }

    pub fn p50_ns(&self) -> f64 {
        self.over_segments(|s| s.p50_ns, 0.9, self.pooled.quantile_ns(0.5))
    }

    pub fn p99_ns(&self) -> f64 {
        self.over_segments(|s| s.p99_ns, 0.9, self.pooled.quantile_ns(0.99))
    }

    pub fn calls(&self) -> u64 {
        self.pooled.count()
    }

    /// Segments the medians are taken over, and the fewest calls in one.
    pub fn segments(&self) -> (usize, u64) {
        let fewest = self.segments.iter().map(|s| s.calls).min().unwrap_or(0);
        (self.segments.len(), fewest)
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB. Each workload runs
/// in its own process, so the peak belongs to that workload alone.
pub fn peak_rss_mb() -> f64 {
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result object, printed as the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; a non-finite value is a bug in a
        // metric's definition, so it reads as 0 and the run is marked
        // incorrect by the caller's finiteness check.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}
