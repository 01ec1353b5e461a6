//! Per-layer metrics, read from outside: the counters the crates already
//! publish through `MpiWorld::enable_metrics` and the spans they record
//! under `Trace::enable_causal`.

use std::collections::BTreeMap;
use std::ops::Range;

use parcomm_obs::{layer_of, CriticalPath, MetricValue, MetricsSnapshot};
use parcomm_sim::{SimTime, SpanId, TraceSpan};

/// Critical-path layers, in report order; `gap` is window time no hop
/// covers.
pub const CP_LAYERS: [&str; 7] = ["gpu", "host", "pe", "ucx", "net", "other", "gap"];

/// Metric counts of one measured window: counters, and log2 histograms as
/// per-bucket counts (bucket 0 = zeros, bucket `i` = `[2^(i-1), 2^i)`).
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, Vec<u64>>,
    pub hist_sums: BTreeMap<String, u64>,
}

fn bucket_index(lo: u64) -> usize {
    if lo == 0 {
        0
    } else {
        64 - lo.leading_zeros() as usize
    }
}

fn flatten(snap: &MetricsSnapshot) -> Counts {
    let mut c = Counts::default();
    for (name, v) in &snap.entries {
        match v {
            MetricValue::Counter(n) => {
                c.counters.insert(name.clone(), *n);
            }
            MetricValue::Histogram { buckets, sum, .. } => {
                let mut b = vec![0u64; 65];
                for &(lo, n) in buckets {
                    b[bucket_index(lo)] += n;
                }
                c.hists.insert(name.clone(), b);
                c.hist_sums.insert(name.clone(), *sum);
            }
            MetricValue::Gauge(_) => {}
        }
    }
    c
}

impl Counts {
    /// What the window between two snapshots of one registry added.
    pub fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Counts {
        let (b, mut a) = (flatten(before), flatten(after));
        for (k, v) in a.counters.iter_mut() {
            *v -= b.counters.get(k).copied().unwrap_or(0);
        }
        for (k, v) in a.hists.iter_mut() {
            if let Some(old) = b.hists.get(k) {
                v.iter_mut().zip(old).for_each(|(x, o)| *x -= o);
            }
        }
        for (k, v) in a.hist_sums.iter_mut() {
            *v -= b.hist_sums.get(k).copied().unwrap_or(0);
        }
        a
    }

    pub fn add(&mut self, other: &Counts) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.hists {
            let e = self.hists.entry(k.clone()).or_insert_with(|| vec![0; 65]);
            e.iter_mut().zip(v).for_each(|(x, o)| *x += o);
        }
        for (k, v) in &other.hist_sums {
            *self.hist_sums.entry(k.clone()).or_default() += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of the counters named `prefix<k>suffix`, per `k`.
    pub fn family(&self, prefix: &str, suffix: &str) -> Vec<(u64, f64)> {
        self.counters
            .iter()
            .filter_map(|(n, v)| {
                let k = n.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()?;
                Some((k, *v as f64))
            })
            .collect()
    }

    /// Quantile of the merged histograms whose names match, reported as
    /// the upper bound of the bucket holding it (as
    /// `parcomm_obs::Histogram::quantile` does). 0 when empty.
    pub fn hist_quantile(&self, matches: impl Fn(&str) -> bool, q: f64) -> f64 {
        let mut merged = [0u64; 65];
        for (_, b) in self.hists.iter().filter(|(n, _)| matches(n)) {
            merged.iter_mut().zip(b).for_each(|(x, o)| *x += o);
        }
        let count: u64 = merged.iter().sum();
        if count == 0 {
            return 0.0;
        }
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in merged.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 {
                    0.0
                } else {
                    ((1u64 << (i - 1)) * 2 - 1) as f64
                };
            }
        }
        f64::INFINITY
    }
}

/// The spans recorded while one step ran (`range` indexes the recording
/// order), with causal edges re-based onto the returned slice; edges into
/// earlier steps are dropped.
pub fn window_spans(all: &[TraceSpan], range: Range<usize>) -> Vec<TraceSpan> {
    let base = range.start;
    let mut out = all[range].to_vec();
    for s in out.iter_mut() {
        s.caused_by = match s.caused_by.index() {
            Some(c) if c >= base => SpanId::from_index(c - base),
            _ => SpanId::NONE,
        };
    }
    out
}

/// Span counts and summed durations (virtual µs) per category.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    pub spans: f64,
    pub categories: BTreeMap<&'static str, (f64, f64)>,
}

impl SpanStats {
    pub fn of(spans: &[TraceSpan]) -> SpanStats {
        let mut st = SpanStats {
            spans: spans.len() as f64,
            ..SpanStats::default()
        };
        for s in spans {
            let e = st.categories.entry(s.category).or_default();
            e.0 += 1.0;
            e.1 += s.duration().as_micros_f64();
        }
        st
    }

    pub fn add(&mut self, other: &SpanStats) {
        self.spans += other.spans;
        for (k, (n, d)) in &other.categories {
            let e = self.categories.entry(k).or_default();
            e.0 += n;
            e.1 += d;
        }
    }

    pub fn count(&self, category: &str) -> f64 {
        self.categories.get(category).map_or(0.0, |c| c.0)
    }

    pub fn micros(&self, category: &str) -> f64 {
        self.categories.get(category).map_or(0.0, |c| c.1)
    }
}

/// The critical path of one measured window, from
/// `parcomm_obs::CriticalPath`, split by layer.
#[derive(Clone, Debug, Default)]
pub struct CpStats {
    /// Time per layer of [`CP_LAYERS`] (µs), summing to the window.
    pub layer_us: BTreeMap<&'static str, f64>,
    pub window_us: f64,
    pub hops: f64,
    /// Hops that followed a recorded causal edge (the rest are inferred).
    pub causal_hops: f64,
}

impl CpStats {
    pub fn of_window(spans: &[TraceSpan], from: SimTime, to: SimTime) -> CpStats {
        let mut st = CpStats {
            layer_us: CP_LAYERS.iter().map(|l| (*l, 0.0)).collect(),
            window_us: to.saturating_since(from).as_micros_f64(),
            ..CpStats::default()
        };
        // Walk the chain as `CriticalPath::occupancy` does, clipped to the
        // window, and count time before, between and after its hops as gap:
        // the shares then sum to the whole measured window.
        let cp = CriticalPath::from_spans(spans);
        let mut horizon = from;
        let mut credit = |layer: &'static str, a: SimTime, b: SimTime| {
            *st.layer_us.get_mut(layer).expect("every layer is listed") +=
                b.saturating_since(a).as_micros_f64();
        };
        for step in &cp.steps {
            let (s, e) = (step.start.clamp(from, to), step.end.clamp(from, to));
            if s > horizon {
                credit("gap", horizon, s);
                horizon = s;
            }
            if e > horizon {
                credit(layer_of(step.category), horizon, e);
                horizon = e;
            }
        }
        credit("gap", horizon, to);
        st.hops = cp.steps.len().saturating_sub(1) as f64;
        st.causal_hops = cp.steps.iter().filter(|s| s.causal_edge).count() as f64;
        st
    }

    pub fn share(&self, layer: &str) -> f64 {
        let us = self.layer_us.get(layer).copied().unwrap_or(0.0);
        if self.window_us > 0.0 {
            us / self.window_us
        } else {
            0.0
        }
    }
}

/// `|tenant-0 goodput ÷ mean goodput of the others ÷ weight ratio − 1|`,
/// where a tenant's goodput is its credited bytes over its summed epoch
/// latency (µs, as the histogram rounds them). 0 when there is no second
/// tenant.
pub fn fairness_error(counts: &Counts, weight_ratio: f64) -> f64 {
    let bytes = counts.family("mux.tenant", ".goodput_bytes");
    let goodput = |k: u64, b: f64| -> f64 {
        let name = format!("mux.tenant{k}.epoch_latency_us");
        let lat = counts.hist_sums.get(&name).copied().unwrap_or(0) as f64;
        if lat > 0.0 {
            b / lat
        } else {
            0.0
        }
    };
    let g: Vec<(u64, f64)> = bytes.iter().map(|&(k, b)| (k, goodput(k, b))).collect();
    let g0 = g.iter().find(|(k, _)| *k == 0).map_or(0.0, |x| x.1);
    let rest: Vec<f64> = g.iter().filter(|(k, _)| *k != 0).map(|x| x.1).collect();
    if rest.is_empty() || g0 == 0.0 {
        return 0.0;
    }
    let mean = rest.iter().sum::<f64>() / rest.len() as f64;
    (g0 / mean / weight_ratio - 1.0).abs()
}
