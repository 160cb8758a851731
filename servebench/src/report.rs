//! From measurements to named metrics: exact quantiles, span self times,
//! the mean-based reconciliation, and the result line.

use std::collections::BTreeMap;

use obcs_telemetry::TraceReport;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    /// The per-call figures of one timed layer. `calls` are per-call
    /// times in nanoseconds; `turns` is the turn count of the pass they
    /// come from, so `.mean` is the layer's time per turn (the quantity
    /// that adds up along a turn); `share` is filled in by the caller.
    pub fn timed(&mut self, name: &str, unit: &'static str, calls: &[u64], turns: u64, share: f64) {
        let per_unit = match unit {
            "ms" => 1e6,
            "us" => 1e3,
            _ => panic!("timed layers are reported in ms or us, not {unit}"),
        };
        let mut sorted = calls.to_vec();
        sorted.sort_unstable();
        let total: u64 = calls.iter().sum();
        self.put(format!("{name}.p50"), quantile(&sorted, 0.50) as f64 / per_unit, unit);
        self.put(format!("{name}.p99"), quantile(&sorted, 0.99) as f64 / per_unit, unit);
        self.put(format!("{name}.mean"), per_turn(total, turns) / per_unit, unit);
        self.put(format!("{name}.count"), calls.len() as f64, "count");
        self.put(format!("{name}.share"), share, "ratio");
    }

    /// The result line: one JSON object, the last line of stdout.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { f64::MAX };
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            body.join(", ")
        )
    }
}

/// Nearest-rank quantile of sorted samples (0 for none).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn per_turn(total_ns: u64, turns: u64) -> f64 {
    total_ns as f64 / turns.max(1) as f64
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Most blocks the load phase is cut into for its timing figures.
const MAX_BLOCKS: usize = 7;

/// Fewest turns in a block, so a block's p99 has ten samples beyond it.
const MIN_BLOCK_TURNS: usize = 1000;

/// The load phase's latency percentiles, each the median over
/// consecutive blocks of turns, so a host stall confined to a few blocks
/// does not move them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub blocks: usize,
}

/// [`Latency`] from per-turn round trips in load order (`u64::MAX` for a
/// failed turn, which misses any limit).
pub fn latency(rtt_ns: &[u64]) -> Latency {
    let n = rtt_ns.len();
    if n == 0 {
        return Latency { p50_ns: 0.0, p99_ns: 0.0, blocks: 0 };
    }
    let blocks = (n / MIN_BLOCK_TURNS).clamp(1, MAX_BLOCKS);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for b in 0..blocks {
        let mut sorted = rtt_ns[b * n / blocks..(b + 1) * n / blocks].to_vec();
        sorted.sort_unstable();
        p50.push(quantile(&sorted, 0.50) as f64);
        p99.push(quantile(&sorted, 0.99) as f64);
    }
    Latency { p50_ns: median(&p50), p99_ns: median(&p99), blocks }
}

/// Per-call times of each span stage in a traced pass.
#[derive(Debug, Default, PartialEq)]
pub struct SpanTimes {
    /// Span durations, child spans included.
    pub inclusive: BTreeMap<String, Vec<u64>>,
    /// Span durations minus the time covered by child spans of other
    /// stages. A span nested directly in one of its own stage (the NLU's
    /// `classify` around the classifier's) is folded into it, so a stage
    /// counts one call per outermost span.
    pub own: BTreeMap<String, Vec<u64>>,
}

impl SpanTimes {
    pub fn of(report: &TraceReport) -> SpanTimes {
        let spans = &report.spans;
        let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.dur)).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p as usize] -= i128::from(s.dur);
            }
        }
        // Spans begin after their parents, so walking ids downwards folds
        // a nested chain into its outermost span.
        let mut folded = vec![false; spans.len()];
        for i in (0..spans.len()).rev() {
            if let Some(p) = spans[i].parent.map(|p| p as usize) {
                if spans[p].stage == spans[i].stage {
                    own[p] += own[i];
                    folded[i] = true;
                }
            }
        }
        let mut times = SpanTimes::default();
        for (i, s) in spans.iter().enumerate() {
            if !folded[i] {
                times.inclusive.entry(s.stage.clone()).or_default().push(s.dur);
                times.own.entry(s.stage.clone()).or_default().push(own[i].max(0) as u64);
            }
        }
        times
    }

    pub fn inclusive(&self, stage: &str) -> &[u64] {
        self.inclusive.get(stage).map_or(&[], Vec::as_slice)
    }

    pub fn own(&self, stage: &str) -> &[u64] {
        self.own.get(stage).map_or(&[], Vec::as_slice)
    }
}

/// The client's mean round trip split into the in-process session-table
/// turn, the codec and the transport remainder; all means per turn, in
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrip {
    pub rtt: f64,
    pub table_turn: f64,
    pub codec: f64,
    pub transport: f64,
}

impl RoundTrip {
    pub fn split(rtt: f64, table_turn: f64, codec: f64) -> RoundTrip {
        RoundTrip { rtt, table_turn, codec, transport: rtt - table_turn - codec }
    }

    /// Whether the parts add up to the round trip (to rounding).
    pub fn closes(&self) -> bool {
        (self.table_turn + self.codec + self.transport - self.rtt).abs() <= 1e-9 * self.rtt.abs()
    }
}

/// Whether the engine stages' self times sum to the engine turn time.
pub fn engine_closes(turn_total: u64, own_totals: &[u64]) -> bool {
    own_totals.iter().sum::<u64>() == turn_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use obcs_telemetry::SpanEvent;

    fn span(id: u64, parent: Option<u64>, stage: &str, dur: u64) -> SpanEvent {
        SpanEvent { id, parent, stage: stage.to_string(), dur }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn latency_is_a_median_over_blocks() {
        // 3000 turns of 100 ns, but the middle block stalls 10x.
        let rtt: Vec<u64> =
            (0..3000).map(|i| if (1000..2000).contains(&i) { 1000 } else { 100 }).collect();
        let l = latency(&rtt);
        assert_eq!(l.blocks, 3);
        assert_eq!((l.p50_ns, l.p99_ns), (100.0, 100.0), "the stalled block is outvoted");
        assert_eq!(latency(&[]).blocks, 0);
        assert_eq!(latency(&[u64::MAX; 10]).p99_ns, u64::MAX as f64, "failed turns miss");
    }

    #[test]
    fn self_times_partition_the_turn() {
        // bench span > turn > {classify > classify, kb_execute, nlg > kb_execute}
        let mut report = TraceReport::empty("ns");
        report.spans = vec![
            span(0, None, "serve.session_turn", 1000),
            span(1, Some(0), "turn", 900),
            span(2, Some(1), "classify", 300),
            span(3, Some(2), "classify", 250),
            span(4, Some(1), "kb_execute", 200),
            span(5, Some(1), "nlg", 150),
            span(6, Some(5), "kb_execute", 100),
        ];
        let t = SpanTimes::of(&report);
        assert_eq!(t.own("serve.session_turn"), [100]);
        assert_eq!(t.own("classify"), [300], "nested classify folds into one call");
        assert_eq!(t.inclusive("classify"), [300]);
        assert_eq!(t.own("kb_execute"), [200, 100]);
        assert_eq!(t.own("nlg"), [50]);
        assert_eq!(t.own("turn"), [250]);
        let stages: Vec<u64> = ["turn", "classify", "kb_execute", "nlg"]
            .iter()
            .map(|s| t.own(s).iter().sum())
            .collect();
        assert!(engine_closes(900, &stages));
        assert!(!engine_closes(901, &stages));
    }

    #[test]
    fn the_round_trip_reconciles() {
        let r = RoundTrip::split(150_000.0, 100_000.0, 8_000.0);
        assert_eq!(r.transport, 42_000.0);
        assert!(r.closes());
        let broken = RoundTrip { transport: 40_000.0, ..r };
        assert!(!broken.closes());
    }

    #[test]
    fn timed_layers_report_five_figures() {
        let mut m = Metrics::default();
        m.timed("kb.execute_us", "us", &[1_000, 3_000, 2_000], 2, 0.25);
        let got: Vec<(&str, f64)> = m.0.iter().map(|x| (x.name.as_str(), x.value)).collect();
        assert_eq!(
            got,
            [
                ("kb.execute_us.p50", 2.0),
                ("kb.execute_us.p99", 3.0),
                ("kb.execute_us.mean", 3.0),
                ("kb.execute_us.count", 3.0),
                ("kb.execute_us.share", 0.25),
            ]
        );
        let line = m.result_line(true, 5, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0"), "{line}");
        assert!(line.contains("\"kb.execute_us.p99\": {\"value\": 3, \"unit\": \"us\"}"), "{line}");
    }
}
