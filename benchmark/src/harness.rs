//! What every workload shares: the measured closed loop, the replay
//! record, output checks, and small timing helpers.

use crate::fixture::Fixture;
use crate::hostspeed::{host_slowdown, ReferenceTimer};
use crate::result::CheckResult;
use crate::span::SpanBuf;
use crate::stats::{median, quartiles, Histogram};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Warm-up before the first measured block, seconds: caches fill and
/// scratch buffers grow here.
pub const WARM_SECS: f64 = 1.0;

/// Seconds between two readings of the host's speed inside a closed
/// loop: short, so a change of speed is seen close to where it happened.
pub const LAP_SECS: f64 = 0.02;

/// How a closed loop is cut into blocks: a block ends at the first
/// multiple of `ops` ops after `secs` seconds. A workload that cycles a
/// short stream makes a block a whole number of cycles, so every block
/// holds the same work and blocks differ by what the host did alone.
#[derive(Debug, Clone, Copy)]
pub struct BlockShape {
    /// Shortest block, seconds.
    pub secs: f64,
    /// Ops in a block are a multiple of this.
    pub ops: u64,
}

impl BlockShape {
    /// Blocks for a long or randomly drawn stream: one lap each.
    pub const SHORT: BlockShape = BlockShape {
        secs: LAP_SECS,
        ops: 1,
    };
}

/// One measured block. Times are at reference speed: each stretch of
/// the block between two [`host_slowdown`] readings divided by the mean
/// of the two (wall times where a workload says so).
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were rejected or were shed.
    pub failed: u64,
    /// Ops answered within the workload's latency limit.
    pub within_slo: u64,
    /// Seconds of the block.
    pub secs: f64,
    /// Latency of the block's median completed op, ns.
    pub p50_ns: f64,
    /// Wall seconds of the block over `secs`: the host slow-down it saw.
    pub slowdown: f64,
}

/// The untraced pass of one workload.
///
/// A workload's reading is a quartile over its blocks, the one on the
/// quiet side: the lower one for a time, the upper one for a rate or a
/// share. What the host does to a guest beyond what the reference work
/// sees (a slice of the core taken away, a stalled sibling thread) only
/// ever adds time, it does so for a good part of the blocks on a bad
/// minute and for few on a good one, and the median over blocks of
/// unchanged code lay 30% apart between such minutes. The quiet
/// quartile moves least.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// The blocks, in order.
    pub blocks: Vec<Block>,
    /// Wall latency of every completed op, for the notes.
    pub wall_latency: Histogram,
    /// Completed ops per second at reference speed, per window, where a
    /// workload defines throughput on a phase of its own
    /// (`estimate_serving`: the closed-loop phase). Empty means "ops ÷
    /// seconds of each block".
    pub throughput: Vec<f64>,
    /// Ops attempted outside the blocks (that other phase).
    pub extra_attempted: u64,
    /// Ops failed outside the blocks.
    pub extra_failed: u64,
}

impl Measured {
    fn in_blocks(&self, f: impl Fn(&Block) -> u64) -> u64 {
        self.blocks.iter().map(f).sum()
    }

    fn quartiles_over_blocks(&self, f: impl Fn(&Block) -> f64) -> (f64, f64, f64) {
        let per_block: Vec<f64> = self.blocks.iter().map(f).collect();
        quartiles(&per_block).unwrap_or((f64::NAN, f64::NAN, f64::NAN))
    }

    /// Ops attempted, every phase.
    pub fn attempted(&self) -> u64 {
        self.in_blocks(|b| b.attempted) + self.extra_attempted
    }

    /// Ops failed, every phase.
    pub fn failed(&self) -> u64 {
        self.in_blocks(|b| b.failed) + self.extra_failed
    }

    /// Completed ops per second at reference speed: upper quartile over
    /// blocks (or over the windows of the phase that defines it).
    pub fn ops_per_s(&self) -> f64 {
        if !self.throughput.is_empty() {
            return quartiles(&self.throughput).map_or(f64::NAN, |q| q.2);
        }
        self.quartiles_over_blocks(|b| (b.attempted - b.failed) as f64 / b.secs)
            .2
    }

    /// Median op latency of a block at reference speed, µs: lower
    /// quartile over blocks.
    pub fn op_p50_us(&self) -> f64 {
        self.quartiles_over_blocks(|b| b.p50_ns / 1e3).0
    }

    /// Median over blocks of the same block medians, µs: what a replay's
    /// median op is held against for the tracing overhead.
    pub fn typical_op_us(&self) -> f64 {
        self.quartiles_over_blocks(|b| b.p50_ns / 1e3).1
    }

    /// Ops answered within the latency limit ÷ ops attempted, a failed
    /// op being a miss: upper quartile over blocks.
    pub fn slo_ok_share(&self) -> f64 {
        self.quartiles_over_blocks(|b| b.within_slo as f64 / b.attempted.max(1) as f64)
            .2
    }

    /// Ops not failed ÷ ops attempted: upper quartile over blocks, so a
    /// stall of the host that fills an admission queue once costs one
    /// block. `failed` in the result counts every failure.
    pub fn ok_share(&self) -> f64 {
        self.quartiles_over_blocks(|b| 1.0 - b.failed as f64 / b.attempted.max(1) as f64)
            .2
    }

    /// The wall op latencies: median, 90th percentile and the highest
    /// percentile the sample supports, with the sample count; then the
    /// quartiles over blocks of the host slow-down and of the block
    /// medians at reference speed.
    pub fn latency_note(&self) -> String {
        let tail = self.wall_latency.tail_ns();
        let slow = self.quartiles_over_blocks(|b| b.slowdown);
        let p50 = self.quartiles_over_blocks(|b| b.p50_ns / 1e3);
        format!(
            "wall p50 {:.1} us, p90 {:.1} us, p{} {:.1} us over {} ops; quartiles over {} blocks: host slow-down {:.3} {:.3} {:.3}, block p50 at reference speed {:.1} {:.1} {:.1} us",
            self.wall_latency.percentile_ns(50.0) / 1e3,
            self.wall_latency.percentile_ns(90.0) / 1e3,
            tail.percentile,
            tail.value / 1e3,
            tail.samples,
            self.blocks.len(),
            slow.0,
            slow.1,
            slow.2,
            p50.0,
            p50.1,
            p50.2,
        )
    }
}

/// Runs `op` in a closed loop on the calling thread: a warm-up, then
/// blocks of `shape` for `seconds`, with a reading of the host's speed
/// every [`LAP_SECS`] and at every block's end. `op` gets the position in
/// the stream (it keeps counting through warm-up and blocks) and returns
/// whether the program answered; an answer within `slo_us` at reference
/// speed is in time.
pub fn closed_loop(
    seconds: f64,
    slo_us: f64,
    shape: BlockShape,
    mut op: impl FnMut(u64) -> bool,
) -> Measured {
    let mut position = 0u64;
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < WARM_SECS || !position.is_multiple_of(shape.ops) {
        op(position);
        position += 1;
    }
    let mut measured = Measured {
        blocks: Vec::with_capacity((seconds / shape.secs) as usize + 1),
        ..Measured::default()
    };
    // Latencies of the block's completed ops, ns: wall times from
    // `lap_from` on, at reference speed before it.
    let mut latencies: Vec<f64> = Vec::with_capacity(1 << 14);
    let started = Instant::now();
    let mut timer = ReferenceTimer::start();
    while started.elapsed().as_secs_f64() < seconds {
        latencies.clear();
        let (mut attempted, mut lap_from) = (0u64, 0usize);
        let (mut wall_secs, secs_before) = (0.0, timer.secs);
        let mut lap_started = Instant::now();
        loop {
            let t = Instant::now();
            let ok = op(position);
            let ns = t.elapsed().as_nanos() as u64;
            position += 1;
            attempted += 1;
            if ok {
                measured.wall_latency.record(ns);
                latencies.push(ns as f64);
            }
            let lap_secs = lap_started.elapsed().as_secs_f64();
            let block_ends =
                attempted.is_multiple_of(shape.ops) && wall_secs + lap_secs >= shape.secs;
            if block_ends || lap_secs >= LAP_SECS {
                let lap = timer.lap();
                wall_secs += lap.wall_secs;
                for ns in &mut latencies[lap_from..] {
                    *ns /= lap.slowdown;
                }
                lap_from = latencies.len();
                lap_started = Instant::now();
            }
            if block_ends {
                break;
            }
        }
        let secs = timer.secs - secs_before;
        latencies.sort_unstable_by(f64::total_cmp);
        measured.blocks.push(Block {
            attempted,
            failed: attempted - latencies.len() as u64,
            within_slo: latencies.partition_point(|&ns| ns <= slo_us * 1e3) as u64,
            secs,
            p50_ns: latencies
                .get(latencies.len() / 2)
                .copied()
                .unwrap_or(f64::NAN),
            slowdown: wall_secs / secs,
        });
    }
    measured
}

/// How much of the stream a replay covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: only the ops the output checks and the exact digest
    /// need; timing-only probes are skipped.
    Check,
    /// `--trace 1` on the workload itself: the full traced op count.
    Trace,
    /// `--trace 1` on another workload: a short replay that supplies
    /// the layer metrics that workload's own replay does not produce.
    Fill,
}

/// What a replay pass produces.
#[derive(Debug)]
pub struct Replay {
    /// Every span recorded.
    pub spans: SpanBuf,
    /// Per-layer readings by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Notes on readings: the percentile and sample count behind a tail.
    pub notes: BTreeMap<&'static str, String>,
    /// Count and accuracy readings over the first ops of the seeded
    /// stream; identical for one seed, whatever the mode.
    pub digest: BTreeMap<String, f64>,
    /// Output and harness checks.
    pub checks: Vec<CheckResult>,
    /// [`host_slowdown`] readings taken while the replay ran.
    host: Vec<f64>,
    /// Median duration of the decomposed op, µs (for tracing overhead).
    pub op_p50_us: f64,
    /// Median untraced duration of the same op, µs, where the replay
    /// decomposes another op than the measured pass times
    /// (`feedback_churn` measures the reader and decomposes the writer).
    pub untraced_op_p50_us: Option<f64>,
}

impl Replay {
    /// An empty record with room for `spans` spans.
    pub fn with_capacity(spans: usize) -> Self {
        Replay {
            spans: SpanBuf::with_capacity(spans),
            layers: BTreeMap::new(),
            notes: BTreeMap::new(),
            digest: BTreeMap::new(),
            checks: Vec::new(),
            host: Vec::new(),
            op_p50_us: f64::NAN,
            untraced_op_p50_us: None,
        }
    }

    fn push_check(&mut self, name: &str, ok: bool, detail: String, harness: bool) {
        self.checks.push(CheckResult {
            name: name.to_string(),
            ok,
            detail,
            harness,
        });
    }

    /// Records an output check: it says whether the *program* is right,
    /// and decides `correct`.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.push_check(name, ok, detail, false);
    }

    /// Records a harness check (generator lag, span accounting): it says
    /// whether the *measurement* is sound, and does not decide `correct`.
    pub fn harness_check(&mut self, name: &str, ok: bool, detail: String) {
        self.push_check(name, ok, detail, true);
    }

    /// Takes a [`host_slowdown`] reading. A replay takes one before it
    /// starts, every so many ops, and after each of its phases.
    pub fn sample_host(&mut self) {
        self.host.push(host_slowdown());
    }

    /// Brings every time and rate among the layer readings, wall
    /// readings so far, to reference speed: divided (a rate multiplied)
    /// by the median of the replay's host readings.
    pub fn at_reference_speed(&mut self) {
        let slowdown = median(&self.host);
        if !slowdown.is_finite() {
            return;
        }
        self.op_p50_us /= slowdown;
        if let Some(us) = &mut self.untraced_op_p50_us {
            *us /= slowdown;
        }
        for (name, value) in &mut self.layers {
            match crate::spec::metric(name)
                .filter(|m| !m.setting)
                .map(|m| m.unit)
            {
                Some("ns" | "us" | "ms" | "s") => *value /= slowdown,
                Some("1/s") => *value *= slowdown,
                _ => {}
            }
        }
        self.notes.insert(
            "bench.host_slowdown",
            format!("{slowdown:.3} while the replay ran"),
        );
    }

    /// Sets a layer reading from the median of the spans named `span`.
    pub fn layer_from_span(&mut self, metric: &'static str, span: &str, scale: f64) {
        if let Some(us) = crate::span::median_us(self.spans.spans(), span) {
            self.layers.insert(metric, us * scale);
        }
    }

    /// Sets a tail reading at the highest percentile the sample supports
    /// and notes which percentile that was.
    pub fn layer_tail(&mut self, metric: &'static str, values: &[f64]) {
        let tail = crate::stats::tail(values);
        self.layers.insert(metric, tail.value);
        self.notes.insert(
            metric,
            format!("p{} of {} samples", tail.percentile, tail.samples),
        );
    }
}

/// A workload: inputs made from the seed, an untraced measured pass
/// through the real entry points, and a replay of the first ops of the
/// same stream through the decomposed pipeline.
pub trait Workload {
    /// Warm-up, then the measured rounds; `seconds` is the whole
    /// measured time.
    fn measure(&mut self, fx: &mut Fixture, seconds: f64) -> Measured;
    /// The replay pass.
    fn replay(&mut self, fx: &mut Fixture, mode: Mode) -> Replay;
}

/// Median over `batches` of the per-call time in ns of `reps` calls.
/// For calls too short for a span of their own.
pub fn per_call_ns<R>(batches: usize, reps: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let mut per_batch = Vec::with_capacity(batches);
    for _ in 0..batches {
        let started = Instant::now();
        for i in 0..reps {
            black_box(f(black_box(i)));
        }
        per_batch.push(started.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(&per_batch)
}

/// Median of `max(est/actual, actual/est)` over `(estimate, actual)`
/// pairs, and the paper's RMSE% on the same pairs.
pub fn accuracy(pairs: &[(f64, f64)]) -> (f64, f64) {
    let q: Vec<f64> = pairs
        .iter()
        .map(|&(est, actual)| (est / actual).max(actual / est))
        .collect();
    let (est, actual): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    (median(&q), mathkit::rmse_pct(&est, &actual))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_reads_the_quiet_quartile_over_blocks() {
        let block = |attempted: u64, failed: u64, p50_us: f64, secs: f64| Block {
            attempted,
            failed,
            within_slo: attempted - failed,
            secs,
            p50_ns: p50_us * 1e3,
            slowdown: 1.0,
        };
        let m = Measured {
            blocks: vec![
                block(100, 0, 10.0, 1.0),
                block(150, 0, 30.0, 0.5),
                block(200, 10, 20.0, 1.0),
            ],
            ..Measured::default()
        };
        assert_eq!(m.attempted(), 450);
        assert_eq!(m.failed(), 10);
        // Rates per block: 100, 300 and 190.
        assert_eq!(m.ops_per_s(), 300.0);
        // Block medians: 10, 30 and 20 µs.
        assert_eq!(m.op_p50_us(), 10.0);
        // Shares in time and shares not failed per block: 1, 1 and 0.95.
        assert_eq!(m.slo_ok_share(), 1.0);
        assert_eq!(m.ok_share(), 1.0);
    }

    #[test]
    fn closed_loop_cuts_blocks_and_counts_failures() {
        let shape = BlockShape {
            secs: 0.03,
            ops: 10,
        };
        let m = closed_loop(0.2, 1e6, shape, |position| {
            black_box((0..2_000u64).fold(position, |a, b| a ^ black_box(b)));
            position % 10 != 0
        });
        assert!(
            m.blocks.len() >= 2 && m.blocks.len() <= 7,
            "{}",
            m.blocks.len()
        );
        for b in &m.blocks {
            // Whole cycles of ten ops, one of which fails; more than
            // one lap, each at its own host speed.
            assert!(b.secs * b.slowdown >= shape.secs && b.attempted % 10 == 0);
            assert_eq!(b.failed * 10, b.attempted);
            assert_eq!(b.within_slo, b.attempted - b.failed);
            assert!(b.p50_ns > 0.0 && b.slowdown > 0.0);
        }
        assert_eq!(m.ok_share(), 0.9);
        assert_eq!(m.failed() * 10, m.attempted());
    }

    #[test]
    fn accuracy_is_symmetric_in_over_and_under_estimates() {
        let (q, rmse) = accuracy(&[(2.0, 1.0), (1.0, 2.0), (3.0, 3.0)]);
        assert_eq!(q, 2.0);
        assert!(rmse > 0.0);
    }

    #[test]
    fn per_call_time_grows_with_the_work() {
        let short = per_call_ns(5, 100, |i| (0..10).fold(i, |a, b| a ^ black_box(b)));
        let long = per_call_ns(5, 100, |i| (0..1_000).fold(i, |a, b| a ^ black_box(b)));
        assert!(long > short, "{long} vs {short}");
    }
}
