//! The measurement loops: fresh-context (cold) iterations, the warm
//! closed loop and, in traced runs, the per-layer ledger and the
//! determinism check.
//!
//! One client issues each call after the previous one returns. Host times
//! come from `Instant` around the workload's public calls; simulated times
//! from the devices' clocks and the profiler's device spans; counts from
//! the vgpu execution statistics, the skeletons' event logs and the
//! profiler's counters.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use skelcl::profile::{metrics as keys, Lane, SpanKind};
use skelcl::{Context, Profiler};
use skelcl_bench::overlap::overlap_stats;

use crate::ledger::{self, median, percentile, Ledger};
use crate::workloads::Workload;

/// Share of a run spent on fresh-context iterations.
const COLD_SHARE: f64 = 0.2;
/// Fewest fresh-context iterations per run, however long they take.
const MIN_COLD: usize = 5;
/// Warm-up iterations per session before any sample is taken (the first
/// call of a fused pipeline compiles its kernels).
const WARMUP: usize = 2;

/// Profiler counters reported per warm iteration, by metric name.
const COUNTERS: [(&str, &str, &str); 9] = [
    ("container.bytes_h2d", keys::BYTES_H2D, "bytes"),
    ("container.bytes_d2h", keys::BYTES_D2H, "bytes"),
    ("container.redistributions", keys::REDISTRIBUTIONS, "count"),
    ("plan.rules_fired", keys::PLAN_RULES_FIRED, "count"),
    ("plan.nodes_fused", keys::PLAN_NODES_FUSED, "count"),
    (
        "plan.intermediate_bytes",
        keys::PLAN_INTERMEDIATE_BYTES,
        "bytes",
    ),
    ("stream.regions", keys::STREAM_REGIONS, "count"),
    ("stream.chunks", keys::STREAM_CHUNKS, "count"),
    ("stream.bytes_staged", keys::STREAM_BYTES_STAGED, "bytes"),
];

/// One named, measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Iterations whose output was checked.
    pub attempted: u64,
    /// Checked iterations that failed or returned a wrong output.
    pub failed: u64,
    /// Failed checks other than output checks (determinism, purpose).
    pub problems: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Sample counts behind the metrics, for the report header.
    pub samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.push(Metric { name, unit, value });
    }

    /// The value of metric `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// Records an iteration's check result.
    fn checked(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Simulated and counted values of one warm iteration. These depend only
/// on the inputs, so they must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    /// Simulated makespan: latest device clock after minus before.
    sim_ns: u64,
    /// Largest device allocation high-water mark during the iteration.
    peak_bytes: u64,
    /// Kernel launches on all devices.
    launches: u64,
    /// VM operations of every kernel the skeletons launched.
    ops: u64,
    /// Work-groups the devices' worker pools executed.
    pool_groups: u64,
    /// Profiler counter deltas, in [`COUNTERS`] order (zero untraced).
    counters: [u64; COUNTERS.len()],
}

/// One timed warm iteration.
struct Sample {
    ms: f64,
    layers: HashMap<&'static str, f64>,
    calls_ms: f64,
    residual_ms: f64,
    counts: Counts,
    imbalance: f64,
}

/// One timed fresh-context iteration.
struct Cold {
    ms: f64,
    layers: HashMap<&'static str, f64>,
    compile_span_ms: f64,
    cache_miss: u64,
    cache_hit: u64,
}

const COLD_LAYERS: [&str; 3] = [ledger::INIT, ledger::COMPILE, ledger::UPLOAD];
const WARM_LAYERS: [&str; 8] = [
    ledger::READ,
    ledger::REDISTRIBUTE,
    ledger::ZIP,
    ledger::REDUCE,
    ledger::MAP,
    ledger::MAPOVERLAP,
    ledger::REDUCE_FUSED,
    ledger::PLAN_BUILD,
];

fn profiler(traced: bool) -> Profiler {
    if traced {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    }
}

/// Latest clock, total launches and total pool work-groups of the
/// context's devices.
fn device_state(ctx: &Context) -> (u64, u64, u64) {
    let devices = ctx.platform().devices();
    let clock = devices.iter().map(|d| d.now_ns()).max().unwrap_or(0);
    let stats = ctx.platform().exec_stats();
    (clock, stats.launches, stats.pool_groups_executed)
}

fn counter_values(ctx: &Context) -> [u64; COUNTERS.len()] {
    COUNTERS.map(|(_, key, _)| ctx.profiler().counter(key))
}

/// Runs one warm iteration on `session`, timing it and collecting its
/// simulated and counted values. Returns `None` when the call failed.
fn warm_iteration<W: Workload>(w: &W, session: &W::Session, out: &mut Outcome) -> Option<Sample> {
    let ctx = W::context(session);
    for d in ctx.platform().devices() {
        d.reset_peak();
    }
    let (clock0, launches0, groups0) = device_state(ctx);
    let counters0 = counter_values(ctx);
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let result = w.iterate(session, &mut ledger);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let output = match result {
        Ok(output) => output,
        Err(e) => {
            out.checked(false);
            out.problems.push(format!("warm iteration failed: {e}"));
            return None;
        }
    };
    out.checked(w.check(&output));
    if let Err(e) = ctx.finish() {
        out.problems.push(format!("queue drain failed: {e}"));
    }
    let (clock1, launches1, groups1) = device_state(ctx);
    let counters1 = counter_values(ctx);
    let mut busy: HashMap<usize, u64> = HashMap::new();
    let mut ops = 0;
    for log in W::logs(session) {
        for (d, ns) in log.kernel_busy_by_device() {
            *busy.entry(d).or_default() += ns;
        }
        ops += log
            .last_events()
            .iter()
            .filter_map(|e| e.counters())
            .map(|c| c.ops)
            .sum::<u64>();
    }
    let imbalance = match busy.values().max() {
        Some(&max) if max > 0 => max as f64 * busy.len() as f64 / busy.values().sum::<u64>() as f64,
        _ => 0.0,
    };
    let calls_ms = ledger.ms_of(&ledger::SKELETON_CALLS);
    Some(Sample {
        ms,
        layers: WARM_LAYERS.iter().map(|&l| (l, ledger.ms(l))).collect(),
        calls_ms,
        residual_ms: ms - ledger.timed_ms(),
        counts: Counts {
            sim_ns: clock1 - clock0,
            peak_bytes: ctx
                .platform()
                .devices()
                .iter()
                .map(|d| d.peak_allocated_bytes() as u64)
                .max()
                .unwrap_or(0),
            launches: launches1 - launches0,
            ops,
            pool_groups: groups1 - groups0,
            counters: std::array::from_fn(|i| counters1[i] - counters0[i]),
        },
        imbalance,
    })
}

/// One fresh-context iteration: `Context::init`, building the skeletons,
/// the upload, the first call and the read. `None` when a call failed.
fn cold_iteration<W: Workload>(w: &W, traced: bool, out: &mut Outcome) -> Option<Cold> {
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let result = w
        .setup(profiler(traced), &mut ledger)
        .and_then(|session| Ok((w.iterate(&session, &mut ledger)?, session)));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (output, session) = match result {
        Ok(r) => r,
        Err(e) => {
            out.checked(false);
            out.problems
                .push(format!("fresh-context iteration failed: {e}"));
            return None;
        }
    };
    out.checked(w.check(&output));
    let prof = W::context(&session).profiler();
    let compile_span_ms = prof
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Compile)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum();
    Some(Cold {
        ms,
        layers: COLD_LAYERS.iter().map(|&l| (l, ledger.ms(l))).collect(),
        compile_span_ms,
        cache_miss: prof.counter(keys::COMPILE_CACHE_MISS),
        cache_hit: prof.counter(keys::COMPILE_CACHE_HIT),
    })
}

/// Builds a session and runs its warm-up iterations.
fn warm_session<W: Workload>(w: &W, traced: bool, out: &mut Outcome) -> Option<W::Session> {
    let mut ledger = Ledger::default();
    let session = match w.setup(profiler(traced), &mut ledger) {
        Ok(s) => s,
        Err(e) => {
            out.checked(false);
            out.problems.push(format!("set-up failed: {e}"));
            return None;
        }
    };
    for _ in 0..WARMUP {
        warm_iteration(w, &session, out)?;
    }
    Some(session)
}

/// Checks that every sample's simulated and counted values equal the
/// first's, returning those values.
fn repeated(samples: &[Sample], what: &str, out: &mut Outcome) -> Counts {
    let first = samples.first().map(|s| s.counts).unwrap_or_default();
    if let Some(s) = samples.iter().find(|s| s.counts != first) {
        out.problems.push(format!(
            "determinism: {what} iterations differ: {first:?} vs {:?}",
            s.counts
        ));
    }
    first
}

fn ms_median(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// The closed loop: until `seconds` have passed (and at least
/// [`MIN_COLD`] rounds), rounds of one fresh-context iteration followed
/// by warm iterations for `(1 - COLD_SHARE) / COLD_SHARE` times as long,
/// so that cold and warm samples both span the whole run. In traced runs
/// each round's warm time is split between the untraced and the traced
/// session. Returns the fresh-context samples and each session's warm
/// samples; `None` when a call failed.
fn closed_loop<W: Workload>(
    w: &W,
    seconds: f64,
    sessions: &[&W::Session],
    traced: bool,
    out: &mut Outcome,
) -> Option<(Vec<Cold>, Vec<Vec<Sample>>)> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut warm: Vec<Vec<Sample>> = sessions.iter().map(|_| Vec::new()).collect();
    let mut colds = Vec::new();
    while colds.len() < MIN_COLD || Instant::now() < deadline {
        let cold = cold_iteration(w, traced, out)?;
        let share = cold.ms / 1e3 * (1.0 - COLD_SHARE) / COLD_SHARE / sessions.len() as f64;
        colds.push(cold);
        for (session, samples) in sessions.iter().zip(&mut warm) {
            let end = (Instant::now() + Duration::from_secs_f64(share)).min(deadline);
            loop {
                samples.push(warm_iteration(w, session, out)?);
                if Instant::now() >= end {
                    break;
                }
            }
        }
    }
    Some((colds, warm))
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end<W: Workload>(w: &W, seconds: f64, out: &mut Outcome) {
    let Some(session) = warm_session(w, false, out) else {
        return;
    };
    let Some((colds, warm)) = closed_loop(w, seconds, &[&session], false, out) else {
        return;
    };
    let samples = &warm[0];
    let counts = repeated(samples, "warm", out);
    let warm: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let warm_p50 = median(&warm);
    let cold: Vec<f64> = colds.iter().map(|c| c.ms).collect();
    let setup: Vec<f64> = colds
        .iter()
        .map(|c| (c.layers[ledger::INIT] + c.layers[ledger::COMPILE]) / 1e3)
        .collect();
    out.samples = vec![("warm", samples.len()), ("cold", colds.len())];
    out.push("warm_ms.p50", "ms", warm_p50);
    out.push("warm_ms.p90", "ms", percentile(&warm, 90.0));
    // Per second of the median warm iteration: a mean over the run would
    // follow the host's slow bursts rather than the program.
    out.push("items_per_s", "1/s", w.items() as f64 * 1e3 / warm_p50);
    out.push("cold_ms", "ms", median(&cold));
    out.push("setup_s", "s", median(&setup));
    out.push("sim_us", "us", counts.sim_ns as f64 / 1e3);
    out.push("peak_device_bytes", "bytes", counts.peak_bytes as f64);
    let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    out.push("ok_frac", "ratio", ok);
}

/// Simulated device time of one traced warm iteration, from its spans:
/// kernel and transfer µs summed over devices, and the share of transfer
/// time hidden behind other devices' kernels. Device clocks drift apart
/// from one iteration to the next, so this is taken from the first
/// iteration after the warm-up, at the same point of every session.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Timeline {
    kernel_us: f64,
    transfer_us: f64,
    hidden_frac: f64,
}

/// Runs one warm iteration on a traced session and derives its
/// [`Timeline`], checking that its kernel spans count the same VM ops as
/// the skeletons' event logs.
fn timeline_iteration<W: Workload>(
    w: &W,
    session: &W::Session,
    out: &mut Outcome,
) -> Option<(Sample, Timeline)> {
    let profiler = W::context(session).profiler();
    let before = profiler.spans().len();
    let sample = warm_iteration(w, session, out)?;
    let spans = profiler.spans().split_off(before);
    let device_us = |kinds: &[SpanKind]| {
        spans
            .iter()
            .filter(|s| matches!(s.lane, Lane::Device(_)) && kinds.contains(&s.kind))
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            / 1e3
    };
    let span_ops: u64 = spans.iter().filter_map(|s| s.counters.map(|c| c.ops)).sum();
    if span_ops != sample.counts.ops {
        out.problems.push(format!(
            "ledger: kernel spans count {span_ops} VM ops, event logs {}",
            sample.counts.ops
        ));
    }
    let overlap = overlap_stats(&spans);
    let timeline = Timeline {
        kernel_us: device_us(&[SpanKind::Kernel]),
        transfer_us: device_us(&[SpanKind::Upload, SpanKind::Download, SpanKind::Copy]),
        hidden_frac: overlap.total_hidden_ns() as f64 / overlap.total_transfer_ns().max(1) as f64,
    };
    Some((sample, timeline))
}

/// The traced run: per-layer metrics, with the warm loop interleaving an
/// untraced and a traced session so that the telemetry's cost is measured
/// under the same conditions. Also checks that the traced session, the
/// untraced one and a fresh traced replay agree on every simulated and
/// counted value. Returns the median fresh-context iteration time in ms,
/// the base of the compile share the purpose check uses.
pub fn per_layer<W: Workload>(w: &W, seconds: f64, out: &mut Outcome) -> f64 {
    let (Some(plain), Some(traced)) = (warm_session(w, false, out), warm_session(w, true, out))
    else {
        return 0.0;
    };
    let Some((_, timeline)) = timeline_iteration(w, &traced, out) else {
        return 0.0;
    };
    let Some((colds, warm)) = closed_loop(w, seconds, &[&plain, &traced], true, out) else {
        return 0.0;
    };
    let (plain_samples, samples) = (&warm[0], &warm[1]);
    let counts = repeated(samples, "traced warm", out);
    let plain_counts = repeated(plain_samples, "untraced warm", out);
    let untraced_view = Counts {
        counters: plain_counts.counters,
        ..counts
    };
    if untraced_view != plain_counts {
        out.problems.push(format!(
            "determinism: traced {counts:?} vs untraced {plain_counts:?}"
        ));
    }
    // A second traced session on the same seed must count the same.
    if let Some((replay, replay_timeline)) =
        warm_session(w, true, out).and_then(|s| timeline_iteration(w, &s, out))
    {
        if (replay.counts, replay_timeline) != (counts, timeline) {
            out.problems.push(format!(
                "determinism: replay {:?} {replay_timeline:?} vs {counts:?} {timeline:?}",
                replay.counts
            ));
        }
    }

    let cold_median = |f: &dyn Fn(&Cold) -> f64| median(&colds.iter().map(f).collect::<Vec<_>>());
    let calls_ms = ms_median(samples, |s| s.calls_ms);
    out.samples = vec![
        ("traced warm", samples.len()),
        ("untraced warm", plain_samples.len()),
        ("cold", colds.len()),
    ];
    for layer in COLD_LAYERS {
        out.push(layer, "ms", cold_median(&|c| c.layers[layer]));
    }
    out.push(
        "kernel.compile_span_ms",
        "ms",
        cold_median(&|c| c.compile_span_ms),
    );
    out.push(
        "kernel.cache_miss",
        "count",
        cold_median(&|c| c.cache_miss as f64),
    );
    out.push(
        "kernel.cache_hit",
        "count",
        cold_median(&|c| c.cache_hit as f64),
    );
    for layer in WARM_LAYERS {
        out.push(layer, "ms", ms_median(samples, |s| s.layers[layer]));
    }
    for (i, (name, _, unit)) in COUNTERS.iter().enumerate() {
        out.push(name, unit, counts.counters[i] as f64);
    }
    out.push("engine.launches", "count", counts.launches as f64);
    out.push(
        "engine.host_us_per_launch",
        "us",
        calls_ms * 1e3 / counts.launches.max(1) as f64,
    );
    out.push("vm.ops", "count", counts.ops as f64);
    out.push(
        "vm.ns_per_op",
        "ns",
        calls_ms * 1e6 / counts.ops.max(1) as f64,
    );
    out.push("vgpu.pool_groups", "count", counts.pool_groups as f64);
    out.push(
        "vgpu.pool_threads",
        "count",
        W::context(&traced).platform().exec_stats().pool_threads as f64,
    );
    out.push(
        "vgpu.imbalance",
        "ratio",
        ms_median(samples, |s| s.imbalance),
    );
    out.push("sim.kernel_us", "us", timeline.kernel_us);
    out.push("sim.transfer_us", "us", timeline.transfer_us);
    out.push("sim.hidden_transfer_frac", "ratio", timeline.hidden_frac);
    let plain_p50 = ms_median(plain_samples, |s| s.ms);
    out.push(
        "profile.overhead",
        "ratio",
        ms_median(samples, |s| s.ms) / plain_p50,
    );
    out.push("residual_ms", "ms", ms_median(samples, |s| s.residual_ms));
    cold_median(&|c| c.ms)
}
