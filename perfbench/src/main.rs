//! The repository benchmark: four paper programs on the virtual Tesla
//! S1070, measured end to end (untraced) or layer by layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dot --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--workload all` runs every workload untraced and traced. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are the same metrics as a
//! table. See `README.md` next to this file.

mod ledger;
mod measure;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use skelcl::Profiler;
use skelcl_bench::workloads::random_f32_vector;

use measure::{Metric, Outcome};
use workloads::{Dot, FusedStream, Image, ManyKernels, Workload, KERNELS};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["dot", "image", "fused_stream", "many_kernels"];

/// Elements and per-device memory of the tight-memory probe.
const TIGHT_ELEMS: usize = 1 << 16;
const TIGHT_DEVICE_BYTES: usize = 64 << 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected all or one of {WORKLOADS:?}"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload in one mode.
fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let cold_ms = match workload {
        "dot" => measure_workload(&Dot::new(seed), seconds, trace, &mut out),
        "image" => measure_workload(&Image::new(seed), seconds, trace, &mut out),
        "fused_stream" => measure_workload(&FusedStream::new(seed), seconds, trace, &mut out),
        "many_kernels" => measure_workload(&ManyKernels::new(seed), seconds, trace, &mut out),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if trace {
        out.metrics.push(Metric {
            name: "stream.tight_ok",
            unit: "flag",
            value: f64::from(u8::from(tight_probe(seed))),
        });
        purpose_check(workload, cold_ms, &mut out);
    }
    out
}

/// Runs `w` traced or untraced; returns the traced run's median
/// fresh-context iteration time in ms (0 untraced).
fn measure_workload<W: Workload>(w: &W, seconds: f64, trace: bool, out: &mut Outcome) -> f64 {
    if trace {
        measure::per_layer(w, seconds, out)
    } else {
        measure::end_to_end(w, seconds, out);
        0.0
    }
}

/// The `fused_stream` pipeline at 2^16 elements on 64 KiB devices: does it
/// fit? Untimed and outside `ok_frac`; a failure is reported, not fatal.
fn tight_probe(seed: u64) -> bool {
    let w = FusedStream::with_input(random_f32_vector(TIGHT_ELEMS, seed), TIGHT_DEVICE_BYTES);
    let mut ledger = ledger::Ledger::default();
    let result = w
        .setup(Profiler::disabled(), &mut ledger)
        .and_then(|s| w.iterate(&s, &mut ledger));
    match result {
        Ok(total) => w.check(&total),
        Err(e) => {
            eprintln!("stream.tight_ok: 2^16 elements on 64 KiB devices failed: {e}");
            false
        }
    }
}

/// Asserts that the workload loads the layer it was chosen for and
/// bypasses the others, so that a change which silently stops streaming
/// or moves compilation out of the timed path fails the benchmark.
/// `cold_ms` is the median fresh-context iteration of the traced run.
fn purpose_check(workload: &str, cold_ms: f64, out: &mut Outcome) {
    let get = |name: &str| out.get(name);
    let compile_share = get(ledger::COMPILE) / cold_ms;
    let streams = workload == "fused_stream";
    let mut rules: Vec<(&str, bool)> = vec![
        (
            "stream.chunks > 0 only on fused_stream",
            (get("stream.chunks") > 0.0) == streams,
        ),
        (
            "stream.regions > 0 only on fused_stream",
            (get("stream.regions") > 0.0) == streams,
        ),
        (
            "plan.rules_fired > 0 only on fused_stream",
            (get("plan.rules_fired") > 0.0) == streams,
        ),
        (
            "container.redistributions > 0 only on image",
            (get("container.redistributions") > 0.0) == (workload == "image"),
        ),
        ("vm.ops > 0", get("vm.ops") > 0.0),
    ];
    let ops_per_launch = get("vm.ops") / get("engine.launches").max(1.0);
    match workload {
        "dot" => {
            rules.push((
                "dot: compiling is < 10% of a cold iteration",
                compile_share < 0.1,
            ));
            rules.push(("dot: skeleton calls are >= 80% of the iteration", {
                let calls = get(ledger::ZIP) + get(ledger::REDUCE);
                calls >= 0.8 * (calls + get(ledger::READ) + get("residual_ms"))
            }));
            rules.push(("dot: >= 10^5 VM ops per launch", ops_per_launch >= 1e5));
        }
        "image" => {
            rules.push((
                "image: row-dependent imbalance > 1.05",
                get("vgpu.imbalance") > 1.05,
            ));
        }
        "many_kernels" => {
            rules.push((
                "many_kernels: compiling is >= 20% of a cold iteration",
                compile_share >= 0.2,
            ));
            rules.push((
                "many_kernels: every user function compiles in a fresh context",
                get("kernel.cache_miss") >= KERNELS as f64,
            ));
            rules.push((
                "many_kernels: >= one launch per device per user function",
                get("engine.launches") >= (KERNELS * workloads::DEVICES) as f64,
            ));
            rules.push((
                "many_kernels: < 10^4 VM ops per launch",
                ops_per_launch < 1e4,
            ));
        }
        _ => {}
    }
    for (rule, ok) in rules {
        if !ok {
            out.problems.push(format!("purpose: {rule}"));
        }
    }
}

/// The environment guard: `SKELCL_*` variables select oracle paths and
/// budgets, so a run with any of them set would not measure the defaults.
fn skelcl_vars() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SKELCL_"))
        .collect()
}

fn print_table(workload: &str, trace: bool, out: &Outcome) {
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, n)| format!("{n} {k}"))
        .collect();
    println!(
        "== {workload} ({}; {} iterations checked; samples: {})",
        if trace { "traced" } else { "untraced" },
        out.attempted,
        samples.join(", ")
    );
    for m in &out.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let vars = skelcl_vars();
    if !vars.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset them first",
            vars.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: seed {}, {} s per run, nproc {nproc}",
        args.seed, args.seconds
    );
    let started = Instant::now();
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect()
    } else {
        let name = WORKLOADS
            .iter()
            .find(|&&w| w == args.workload)
            .expect("validated");
        vec![(*name, args.trace)]
    };
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    for (workload, trace) in &runs {
        let out = run(workload, args.seed, args.seconds, *trace);
        print_table(workload, *trace, &out);
        for p in &out.problems {
            eprintln!("perfbench: {workload}: {p}");
        }
        correct &= out.failed == 0 && out.problems.is_empty();
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if runs.len() > 1 {
            format!("{workload}/")
        } else {
            String::new()
        };
        metrics.extend(
            out.metrics
                .iter()
                .map(|m| (format!("{prefix}{}", m.name), *m)),
        );
    }
    eprintln!(
        "perfbench: finished in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    println!("{}", json(correct, attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}
