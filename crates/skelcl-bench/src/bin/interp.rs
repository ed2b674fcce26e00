//! Benchmark of the vgpu launch engine against the reference interpreter
//! (EXT-INTERP from DESIGN.md §5g): the pooled engine (persistent
//! per-device worker pools, barrier-free work-item reuse, zero-clone
//! dispatch loop) against a single-threaded sweep of every work-item on
//! [`WorkItem::run_reference`], on four barrier-free shapes: dot-product
//! (elementwise zip-multiply), mandelbrot (iteration-heavy), gaussian blur
//! (5x5 stencil) and a strided reduction (loop-dominated partial sums).
//!
//! A second section (EXT-IR from DESIGN.md §5h) measures the compile
//! pipeline: the MIR with no passes (`SKELCL_KERNEL_OPT=0`, the compiler's
//! reference pipeline) against each pass and the full pipeline, with the
//! same kind of sweep. Instruction and dispatch counts there are
//! deterministic and gated; walls stay under `host` keys.
//!
//! Host wall-clock here is *real* time on the build machine, not simulated
//! nanoseconds, so the report nests all measured numbers under `host` keys
//! (the bench gate checks their presence, never their values). The gated
//! conclusions are the booleans: the engine produces buffers and counters
//! bit-identical to the reference sweep, and the full pass pipeline
//! executes strictly fewer source ops than the reference pipeline (and no
//! more dispatch-loop iterations) on blur and reduce.
//!
//! Usage: `cargo run --release -p skelcl-bench --bin interp`

use std::time::{Duration, Instant};

use skelcl_bench::report::write_report;
use skelcl_kernel::program::Program;
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{CostCounters, HostMemory, ItemGeometry, WorkItem};
use skelcl_kernel::{compile_with_config, OptConfig};
use skelcl_profile::json::Json;
use skelcl_profile::report::bench_report;
use skelcl_profile::{FlightRecorder, Profiler};
use vgpu::{DeviceSpec, ExecStats, KernelArg, LaunchConfig, NdRange, Platform};

const DEVICES: usize = 4;

/// One benchmark shape: a barrier-free kernel plus its inputs, split
/// across the platform's devices in contiguous chunks (each device
/// receives the full input buffers and an `off` scalar selecting its
/// chunk, like SkelCL's block distribution).
struct Shape {
    name: &'static str,
    /// Kernel source, kept so the EXT-IR section can recompile the shape
    /// under each `SKELCL_KERNEL_OPT` configuration.
    source: &'static str,
    program: Program,
    kernel: &'static str,
    /// Input buffer contents, uploaded to every device.
    inputs: Vec<Vec<u8>>,
    /// Scalar args appended after `off` (the per-device chunk offset).
    scalars: Vec<Value>,
    /// Total work-items across all devices.
    items: usize,
    out_bytes_per_item: usize,
    /// Timed repetitions (after one warm-up launch per device).
    reps: usize,
}

/// The engine's run of a shape: wall-clock over the timed reps, the
/// gathered output, per-device launch counters and the platform's
/// execution statistics.
struct EngineRun {
    wall: Duration,
    out: Vec<u8>,
    counters: Vec<CostCounters>,
    stats: ExecStats,
}

/// Optional observability attachments for one engine run. The two knobs
/// measure different things, so they sit on opposite sides of the timer:
/// an enabled [`Profiler`] has the run's events recorded *after* the
/// timed loop (filling the duration/size histograms for the report
/// without perturbing the walls), while a [`FlightRecorder`] rides
/// the queue observers *inside* the timed loop, which is exactly the
/// overhead the `flight_overhead` acceptance check quantifies.
#[derive(Clone, Copy, Default)]
struct Observe<'a> {
    profiler: Option<&'a Profiler>,
    flight: Option<&'a FlightRecorder>,
}

fn run_shape(shape: &Shape, program: &Program, observe: Observe<'_>) -> EngineRun {
    // A fresh platform per run keeps `ExecStats` attributable.
    let platform = Platform::new(DEVICES, DeviceSpec::tesla_t10());
    let config = LaunchConfig::default();
    let chunk = shape.items.div_ceil(DEVICES);
    let out_bytes = shape.items * shape.out_bytes_per_item;

    let off = Profiler::disabled();
    let mut queues = Vec::new();
    let mut args = Vec::new();
    let mut outs = Vec::new();
    let mut uploads = Vec::new();
    for d in 0..DEVICES {
        let queue = platform.queue(d);
        if let Some(flight) = observe.flight {
            flight.attach_queue(&off, &queue);
        }
        let mut a = Vec::new();
        for input in &shape.inputs {
            let buf = queue.create_buffer(input.len().max(1)).expect("in buffer");
            uploads.push(queue.enqueue_write(&buf, 0, input).expect("upload"));
            a.push(KernelArg::Buffer(buf));
        }
        let out = queue.create_buffer(out_bytes.max(1)).expect("out buffer");
        a.push(KernelArg::Buffer(out.clone()));
        a.push(KernelArg::Scalar(Value::I32((d * chunk) as i32)));
        a.extend(shape.scalars.iter().map(|s| KernelArg::Scalar(*s)));
        queues.push(queue);
        args.push(a);
        outs.push(out);
    }

    let launch_all = || -> Vec<vgpu::Event> {
        let events: Vec<vgpu::Event> = (0..DEVICES)
            .filter(|d| d * chunk < shape.items)
            .map(|d| {
                let len = chunk.min(shape.items - d * chunk);
                queues[d]
                    .launch_kernel(
                        program,
                        shape.kernel,
                        &args[d],
                        NdRange::linear_default(len),
                        &config,
                    )
                    .expect("launch")
            })
            .collect();
        for e in &events {
            e.wait().expect("kernel completes");
        }
        events
    };

    launch_all(); // warm-up: pool creation, buffer residency
    let t = Instant::now();
    let mut last = Vec::new();
    for _ in 0..shape.reps {
        last = launch_all();
    }
    let wall = t.elapsed();

    let counters = last
        .iter()
        .map(|e| e.counters().expect("kernel events carry counters"))
        .collect();
    let mut out = vec![0u8; out_bytes];
    let mut gathers = Vec::new();
    for d in 0..DEVICES {
        let start = (d * chunk).min(shape.items) * shape.out_bytes_per_item;
        let end = ((d + 1) * chunk).min(shape.items) * shape.out_bytes_per_item;
        if start < end {
            gathers.push(
                queues[d]
                    .enqueue_read(&outs[d], start, &mut out[start..end])
                    .expect("gather"),
            );
        }
    }
    if let Some(profiler) = observe.profiler {
        for e in uploads.iter().chain(&last).chain(&gathers) {
            profiler.record_event(e);
        }
    }
    EngineRun {
        wall,
        out,
        counters,
        stats: platform.exec_stats(),
    }
}

fn f32s(vals: impl Iterator<Item = f32>) -> Vec<u8> {
    vals.flat_map(|v| v.to_le_bytes()).collect()
}

/// Specs for the EXT-IR per-pass sweep: the reference pipeline
/// (`SKELCL_KERNEL_OPT=0`), its spelled-out form `none`, each pass in
/// isolation, and the full default pipeline.
const IR_SPECS: [&str; 8] = [
    "0",
    "none",
    "const-prop",
    "cse",
    "dce",
    "licm",
    "unroll",
    "1",
];

/// One single-threaded sweep of a kernel over `HostMemory`: every
/// work-item in global-id order on a fresh [`WorkItem`] — no engine, no
/// pools — so every count is exact and deterministic, which lets the
/// bench gate compare them without tolerance.
struct Sweep {
    wall: Duration,
    /// The last buffer's final contents (the output).
    out: Vec<u8>,
    executed: CostCounters,
    executed_dispatches: u64,
}

/// Sweeps `items` work-items of `kernel` with the given buffers (the last
/// one is the output), an `off` of 0 and then `scalars` as arguments, on
/// the reference interpreter when `reference` is set and the optimised
/// one otherwise.
fn sweep(
    program: &Program,
    kernel: &str,
    buffers: &[Vec<u8>],
    scalars: &[Value],
    items: u64,
    reference: bool,
) -> Sweep {
    let k = program.kernel(kernel).expect("kernel exists");
    let mut mem = HostMemory::new();
    let mut args = Vec::new();
    let mut out_buf = 0;
    for bytes in buffers {
        out_buf = mem.add_buffer(bytes.clone());
        args.push(Value::Ptr(Ptr {
            space: AddressSpace::Global,
            buffer: out_buf,
            byte_offset: 0,
        }));
    }
    args.push(Value::I32(0)); // off
    args.extend_from_slice(scalars);

    let mut executed = CostCounters::default();
    let mut executed_dispatches = 0u64;
    let t = Instant::now();
    for gid in 0..items {
        let geo = ItemGeometry {
            work_dim: 1,
            global_id: [gid, 0, 0],
            local_id: [gid, 0, 0],
            group_id: [0, 0, 0],
            global_size: [items, 1, 1],
            local_size: [items, 1, 1],
            num_groups: [1, 1, 1],
        };
        let mut item = WorkItem::new(program, k.func, &args, geo);
        let exit = if reference {
            item.run_reference(&mem, &mut [])
        } else {
            item.run(&mem, &mut [])
        };
        exit.expect("work-item completes");
        executed.merge(&item.counters);
        executed_dispatches += item.dispatches;
    }
    Sweep {
        wall: t.elapsed(),
        out: mem.bytes(out_buf),
        executed,
        executed_dispatches,
    }
}

/// Static and executed cost of one compile configuration on a small IR
/// case.
struct IrRun {
    static_ops: usize,
    static_dispatches: usize,
    sweep: Sweep,
}

fn run_ir_case(
    name: &str,
    src: &str,
    kernel: &str,
    buffers: &[Vec<u8>],
    scalars: &[Value],
    items: u64,
    spec: &str,
) -> IrRun {
    let program = compile_with_config(name, src, &OptConfig::from_str_spec(spec))
        .unwrap_or_else(|e| panic!("compile {name} under spec {spec}: {e}"));
    let k = program.kernel(kernel).expect("kernel exists");
    let (static_ops, static_dispatches) = program.decode_stats(k.func as usize);
    IrRun {
        static_ops,
        static_dispatches,
        sweep: sweep(&program, kernel, buffers, scalars, items, false),
    }
}

const DOTMUL_SRC: &str = "__kernel void dotmul(__global const float* a, __global const float* b,
                      __global float* out, int off, int n){
     int i = (int)get_global_id(0) + off;
     if (i < n) out[i] = a[i] * b[i];
 }";

const MANDEL_SRC: &str =
    "__kernel void mandel(__global int* out, int off, int w, int h, int max_iter){
     int gid = (int)get_global_id(0) + off;
     if (gid >= w * h) return;
     float x0 = (float)(gid % w) / (float)w * 3.5f - 2.5f;
     float y0 = (float)(gid / w) / (float)h * 2.0f - 1.0f;
     float x = 0.0f;
     float y = 0.0f;
     int it = 0;
     while (x * x + y * y <= 4.0f && it < max_iter) {
         float xt = x * x - y * y + x0;
         y = 2.0f * x * y + y0;
         x = xt;
         it = it + 1;
     }
     out[gid] = it;
 }";

const BLUR_SRC: &str = "float coef(int d){
     int a = d < 0 ? -d : d;
     return a == 0 ? 6.0f : (a == 1 ? 4.0f : 1.0f);
 }
 __kernel void blur(__global const float* in, __global float* out,
                    int off, int w, int h){
     int gid = (int)get_global_id(0) + off;
     if (gid >= w * h) return;
     int x = gid % w;
     int y = gid / w;
     float acc = 0.0f;
     float norm = 0.0f;
     for (int dy = -2; dy <= 2; dy++) {
         for (int dx = -2; dx <= 2; dx++) {
             int sx = x + dx;
             int sy = y + dy;
             if (sx < 0) sx = 0;
             if (sx >= w) sx = w - 1;
             if (sy < 0) sy = 0;
             if (sy >= h) sy = h - 1;
             float wgt = coef(dx) * coef(dy);
             acc += in[sy * w + sx] * wgt;
             norm += wgt;
         }
     }
     out[gid] = acc / norm;
 }";

const REDUCE_SRC: &str = "__kernel void reduce(__global const float* in, __global float* out,
                      int off, int n, int stride){
     int gid = (int)get_global_id(0) + off;
     float acc = 0.0f;
     for (int i = gid; i < n; i += stride) acc += in[i];
     out[gid] = acc;
 }";

fn dot_product() -> Shape {
    let n = 1usize << 20;
    let program = skelcl_kernel::compile("dotmul.cl", DOTMUL_SRC).expect("compile dotmul");
    Shape {
        name: "dot_product",
        source: DOTMUL_SRC,
        program,
        kernel: "dotmul",
        inputs: vec![
            f32s((0..n).map(|i| (i % 1000) as f32 * 0.25)),
            f32s((0..n).map(|i| (i % 773) as f32 * 0.5 - 100.0)),
        ],
        scalars: vec![Value::I32(n as i32)],
        items: n,
        out_bytes_per_item: 4,
        reps: 3,
    }
}

fn mandelbrot() -> Shape {
    let (w, h, max_iter) = (384usize, 288usize, 120i32);
    let program = skelcl_kernel::compile("mandel.cl", MANDEL_SRC).expect("compile mandel");
    Shape {
        name: "mandelbrot",
        source: MANDEL_SRC,
        program,
        kernel: "mandel",
        inputs: vec![],
        scalars: vec![
            Value::I32(w as i32),
            Value::I32(h as i32),
            Value::I32(max_iter),
        ],
        items: w * h,
        out_bytes_per_item: 4,
        reps: 2,
    }
}

fn gaussian_blur() -> Shape {
    let (w, h) = (320usize, 320usize);
    let program = skelcl_kernel::compile("blur.cl", BLUR_SRC).expect("compile blur");
    Shape {
        name: "gaussian_blur",
        source: BLUR_SRC,
        program,
        kernel: "blur",
        inputs: vec![f32s(
            (0..w * h).map(|i| ((i * 2654435761) % 255) as f32 / 255.0),
        )],
        scalars: vec![Value::I32(w as i32), Value::I32(h as i32)],
        items: w * h,
        out_bytes_per_item: 4,
        reps: 2,
    }
}

fn strided_reduce() -> Shape {
    // 4096 partial sums over 2^20 elements: each work-item walks the
    // input with a stride of the *total* item count (SkelCL's partial
    // reduction layout), so the kernel is loop-dominated — the shape the
    // MIR pipeline's preamble/exit wins matter least and dispatch-loop
    // savings matter most.
    let n = 1usize << 20;
    let items = 4096usize;
    let program = skelcl_kernel::compile("reduce.cl", REDUCE_SRC).expect("compile reduce");
    Shape {
        name: "strided_reduce",
        source: REDUCE_SRC,
        program,
        kernel: "reduce",
        inputs: vec![f32s((0..n).map(|i| ((i % 641) as f32) * 0.125 - 40.0))],
        scalars: vec![Value::I32(n as i32), Value::I32(items as i32)],
        items,
        out_bytes_per_item: 4,
        reps: 3,
    }
}

fn main() {
    println!(
        "== Launch engine vs reference interpreter: pool on {DEVICES} virtual GPUs vs single-threaded reference sweep ==\n"
    );
    println!(
        "{:<14} {:>10} {:>14} {:>15} {:>12} {:>8} {:>8}",
        "shape", "items", "pool (items/s)", "ref (items/s)", "speedup", "bytes", "ctrs"
    );

    let shapes = [
        dot_product(),
        mandelbrot(),
        gaussian_blur(),
        strided_reduce(),
    ];
    // Histograms for the report come from the engine runs only, so the
    // p50/p90/p99 quantiles describe the engine under test.
    let profiler = Profiler::enabled();
    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut speedups = Vec::new();
    let mut stats = ExecStats::default();
    for shape in &shapes {
        assert_eq!(
            shape
                .program
                .kernel(shape.kernel)
                .expect("kernel")
                .barrier_count,
            0,
            "{}: the shapes are barrier-free (the fast path under test)",
            shape.name
        );
        let pool = run_shape(
            shape,
            &shape.program,
            Observe {
                profiler: Some(&profiler),
                flight: None,
            },
        );
        let mut buffers = shape.inputs.clone();
        buffers.push(vec![0u8; shape.items * shape.out_bytes_per_item]);
        let reference = sweep(
            &shape.program,
            shape.kernel,
            &buffers,
            &shape.scalars,
            shape.items as u64,
            true,
        );
        let mut pool_counters = CostCounters::default();
        for c in &pool.counters {
            pool_counters.merge(c);
        }
        let outputs_identical = pool.out == reference.out;
        let counters_identical = pool_counters == reference.executed;
        all_identical &= outputs_identical && counters_identical;
        stats.merge(&pool.stats);

        // The pool's wall covers `reps` launches, the sweep's one pass.
        let pool_rate = (shape.items * shape.reps) as f64 / pool.wall.as_secs_f64();
        let reference_rate = shape.items as f64 / reference.wall.as_secs_f64();
        let speedup = pool_rate / reference_rate;
        speedups.push(speedup);
        println!(
            "{:<14} {:>10} {:>14.0} {:>15.0} {:>11.2}x {:>8} {:>8}",
            shape.name,
            shape.items,
            pool_rate,
            reference_rate,
            speedup,
            if outputs_identical { "same" } else { "DIFF" },
            if counters_identical { "same" } else { "DIFF" },
        );
        rows.push((
            shape.name,
            Json::obj([
                ("items", (shape.items as u64).into()),
                ("reps", (shape.reps as u64).into()),
                ("outputs_identical", Json::Bool(outputs_identical)),
                ("counters_identical", Json::Bool(counters_identical)),
                (
                    "host",
                    Json::obj([
                        ("fast_wall_ms", Json::Num(pool.wall.as_secs_f64() * 1e3)),
                        (
                            "reference_wall_ms",
                            Json::Num(reference.wall.as_secs_f64() * 1e3),
                        ),
                        ("fast_items_per_sec", Json::Num(pool_rate)),
                        ("reference_items_per_sec", Json::Num(reference_rate)),
                        ("speedup", Json::Num(speedup)),
                    ]),
                ),
            ]),
        ));
    }
    println!(
        "\npool: {} launches on {} persistent pool threads; speedup over the reference sweep \
         (host clock): dot-product {:.2}x, mandelbrot {:.2}x, gaussian blur {:.2}x, strided reduce {:.2}x",
        stats.launches, stats.pool_threads, speedups[0], speedups[1], speedups[2], speedups[3]
    );

    // Flight-recorder overhead on the dot-product workload: the recorder
    // rides the queue observer inside the timed loop, so the wall delta is
    // its real cost. Plain and instrumented runs are interleaved (min of
    // three each) so both see the same machine conditions.
    let flight = FlightRecorder::with_capacity(4_096);
    let mut plain_wall = Duration::MAX;
    let mut flight_wall = Duration::MAX;
    for _ in 0..3 {
        plain_wall =
            plain_wall.min(run_shape(&shapes[0], &shapes[0].program, Observe::default()).wall);
        flight_wall = flight_wall.min(
            run_shape(
                &shapes[0],
                &shapes[0].program,
                Observe {
                    profiler: None,
                    flight: Some(&flight),
                },
            )
            .wall,
        );
    }
    let flight_overhead = flight_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0;
    let flight_under_5pct = flight_overhead < 0.05;
    assert!(
        flight.recorded() > 0,
        "instrumented runs must feed the recorder"
    );
    println!(
        "flight recorder: dot-product wall {:.2} ms plain vs {:.2} ms recorded ({:+.2}% overhead, <5%: {flight_under_5pct})",
        plain_wall.as_secs_f64() * 1e3,
        flight_wall.as_secs_f64() * 1e3,
        flight_overhead * 1e2,
    );

    // EXT-IR: the pass pipeline against the reference pipeline. First the
    // per-pass sweep on small variants of the two loop-heavy shapes,
    // measured exactly (deterministic counts: these gate); then
    // reference-vs-optimized wall clock on the engine with the full-size
    // shapes (host keys: presence-checked only).
    println!(
        "\n== IR pipeline: reference (SKELCL_KERNEL_OPT=0, MIR without passes) vs MIR passes ==\n"
    );
    let (bw, bh) = (64usize, 64usize);
    let (rn, ritems) = (16384usize, 256u64);
    let ir_cases = [
        (
            "blur",
            BLUR_SRC,
            "blur",
            vec![
                f32s((0..bw * bh).map(|i| ((i * 2654435761) % 255) as f32 / 255.0)),
                vec![0u8; bw * bh * 4],
            ],
            vec![Value::I32(bw as i32), Value::I32(bh as i32)],
            (bw * bh) as u64,
        ),
        (
            "reduce",
            REDUCE_SRC,
            "reduce",
            vec![
                f32s((0..rn).map(|i| (i as f32) * 0.25)),
                vec![0u8; ritems as usize * 4],
            ],
            vec![Value::I32(rn as i32), Value::I32(ritems as i32)],
            ritems,
        ),
    ];
    let mut ir_objs: Vec<(&str, Json)> = Vec::new();
    let mut ir_ok = true;
    for (name, src, kernel, buffers, scalars, items) in &ir_cases {
        println!("{name} ({items} items):");
        println!(
            "{:>12} {:>11} {:>12} {:>13} {:>14}",
            "spec", "static_ops", "static_disp", "executed_ops", "executed_disp"
        );
        let runs: Vec<IrRun> = IR_SPECS
            .iter()
            .map(|spec| {
                let r = run_ir_case(name, src, kernel, buffers, scalars, *items, spec);
                println!(
                    "{:>12} {:>11} {:>12} {:>13} {:>14}",
                    spec,
                    r.static_ops,
                    r.static_dispatches,
                    r.sweep.executed.ops,
                    r.sweep.executed_dispatches
                );
                r
            })
            .collect();
        let reference = &runs[0].sweep;
        let full = &runs.last().expect("spec list is non-empty").sweep;
        let outputs_identical = runs.iter().all(|r| r.sweep.out == reference.out);
        let fewer_ops = full.executed.ops < reference.executed.ops;
        let fewer_dispatches = full.executed_dispatches < reference.executed_dispatches;
        let no_more_dispatches = full.executed_dispatches <= reference.executed_dispatches;
        ir_ok &= outputs_identical && fewer_ops && no_more_dispatches;
        let ops_saved = reference.executed.ops.saturating_sub(full.executed.ops);
        let dispatches_saved = reference
            .executed_dispatches
            .saturating_sub(full.executed_dispatches);
        println!(
            "  ops_saved={ops_saved} dispatches_saved={dispatches_saved} \
             (fewer ops: {fewer_ops}, fewer dispatches: {fewer_dispatches}, \
             outputs identical: {outputs_identical})\n"
        );
        let spec_objs: Vec<(&str, Json)> = IR_SPECS
            .iter()
            .zip(&runs)
            .map(|(spec, r)| {
                (
                    *spec,
                    Json::obj([
                        ("static_ops", (r.static_ops as u64).into()),
                        ("static_dispatches", (r.static_dispatches as u64).into()),
                        ("executed_ops", r.sweep.executed.ops.into()),
                        ("executed_dispatches", r.sweep.executed_dispatches.into()),
                    ]),
                )
            })
            .collect();
        ir_objs.push((
            name,
            Json::obj([
                ("items", (*items).into()),
                (
                    "outputs_identical_across_specs",
                    Json::Bool(outputs_identical),
                ),
                ("opt_executes_fewer_ops", Json::Bool(fewer_ops)),
                (
                    "opt_executes_fewer_dispatches",
                    Json::Bool(fewer_dispatches),
                ),
                (
                    "counters",
                    Json::obj([
                        ("ops_saved", ops_saved.into()),
                        ("dispatches_saved", dispatches_saved.into()),
                    ]),
                ),
                ("specs", Json::obj(spec_objs)),
            ]),
        ));
    }

    // End-to-end on the engine: recompile the loop shapes with the
    // reference pipeline and race both programs (min of three,
    // interleaved so both see the same machine conditions).
    for shape in [&shapes[2], &shapes[3]] {
        let reference_prog =
            compile_with_config(shape.name, shape.source, &OptConfig::from_str_spec("0"))
                .expect("reference compile");
        let mut reference_wall = Duration::MAX;
        let mut opt_wall = Duration::MAX;
        let mut outputs_identical = true;
        for _ in 0..3 {
            let reference = run_shape(shape, &reference_prog, Observe::default());
            let opt = run_shape(shape, &shape.program, Observe::default());
            outputs_identical &= reference.out == opt.out;
            reference_wall = reference_wall.min(reference.wall);
            opt_wall = opt_wall.min(opt.wall);
        }
        let ir_speedup = reference_wall.as_secs_f64() / opt_wall.as_secs_f64();
        ir_ok &= outputs_identical;
        println!(
            "{}: reference compile {:.2} ms vs optimized {:.2} ms on the engine \
             ({:.2}x, outputs {})",
            shape.name,
            reference_wall.as_secs_f64() * 1e3,
            opt_wall.as_secs_f64() * 1e3,
            ir_speedup,
            if outputs_identical { "same" } else { "DIFF" },
        );
        ir_objs.push((
            shape.name,
            Json::obj([
                ("outputs_identical", Json::Bool(outputs_identical)),
                (
                    "host",
                    Json::obj([
                        (
                            "reference_wall_ms",
                            Json::Num(reference_wall.as_secs_f64() * 1e3),
                        ),
                        ("opt_wall_ms", Json::Num(opt_wall.as_secs_f64() * 1e3)),
                        ("speedup", Json::Num(ir_speedup)),
                    ]),
                ),
            ]),
        ));
    }
    println!(
        "ir pipeline check: optimized compile executes fewer ops, no more dispatches, \
         bit-identical: {ir_ok}"
    );

    let ok = all_identical && flight_under_5pct && ir_ok;
    println!(
        "\nresult: {}",
        if ok {
            "SHAPE REPRODUCED"
        } else {
            "SHAPE MISMATCH"
        }
    );

    let report = bench_report(
        "interp",
        &[
            ("devices", (DEVICES as u64).into()),
            ("engines", Json::from("pool vs reference sweep")),
        ],
        Json::obj(
            rows.into_iter()
                .chain([
                    ("ir", Json::obj(ir_objs)),
                    (
                        "flight_overhead",
                        Json::obj([
                            ("under_5pct", Json::Bool(flight_under_5pct)),
                            ("events_recorded", flight.recorded().into()),
                            (
                                "host",
                                Json::obj([
                                    ("plain_wall_ms", Json::Num(plain_wall.as_secs_f64() * 1e3)),
                                    ("flight_wall_ms", Json::Num(flight_wall.as_secs_f64() * 1e3)),
                                    ("overhead_pct", Json::Num(flight_overhead * 1e2)),
                                ]),
                            ),
                        ]),
                    ),
                    (
                        "acceptance",
                        Json::obj([(
                            "host",
                            Json::obj([("fast_pool_threads", stats.pool_threads.into())]),
                        )]),
                    ),
                    ("shape_reproduced", Json::Bool(ok)),
                ])
                .collect::<Vec<_>>(),
        ),
        profiler.metrics_snapshot().as_ref(),
    );
    let path = write_report("interp", &report).expect("write report");
    println!("report: {}", path.display());
    std::process::exit(i32::from(!ok));
}
