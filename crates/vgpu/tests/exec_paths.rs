//! Equivalence and routing tests for the pooled launch engine.
//!
//! Every launch runs on the device's worker pool: barrier-free kernels on
//! the fast path, barrier kernels in pooled lockstep rounds. Both must be
//! observationally identical to a plain single-threaded lockstep sweep
//! over [`WorkItem::run_reference`] on [`HostMemory`] (the oracle below):
//! bit-identical buffers and identical [`CostCounters`] — otherwise
//! simulated-time results would drift with the optimisation. Kernels
//! **with** barriers must keep lockstep-round semantics (the barrier-free
//! path would fault on a barrier, so success here *is* the routing proof).

use proptest::prelude::*;

use skelcl_kernel::compile;
use skelcl_kernel::program::Program;
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{CostCounters, Exit, HostMemory, ItemGeometry, WorkItem};
use vgpu::{CommandQueue, DeviceSpec, Error, KernelArg, LaunchConfig, NdRange, Platform};

/// Device `devices - 1` of a fresh `devices`-GPU platform.
fn last_queue(devices: usize) -> CommandQueue {
    Platform::new(devices, DeviceSpec::tesla_t10()).queue(devices - 1)
}

/// Launches `kernel` over `range` on `queue` with fresh buffers holding
/// `[input, output]` followed by `scalars`, returning the final buffer
/// contents and the launch counters.
fn run_pool(
    queue: &CommandQueue,
    program: &Program,
    kernel: &str,
    buffers: &[Vec<u8>; 2],
    scalars: &[Value],
    range: NdRange,
) -> Result<([Vec<u8>; 2], CostCounters), Error> {
    let mut args = Vec::new();
    let mut bufs = Vec::new();
    for bytes in buffers {
        let buf = queue.create_buffer(bytes.len().max(1))?;
        if !bytes.is_empty() {
            queue.enqueue_write(&buf, 0, bytes)?;
        }
        args.push(KernelArg::Buffer(buf.clone()));
        bufs.push(buf);
    }
    args.extend(scalars.iter().map(|s| KernelArg::Scalar(*s)));
    let event = queue.launch_kernel(program, kernel, &args, range, &LaunchConfig::default())?;
    let counters = event.counters().expect("kernel events carry counters");
    let mut out: [Vec<u8>; 2] = buffers.clone();
    for (buf, bytes) in bufs.iter().zip(&mut out) {
        if !bytes.is_empty() {
            queue.enqueue_read(buf, 0, bytes)?;
        }
    }
    Ok((out, counters))
}

/// The oracle: every group in order, one fresh `WorkItem` per work-item,
/// lockstep rounds across barriers on the reference interpreter. Faults
/// come back as the error the engine reports for them.
fn run_reference(
    program: &Program,
    kernel: &str,
    buffers: &[Vec<u8>; 2],
    scalars: &[Value],
    range: NdRange,
) -> Result<([Vec<u8>; 2], CostCounters), Error> {
    let info = program.kernel(kernel).expect("kernel exists");
    let mut mem = HostMemory::new();
    let mut args = Vec::new();
    for bytes in buffers {
        args.push(Value::Ptr(Ptr {
            space: AddressSpace::Global,
            buffer: mem.add_buffer(bytes.clone()),
            byte_offset: 0,
        }));
    }
    args.extend_from_slice(scalars);
    let budget = LaunchConfig::default().ops_budget_per_item;
    let counts = range.group_counts();
    let mut total = CostCounters::default();
    for g in 0..range.total_groups() {
        let group_id = [
            (g % counts[0]) as u64,
            ((g / counts[0]) % counts[1]) as u64,
            (g / (counts[0] * counts[1])) as u64,
        ];
        let mut items = Vec::new();
        for lz in 0..range.local[2] {
            for ly in 0..range.local[1] {
                for lx in 0..range.local[0] {
                    let local_id = [lx as u64, ly as u64, lz as u64];
                    let geometry = ItemGeometry {
                        work_dim: range.dims,
                        global_id: std::array::from_fn(|d| {
                            group_id[d] * range.local[d] as u64 + local_id[d]
                        }),
                        local_id,
                        group_id,
                        global_size: range.global.map(|n| n as u64),
                        local_size: range.local.map(|n| n as u64),
                        num_groups: counts.map(|n| n as u64),
                    };
                    let mut item = WorkItem::new(program, info.func, &args, geometry);
                    item.set_ops_budget(budget);
                    for b in &info.local_arrays {
                        item.bind_entry_slot(
                            b.slot,
                            Value::Ptr(Ptr {
                                space: AddressSpace::Local,
                                buffer: 0,
                                byte_offset: b.byte_offset as i64,
                            }),
                        );
                    }
                    items.push(item);
                }
            }
        }
        let mut local_mem = vec![0u8; info.static_local_bytes as usize];
        let divergence = || Error::BarrierDivergence {
            kernel: kernel.to_string(),
            group_id,
        };
        loop {
            let mut barrier = None;
            for item in items.iter_mut().filter(|item| !item.is_finished()) {
                let global_id = item.geometry().global_id;
                match item.run_reference(&mem, &mut local_mem) {
                    Ok(Exit::Done) => {}
                    Ok(Exit::Barrier(id)) if barrier.is_none_or(|b| b == id) => barrier = Some(id),
                    Ok(Exit::Barrier(_)) => return Err(divergence()),
                    Err(error) => {
                        return Err(Error::Launch {
                            kernel: kernel.to_string(),
                            global_id,
                            error,
                        })
                    }
                }
            }
            match barrier {
                None => break,
                Some(_) if items.iter().any(WorkItem::is_finished) => return Err(divergence()),
                Some(_) => {}
            }
        }
        for item in &items {
            total.merge(&item.counters);
        }
    }
    Ok(([mem.bytes(0), mem.bytes(1)], total))
}

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Barrier-free kernels: bit-identical buffers and identical counters
    /// to the reference sweep, across 1–4 devices.
    #[test]
    fn barrier_free_path_matches_reference(
        data in proptest::collection::vec(any::<f32>(), 1..400),
        devices in 1usize..=4,
    ) {
        let program = compile(
            "ew.cl",
            "float f(float x, int i){ return x * 0.5f + (float)(i % 7); }
             __kernel void ew(__global const float* in, __global float* out, int n){
                 int i = (int)get_global_id(0);
                 if (i < n) out[i] = f(in[i], i) * in[i] - 1.0f;
             }",
        ).unwrap();
        prop_assert_eq!(program.kernel("ew").unwrap().barrier_count, 0);
        let n = data.len();
        let buffers = [f32s(&data), vec![0u8; n * 4]];
        let scalars = [Value::I32(n as i32)];
        let range = NdRange::linear_default(n);
        let (pool, pool_c) =
            run_pool(&last_queue(devices), &program, "ew", &buffers, &scalars, range).unwrap();
        let (reference, reference_c) =
            run_reference(&program, "ew", &buffers, &scalars, range).unwrap();
        prop_assert_eq!(pool, reference, "buffers must be bit-identical");
        prop_assert_eq!(pool_c, reference_c, "counters must be identical");
    }

    /// Kernels *with* barriers keep lockstep-round semantics on the pool:
    /// same results as the reference sweep, and no fast-path fault (which
    /// a misrouted barrier kernel would produce).
    #[test]
    fn barrier_kernels_never_take_fast_path(
        data in proptest::collection::vec(any::<i32>(), 1..6),
        devices in 1usize..=4,
    ) {
        let program = compile(
            "rev.cl",
            "__kernel void rev(__global const int* in, __global int* out){
                 __local int tile[64];
                 int lid = (int)get_local_id(0);
                 int n = (int)get_local_size(0);
                 tile[lid] = in[get_global_id(0)];
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[get_global_id(0)] = tile[n - 1 - lid];
             }",
        ).unwrap();
        prop_assert!(program.kernel("rev").unwrap().barrier_count > 0);
        // `data` seeds the group count: one group of 64 items per element.
        let groups = data.len();
        let n = groups * 64;
        let values: Vec<i32> = (0..n).map(|i| {
            data[i / 64].wrapping_mul(31).wrapping_add(i as i32)
        }).collect();
        let buffers = [i32s(&values), vec![0u8; n * 4]];
        let range = NdRange::linear(n, 64);
        let (pool, pool_c) =
            run_pool(&last_queue(devices), &program, "rev", &buffers, &[], range).unwrap();
        let (reference, reference_c) =
            run_reference(&program, "rev", &buffers, &[], range).unwrap();
        prop_assert_eq!(pool, reference, "buffers must be bit-identical");
        prop_assert_eq!(pool_c, reference_c, "counters must be identical");
    }
}

/// `CostCounters.ops` (and every other counter) for a fixed kernel is
/// identical to the reference sweep, so simulated-time results cannot
/// drift with the optimisation (no double-counting in the dispatch loop).
#[test]
fn counter_ops_identical_to_reference() {
    let program = compile(
        "mix.cl",
        "int collatz_steps(int x){
             int steps = 0;
             while (x > 1 && steps < 200) {
                 x = (x % 2 == 0) ? x / 2 : 3 * x + 1;
                 steps++;
             }
             return steps;
         }
         __kernel void mix(__global const int* in, __global int* out, int n){
             int i = (int)get_global_id(0);
             if (i < n) out[i] = collatz_steps(in[i] % 1000 + 1);
         }",
    )
    .unwrap();
    let n = 3000usize;
    let values: Vec<i32> = (0..n as i32).map(|i| i * 7 + 1).collect();
    let buffers = [i32s(&values), vec![0u8; n * 4]];
    let scalars = [Value::I32(n as i32)];
    let range = NdRange::linear_default(n);
    let (pool, pool_c) =
        run_pool(&last_queue(1), &program, "mix", &buffers, &scalars, range).unwrap();
    let (reference, reference_c) =
        run_reference(&program, "mix", &buffers, &scalars, range).unwrap();
    assert_eq!(pool, reference);
    assert_eq!(pool_c.ops, reference_c.ops, "instruction counts must match");
    assert_eq!(pool_c, reference_c, "all counters must match");
    assert!(pool_c.ops > n as u64, "kernel actually executed work");
}

/// Every launch runs on the device's persistent pool: the pool is created
/// once and reused, so later launches add work-groups but no threads.
#[test]
fn launches_reuse_one_pool() {
    let program = compile(
        "nop.cl",
        "__kernel void nop(__global int* out){ out[get_global_id(0)] = 1; }",
    )
    .unwrap();
    let platform = Platform::new(2, DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let buf = queue.create_buffer(256 * 4).unwrap();
    let range = NdRange::linear(256, 64);
    let launch = || {
        queue
            .launch_kernel(
                &program,
                "nop",
                &[KernelArg::Buffer(buf.clone())],
                range,
                &LaunchConfig::default(),
            )
            .unwrap()
    };

    launch();
    let first = platform.exec_stats();
    assert!(first.pool_threads >= 1, "device 0's pool is alive");
    for _ in 0..4 {
        launch();
    }
    let stats = platform.exec_stats();
    assert_eq!(stats.launches, 5);
    assert_eq!(stats.pool_threads, first.pool_threads, "no new threads");
    assert_eq!(stats.pool_groups_executed, 5 * 4, "every group ran pooled");
}

/// Faults surface exactly as the reference sweep reports them (first
/// faulting item in group order), and a faulted pool stays usable for the
/// next launch.
#[test]
fn faults_equivalent_and_pool_survives() {
    let program = compile(
        "oob.cl",
        "__kernel void oob(__global const int* in, __global int* out, int n) {
             int i = (int)get_global_id(0);
             out[i + n] = in[i];
         }",
    )
    .unwrap();
    let buffers = [i32s(&[7; 8]), vec![0u8; 8 * 4]];
    let scalars = [Value::I32(4)];
    let range = NdRange::linear(8, 8);
    let queue = last_queue(1);
    let pool_err = run_pool(&queue, &program, "oob", &buffers, &scalars, range).unwrap_err();
    let reference_err = run_reference(&program, "oob", &buffers, &scalars, range).unwrap_err();
    assert!(matches!(pool_err, Error::Launch { .. }), "{pool_err}");
    assert_eq!(pool_err.to_string(), reference_err.to_string());

    // The pool is not poisoned: a good launch on the same device succeeds.
    let ok = compile(
        "ok.cl",
        "__kernel void ok(__global const int* in, __global int* out, int n){
             int i = (int)get_global_id(0);
             if (i < n) out[i] = in[i] + i;
         }",
    )
    .unwrap();
    let (out, _) = run_pool(&queue, &ok, "ok", &buffers, &scalars, range).unwrap();
    assert_eq!(out[1], i32s(&[7, 8, 9, 10, 0, 0, 0, 0]));
}
