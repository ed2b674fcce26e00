//! The work-group execution engine.
//!
//! Work-groups are independent (as in OpenCL) and are executed in parallel
//! on host threads. Within one group, work-items run in **lockstep rounds**:
//! every item executes until it finishes or reaches a `barrier()`; the group
//! only proceeds past a barrier once *all* items arrived at the *same*
//! barrier site, which is checked and reported as
//! [`Error::BarrierDivergence`] instead of OpenCL's undefined behaviour.
//!
//! Every launch runs on the device's persistent [worker pool](crate::pool):
//! a launch costs a queue push instead of N thread spawns. Kernels whose
//! [`KernelInfo::barrier_count`] is zero take the **barrier-free fast
//! path**: one reusable [`WorkItem`] per pool thread is
//! [`reset`](WorkItem::reset) per item and run to completion in a tight
//! loop, skipping the lockstep-round machinery and all per-item allocation.
//! Kernels *with* barriers run lockstep rounds on pooled, reusable items.
//!
//! Both paths iterate the items of a group in the same (row-major local-id)
//! order a sequential lockstep sweep over [`WorkItem::run_reference`] uses,
//! so even racy barrier-free kernels produce the same buffers within a
//! group, and [`CostCounters`] are identical by construction.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use skelcl_kernel::program::{KernelInfo, Program};
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{CostCounters, Exit, ItemGeometry, RuntimeError, WorkItem};

use crate::cost::Toolchain;
use crate::device::Device;
use crate::error::{Error, Result};
use crate::memory::BufferTable;
use crate::ndrange::NdRange;

/// Deliberate faults injected into the execution engine, for tests that
/// exercise crash-recovery paths (panics on pool workers, `DeviceLost`
/// reporting, flight-recorder dumps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Panic on a pool worker the moment it picks up the launch — the
    /// simulated analogue of a driver crash mid-kernel. The pool's
    /// `catch_unwind` turns it into [`Error::DeviceLost`] and resets the
    /// worker's scratch.
    PanicInKernel,
}

/// Tuning knobs for a kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Which toolchain "built" the kernel (cost model input; see
    /// [`Toolchain`]).
    pub toolchain: Toolchain,
    /// Instruction budget per work-item, guarding against kernels that do
    /// not terminate.
    pub ops_budget_per_item: u64,
    /// Number of host threads executing work-groups (`None`: one per
    /// available CPU).
    pub host_threads: Option<usize>,
    /// Deliberate fault to inject (tests only; `None` in normal operation).
    pub fault_injection: Option<FaultInjection>,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            toolchain: Toolchain::OpenCl,
            ops_budget_per_item: 1 << 34,
            host_threads: None,
            fault_injection: None,
        }
    }
}

impl LaunchConfig {
    /// A config with the CUDA toolchain factor applied (paper's Fig. 4
    /// baseline).
    pub fn cuda() -> Self {
        LaunchConfig {
            toolchain: Toolchain::Cuda,
            ..Default::default()
        }
    }
}

/// Everything the pool workers need to execute one launch. Shared as an
/// `Arc` with every participating worker; owns clones of the program and
/// argument values so it is `'static` (pool threads outlive the launch
/// call frame).
pub(crate) struct LaunchState {
    program: Program,
    kernel: KernelInfo,
    args: Vec<Value>,
    buffers: BufferTable,
    range: NdRange,
    local_bytes: usize,
    ops_budget: u64,
    /// Whether groups take the barrier-free fast path.
    fast: bool,
    group_counts: [usize; 3],
    total_groups: usize,
    next_group: AtomicUsize,
    abort: AtomicBool,
    failure: Mutex<Option<Error>>,
    totals: Mutex<CostCounters>,
    /// Deliberate fault to inject (tests only).
    fault: Option<FaultInjection>,
    /// Work-groups each participating worker executed (one entry per
    /// worker that finished its share) — the steal-cursor telemetry the
    /// device aggregates after the launch.
    worker_groups: Mutex<Vec<u64>>,
    /// Completion latch, shared separately from the payload so a worker
    /// can release its payload reference *before* arriving.
    latch: Arc<Latch>,
}

/// Completion latch for one launch. Lives in its own `Arc`, apart from the
/// [`LaunchState`] payload: a worker must be able to drop its state clone
/// (and with it the buffer-table reference) *before* signalling, otherwise
/// the caller can observe the launch as complete — and free the containers
/// — while a descheduled worker still pins the buffers.
#[derive(Debug, Default)]
pub(crate) struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    /// Declares `participants` arrivals outstanding.
    fn begin(&self, participants: usize) {
        *self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = participants;
    }

    /// Marks one participant done, waking the waiter on the last.
    pub(crate) fn arrive(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every declared participant has arrived.
    fn wait(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl LaunchState {
    fn new(
        program: &Program,
        kernel: &KernelInfo,
        args: &[Value],
        buffers: &BufferTable,
        range: &NdRange,
        local_bytes: usize,
        config: &LaunchConfig,
    ) -> Self {
        LaunchState {
            program: program.clone(),
            kernel: kernel.clone(),
            args: args.to_vec(),
            buffers: buffers.clone(),
            range: *range,
            local_bytes,
            ops_budget: config.ops_budget_per_item,
            fast: kernel.barrier_count == 0,
            group_counts: range.group_counts(),
            total_groups: range.total_groups(),
            next_group: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            failure: Mutex::new(None),
            totals: Mutex::new(CostCounters::default()),
            fault: config.fault_injection,
            worker_groups: Mutex::new(Vec::new()),
            latch: Arc::new(Latch::default()),
        }
    }

    /// Per-worker group counts of the finished launch (steal telemetry).
    fn worker_group_counts(&self) -> Vec<u64> {
        self.worker_groups
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Declares `participants` workers about to run this launch.
    pub(crate) fn begin(&self, participants: usize) {
        self.latch.begin(participants);
    }

    /// A handle to the launch's completion latch. Workers clone this, drop
    /// their [`LaunchState`] reference, and only then arrive.
    pub(crate) fn latch(&self) -> Arc<Latch> {
        Arc::clone(&self.latch)
    }

    /// Records a failure (first one wins) and asks other workers to stop.
    pub(crate) fn fail(&self, e: Error) {
        self.abort.store(true, Ordering::Relaxed);
        self.failure
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(e);
    }

    /// Marks one participant done, waking the launch caller on the last.
    /// Callers that hold their own `Arc<LaunchState>` clone should instead
    /// drop it and arrive on the [`LaunchState::latch`] handle.
    pub(crate) fn finish_participant(&self) {
        self.latch.arrive();
    }

    /// Blocks until every participant declared by [`LaunchState::begin`]
    /// has finished.
    pub(crate) fn wait(&self) {
        self.latch.wait();
    }

    /// The launch outcome: the first failure, or the merged counters.
    fn outcome(&self) -> Result<CostCounters> {
        if let Some(e) = self
            .failure
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(e);
        }
        Ok(*self.totals.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn group_id(&self, g: usize) -> [u64; 3] {
        let gx = g % self.group_counts[0];
        let gy = (g / self.group_counts[0]) % self.group_counts[1];
        let gz = g / (self.group_counts[0] * self.group_counts[1]);
        [gx as u64, gy as u64, gz as u64]
    }
}

/// Per-worker reusable execution state. Owned by a pool thread and kept
/// across launches, so in steady state a launch performs no `WorkItem` or
/// local-memory allocation at all.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// Reusable items: the barrier-free fast path rearms `items[0]` per
    /// work-item; lockstep rounds need one per work-item of the largest
    /// group seen so far.
    items: Vec<WorkItem>,
    /// The work-group's local-memory arena.
    local_mem: Vec<u8>,
}

/// One worker's share of a launch: pulls group indices off the shared
/// counter until the launch is drained or aborted. Called by pool threads;
/// the pool wraps it in `catch_unwind` and always calls
/// [`LaunchState::finish_participant`] afterwards.
pub(crate) fn run_worker(state: &LaunchState, scratch: &mut WorkerScratch) {
    if state.fault == Some(FaultInjection::PanicInKernel) {
        panic!("vgpu: injected fault (FaultInjection::PanicInKernel)");
    }
    let mut local_counters = CostCounters::default();
    let mut groups_executed = 0u64;
    loop {
        if state.abort.load(Ordering::Relaxed) {
            break;
        }
        let g = state.next_group.fetch_add(1, Ordering::Relaxed);
        if g >= state.total_groups {
            break;
        }
        let group_id = state.group_id(g);
        let result = if state.fast {
            run_group_fast(state, scratch, group_id)
        } else {
            run_group_lockstep(state, scratch, group_id)
        };
        match result {
            Ok(c) => {
                local_counters.merge(&c);
                groups_executed += 1;
            }
            Err(e) => {
                state.fail(e);
                break;
            }
        }
    }
    state
        .worker_groups
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(groups_executed);
    state
        .totals
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .merge(&local_counters);
}

/// The geometry of the work-item at `local_id` within group `group_id`.
fn item_geometry(
    range: &NdRange,
    group_counts: [usize; 3],
    group_id: [u64; 3],
    local_id: [u64; 3],
) -> ItemGeometry {
    ItemGeometry {
        work_dim: range.dims,
        global_id: [
            group_id[0] * range.local[0] as u64 + local_id[0],
            group_id[1] * range.local[1] as u64 + local_id[1],
            group_id[2] * range.local[2] as u64 + local_id[2],
        ],
        local_id,
        group_id,
        global_size: [
            range.global[0] as u64,
            range.global[1] as u64,
            range.global[2] as u64,
        ],
        local_size: [
            range.local[0] as u64,
            range.local[1] as u64,
            range.local[2] as u64,
        ],
        num_groups: [
            group_counts[0] as u64,
            group_counts[1] as u64,
            group_counts[2] as u64,
        ],
    }
}

/// Rearms `items[idx]` (creating it on first use) for the work-item with
/// `geometry` and binds static `__local` arrays.
fn arm_item<'a>(
    items: &'a mut Vec<WorkItem>,
    idx: usize,
    state: &LaunchState,
    geometry: ItemGeometry,
) -> &'a mut WorkItem {
    if idx == items.len() {
        items.push(WorkItem::new(
            &state.program,
            state.kernel.func,
            &state.args,
            geometry,
        ));
    } else {
        items[idx].reset(&state.program, state.kernel.func, &state.args, geometry);
    }
    let item = &mut items[idx];
    item.set_ops_budget(state.ops_budget);
    for b in &state.kernel.local_arrays {
        item.bind_entry_slot(
            b.slot,
            Value::Ptr(Ptr {
                space: AddressSpace::Local,
                buffer: 0,
                byte_offset: b.byte_offset as i64,
            }),
        );
    }
    item
}

/// Barrier-free fast path: each item runs start-to-finish on one reusable
/// `WorkItem`, in the same row-major order lockstep rounds use.
fn run_group_fast(
    state: &LaunchState,
    scratch: &mut WorkerScratch,
    group_id: [u64; 3],
) -> Result<CostCounters> {
    let range = &state.range;
    scratch.local_mem.clear();
    scratch.local_mem.resize(state.local_bytes, 0);
    let mut counters = CostCounters::default();
    for lz in 0..range.local[2] {
        for ly in 0..range.local[1] {
            for lx in 0..range.local[0] {
                let local_id = [lx as u64, ly as u64, lz as u64];
                let geometry = item_geometry(range, state.group_counts, group_id, local_id);
                let global_id = geometry.global_id;
                let item = arm_item(&mut scratch.items, 0, state, geometry);
                match item.run(&state.buffers, &mut scratch.local_mem) {
                    Ok(Exit::Done) => counters.merge(&item.counters),
                    Ok(Exit::Barrier(_)) => {
                        // barrier_count == 0 guaranteed no barrier sites.
                        return Err(Error::Launch {
                            kernel: state.kernel.name.clone(),
                            global_id,
                            error: RuntimeError::Internal(
                                "barrier reached on the barrier-free fast path".into(),
                            ),
                        });
                    }
                    Err(error) => {
                        return Err(Error::Launch {
                            kernel: state.kernel.name.clone(),
                            global_id,
                            error,
                        })
                    }
                }
            }
        }
    }
    Ok(counters)
}

/// Lockstep rounds for kernels with barriers, on reusable `WorkItem`s and
/// the optimised interpreter.
fn run_group_lockstep(
    state: &LaunchState,
    scratch: &mut WorkerScratch,
    group_id: [u64; 3],
) -> Result<CostCounters> {
    let range = &state.range;
    let items_per_group = range.items_per_group();
    scratch.local_mem.clear();
    scratch.local_mem.resize(state.local_bytes, 0);

    let mut idx = 0;
    for lz in 0..range.local[2] {
        for ly in 0..range.local[1] {
            for lx in 0..range.local[0] {
                let local_id = [lx as u64, ly as u64, lz as u64];
                let geometry = item_geometry(range, state.group_counts, group_id, local_id);
                arm_item(&mut scratch.items, idx, state, geometry);
                idx += 1;
            }
        }
    }
    let items = &mut scratch.items[..items_per_group];

    // Lockstep rounds across barriers.
    loop {
        let mut barrier: Option<u32> = None;
        let mut any_done = false;
        for item in items.iter_mut() {
            if item.is_finished() {
                any_done = true;
                continue;
            }
            let global_id = item.geometry().global_id;
            let exit = item
                .run(&state.buffers, &mut scratch.local_mem)
                .map_err(|error| Error::Launch {
                    kernel: state.kernel.name.clone(),
                    global_id,
                    error,
                })?;
            match exit {
                Exit::Done => any_done = true,
                Exit::Barrier(id) => match barrier {
                    None => barrier = Some(id),
                    Some(prev) if prev == id => {}
                    Some(_) => {
                        return Err(Error::BarrierDivergence {
                            kernel: state.kernel.name.clone(),
                            group_id,
                        })
                    }
                },
            }
        }
        match barrier {
            None => break, // every item finished
            Some(_) if any_done => {
                // Some items finished while others wait at a barrier: the
                // barrier can never be satisfied.
                return Err(Error::BarrierDivergence {
                    kernel: state.kernel.name.clone(),
                    group_id,
                });
            }
            Some(_) => {} // all at the same barrier: next round resumes them
        }
    }

    let mut counters = CostCounters::default();
    for item in items.iter() {
        counters.merge(&item.counters);
    }
    Ok(counters)
}

/// Executes a launch on `device` and returns the aggregated counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_launch(
    device: &Device,
    program: &Program,
    kernel: &KernelInfo,
    args: &[Value],
    buffers: &BufferTable,
    range: &NdRange,
    local_bytes: usize,
    config: &LaunchConfig,
) -> Result<CostCounters> {
    if range.total_groups() == 0 {
        return Ok(CostCounters::default());
    }

    let threads = config
        .host_threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);

    let state = Arc::new(LaunchState::new(
        program,
        kernel,
        args,
        buffers,
        range,
        local_bytes,
        config,
    ));
    let pool = device.worker_pool(threads);
    device.note_launch();
    pool.run(&state);
    device.note_pool_groups(&state.worker_group_counts());
    state.outcome()
}
