//! The staged skeleton execution pipeline.
//!
//! Every skeleton runs the same sequence of stages (paper §3.3: a skeleton
//! is "a higher-order function customized by a user function welded into a
//! complete kernel"):
//!
//! 1. open the profiler span and bump the `skeleton.calls` counter
//!    ([`SkeletonCore::begin`]);
//! 2. validate the extra scalar arguments ([`SkeletonCore::check_extras`]);
//! 3. resolve the input distribution ([`elementwise_distribution`],
//!    [`reduction_distribution`], [`stencil_distributions`]);
//! 4. materialise the inputs and allocate the output
//!    ([`ElementwiseInput::input_chunks`], `alloc_device`);
//! 5. build one [`DeviceLaunch`] per device chunk
//!    ([`elementwise_launches`] for the uniform elementwise case);
//! 6. execute the [`crate::engine::LaunchPlan`] and record the events into
//!    the skeleton's [`EventLog`] ([`SkeletonCore::run`]).
//!
//! The 1-D calls of `Map`, `Zip`, `MapOverlapVec`, `Reduce` and `Scan`
//! run stages 3–6 through the plan lowering ([`crate::plan`]): each eager
//! call is the one-node plan its `lazy` form builds, lowered with no rule
//! firing, so it launches the skeleton's own kernel exactly as a staged
//! pipeline stage does. The matrix calls, `Map::call_index` and
//! `Allpairs` have no plan node yet and plug their own stage-5 launches
//! into the same skeleton core ([`elementwise_matrix`] for matrix
//! `Map`/`Zip`).

use vgpu::{Event, KernelArg, NdRange};

use crate::container::data::DeviceChunk;
use crate::container::Matrix;
use crate::context::Context;
use crate::distribution::Distribution;
use crate::engine::LaunchPlan;
use crate::error::Result;
use crate::skeleton::EventLog;
use crate::types::KernelScalar;
use skelcl_kernel::types::{ScalarType, Type};
use skelcl_kernel::value::Value;

/// Common behaviour of every skeleton: identification, the owning context,
/// profiling of the most recent call and access to the generated kernel.
///
/// All skeletons ([`crate::Map`], [`crate::Zip`], [`crate::Reduce`],
/// [`crate::Scan`], [`crate::MapOverlap`], [`crate::MapOverlapVec`],
/// [`crate::Allpairs`]) implement this trait; it is the uniform surface of
/// the staged execution pipeline they all run on.
pub trait Skeleton {
    /// The skeleton's name as used in profiler spans (e.g. `"Map"`).
    fn name(&self) -> &'static str;

    /// The context the skeleton was created on.
    fn context(&self) -> &Context;

    /// Profiling of the most recent call.
    fn events(&self) -> &EventLog;

    /// The generated kernel program's disassembly (debugging aid).
    fn kernel_disassembly(&self) -> String;
}

/// The shared state of every skeleton: context, welded program, extra
/// parameter types and the per-skeleton event log. Owns pipeline stages 1,
/// 2 and 6; the distribution/launch stages are free functions below so the
/// fused expression layer can reuse them without a skeleton instance.
#[derive(Debug)]
pub(crate) struct SkeletonCore {
    /// The owning context.
    pub ctx: Context,
    /// The compiled program containing the welded kernels.
    pub program: skelcl_kernel::Program,
    /// Skeleton name for spans and error messages.
    pub name: &'static str,
    /// Extra scalar parameter types of the customizing function.
    pub extras: Vec<Type>,
    /// Events of the most recent call.
    pub events: EventLog,
}

impl SkeletonCore {
    /// Creates the core with an empty event log.
    pub fn new(
        ctx: &Context,
        name: &'static str,
        program: skelcl_kernel::Program,
        extras: Vec<Type>,
    ) -> Self {
        SkeletonCore {
            ctx: ctx.clone(),
            program,
            name,
            extras,
            events: EventLog::default(),
        }
    }

    /// Stage 1: opens the host-lane span for one invocation (`op` is the
    /// full label, e.g. `"Map.call"`) and bumps the `skeleton.calls`
    /// counter. Inert when profiling is disabled.
    pub fn begin(&self, op: &'static str) -> skelcl_profile::SpanGuard {
        skeleton_span(&self.ctx, op)
    }

    /// Stage 2: validates the number of extra argument values supplied at
    /// call time.
    pub fn check_extras(&self, supplied: &[Value]) -> Result<()> {
        crate::codegen::check_extra_args(self.name, &self.extras, supplied)
    }

    /// Stage 6 for single-kernel skeletons: executes `kernel` over the
    /// launches and records the events.
    pub fn run(&self, kernel: &str, launches: Vec<DeviceLaunch>) -> Result<()> {
        let events = run_launches(&self.ctx, &self.program, kernel, launches)?;
        self.events.record(events);
        Ok(())
    }
}

/// One device's share of a skeleton execution.
#[derive(Debug)]
pub(crate) struct DeviceLaunch {
    /// Device index within the context.
    pub device: usize,
    /// Kernel arguments.
    pub args: Vec<KernelArg>,
    /// Launch geometry.
    pub range: NdRange,
    /// Distribution units (elements or rows) this launch owns — the
    /// scheduler's throughput model divides them by the measured kernel
    /// time.
    pub units: usize,
}

/// Runs `kernel` on every listed device concurrently through the plan
/// engine — one independent plan node per device, executed by the
/// devices' asynchronous queues — and waits for completion, returning the
/// events in device order. Profiler spans and scheduler measurements are
/// recorded by the engine's completion callbacks.
pub(crate) fn run_launches(
    ctx: &Context,
    program: &skelcl_kernel::Program,
    kernel: &str,
    launches: Vec<DeviceLaunch>,
) -> Result<Vec<Event>> {
    let mut plan = LaunchPlan::new();
    for l in launches {
        plan.kernel(l.device, program, kernel, l.args, l.range, l.units, &[]);
    }
    let run = plan.execute(ctx)?;
    run.wait()?;
    publish_pool_gauges(ctx);
    Ok(run.into_events())
}

/// Publishes the fast-path worker pools' execution telemetry — groups
/// executed, thread count, and the steal-cursor balance (min/max groups a
/// worker ran in the most recent pooled launch) — as per-device gauges.
/// Inert when profiling is disabled.
pub(crate) fn publish_pool_gauges(ctx: &Context) {
    let profiler = ctx.profiler();
    if !profiler.is_enabled() {
        return;
    }
    use skelcl_profile::metrics as m;
    for d in 0..ctx.device_count() {
        let stats = ctx.platform().device(d).exec_stats();
        if stats.pool_groups_executed == 0 {
            continue;
        }
        profiler.set_device_gauge(m::POOL_GROUPS, d, stats.pool_groups_executed as f64);
        profiler.set_device_gauge(m::POOL_THREADS, d, stats.pool_threads as f64);
        profiler.set_device_gauge(m::POOL_STEAL_BALANCE, d, stats.steal_balance());
    }
}

/// Compact launch-geometry label for kernel spans, e.g. `1024/256`,
/// `4096x3072/16x16` or `64x64x64/8x8x4` (global/local per dimension).
pub(crate) fn nd_range_label(range: &NdRange) -> String {
    match range.dims {
        0 | 1 => format!("{}/{}", range.global[0], range.local[0]),
        2 => format!(
            "{}x{}/{}x{}",
            range.global[0], range.global[1], range.local[0], range.local[1]
        ),
        _ => format!(
            "{}x{}x{}/{}x{}x{}",
            range.global[0],
            range.global[1],
            range.global[2],
            range.local[0],
            range.local[1],
            range.local[2]
        ),
    }
}

/// Opens the host-lane span for one skeleton invocation and bumps the
/// `skeleton.calls` counter. Inert when profiling is disabled.
pub(crate) fn skeleton_span(ctx: &Context, name: &'static str) -> skelcl_profile::SpanGuard {
    let profiler = ctx.profiler();
    profiler.add(skelcl_profile::metrics::SKELETON_CALLS, 1);
    profiler.host_span(skelcl_profile::SpanKind::Skeleton, name)
}

/// Stage 3 for elementwise skeletons: no halo is needed, so an overlap
/// request degrades to block.
pub(crate) fn elementwise_distribution(requested: Distribution) -> Distribution {
    match requested {
        Distribution::Overlap { .. } => Distribution::Block,
        other => other,
    }
}

/// Stage 3 for reductions and scans: copy degrades to a single device
/// (combining the same copy on every GPU would be redundant work) and
/// overlap degrades to block (the halo would double-count elements).
pub(crate) fn reduction_distribution(requested: Distribution) -> Distribution {
    match requested {
        Distribution::Copy => Distribution::Single(0),
        Distribution::Overlap { .. } => Distribution::Block,
        other => other,
    }
}

/// Stage 3 for stencils of range `d`: block-style inputs need an overlap
/// halo of at least `d`; outputs are written core-only.
pub(crate) fn stencil_distributions(
    requested: Distribution,
    d: usize,
) -> (Distribution, Distribution) {
    match requested {
        Distribution::Single(dev) => (Distribution::Single(dev), Distribution::Single(dev)),
        Distribution::Copy => (Distribution::Copy, Distribution::Copy),
        Distribution::Block => (Distribution::Overlap { size: d }, Distribution::Block),
        Distribution::Overlap { size } => (
            Distribution::Overlap { size: size.max(d) },
            Distribution::Block,
        ),
    }
}

/// A container usable as an elementwise-pipeline input: enough to resolve
/// a distribution and materialise device chunks without knowing the
/// element type. Implemented by [`crate::Vector`] and [`Matrix`]; the fused
/// expression layer stores its sources behind this trait.
pub(crate) trait ElementwiseInput: std::fmt::Debug + Send + Sync {
    /// The owning context.
    fn input_ctx(&self) -> &Context;
    /// Total element count.
    fn input_len(&self) -> usize;
    /// Element scalar type.
    fn input_scalar(&self) -> ScalarType;
    /// The distribution the pipeline should use, given `default`.
    fn input_distribution(&self, default: Distribution) -> Distribution;
    /// Materialises the container under `dist` and returns its chunks.
    fn input_chunks(&self, dist: Distribution) -> Result<Vec<DeviceChunk>>;
    /// Stable identity of the backing storage (fusion source dedup).
    fn input_id(&self) -> usize;
    /// Marks device buffers as freshly written (plan lowering writes to
    /// them behind the container's back).
    fn input_mark_device_written(&self);
    /// Reads unit range `units` as raw bytes from the freshest copy,
    /// staging only intersecting device chunks when the host copy is
    /// stale (the streaming executor's partial-range source reads).
    fn input_host_units(&self, units: std::ops::Range<usize>) -> Result<Vec<u8>>;
    /// Clones the container behind the trait (plan nodes own their leaves).
    fn input_boxed(&self) -> Box<dyn ElementwiseInput>;
    /// Downcast hook so a root-level staged intermediate can be returned
    /// as a typed container without a device round-trip.
    fn input_any(&self) -> &dyn std::any::Any;
}

/// Stage 5 for uniform elementwise kernels: one launch per output chunk
/// with arguments `in0, …, ink, out, n, extras…` over a default linear
/// range. All chunk lists must be aligned (same distribution, so the
/// per-device core ranges agree).
pub(crate) fn elementwise_launches(
    inputs: &[Vec<DeviceChunk>],
    outputs: &[DeviceChunk],
    unit_elems: usize,
    extra: &[Value],
) -> Vec<DeviceLaunch> {
    outputs
        .iter()
        .enumerate()
        .map(|(j, oc)| {
            let n = oc.plan.core_len() * unit_elems;
            let mut args: Vec<KernelArg> = inputs
                .iter()
                .map(|chunks| {
                    debug_assert_eq!(chunks[j].plan.core, oc.plan.core);
                    KernelArg::Buffer(chunks[j].buffer.clone())
                })
                .collect();
            args.push(KernelArg::Buffer(oc.buffer.clone()));
            args.push(KernelArg::Scalar(Value::I32(n as i32)));
            args.extend(extra.iter().map(|v| KernelArg::Scalar(*v)));
            DeviceLaunch {
                device: oc.plan.device,
                args,
                range: NdRange::linear_default(n),
                units: oc.plan.core_len(),
            }
        })
        .collect()
}

/// Stages 3–6 for an elementwise skeleton producing a matrix: resolve the
/// distribution from the first input, materialise every input, allocate
/// the output, launch and record. The distribution unit is a row, so each
/// launch covers `core rows × cols` elements.
pub(crate) fn elementwise_matrix<O: KernelScalar>(
    core: &SkeletonCore,
    kernel: &str,
    inputs: &[&dyn ElementwiseInput],
    rows: usize,
    cols: usize,
    extra: &[Value],
) -> Result<Matrix<O>> {
    let dist = elementwise_distribution(inputs[0].input_distribution(Distribution::Block));
    let in_chunks = materialize(inputs, dist)?;
    let (output, out_chunks) = Matrix::alloc_device(&core.ctx, rows, cols, dist)?;
    core.run(
        kernel,
        elementwise_launches(&in_chunks, &out_chunks, cols, extra),
    )?;
    output.mark_device_written();
    Ok(output)
}

/// Stage 4: materialises every input under `dist`.
pub(crate) fn materialize(
    inputs: &[&dyn ElementwiseInput],
    dist: Distribution,
) -> Result<Vec<Vec<DeviceChunk>>> {
    inputs.iter().map(|i| i.input_chunks(dist)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nd_range_labels() {
        assert_eq!(nd_range_label(&NdRange::linear(1000, 256)), "1024/256");
        assert_eq!(
            nd_range_label(&NdRange::grid([100, 60], [16, 16])),
            "112x64/16x16"
        );
        // 3-D ranges must not silently drop the z dimension.
        let r3 = NdRange {
            dims: 3,
            global: [64, 64, 64],
            local: [8, 8, 4],
        };
        assert_eq!(nd_range_label(&r3), "64x64x64/8x8x4");
    }

    #[test]
    fn distribution_rules() {
        // Elementwise: only overlap degrades.
        assert_eq!(
            elementwise_distribution(Distribution::Overlap { size: 3 }),
            Distribution::Block
        );
        assert_eq!(
            elementwise_distribution(Distribution::Copy),
            Distribution::Copy
        );
        // Reduction: copy collapses to a single device, overlap to block.
        assert_eq!(
            reduction_distribution(Distribution::Copy),
            Distribution::Single(0)
        );
        assert_eq!(
            reduction_distribution(Distribution::Overlap { size: 2 }),
            Distribution::Block
        );
        assert_eq!(
            reduction_distribution(Distribution::Block),
            Distribution::Block
        );
        // Stencil: block inputs gain a halo at least as wide as the range.
        assert_eq!(
            stencil_distributions(Distribution::Block, 2),
            (Distribution::Overlap { size: 2 }, Distribution::Block)
        );
        assert_eq!(
            stencil_distributions(Distribution::Overlap { size: 1 }, 4),
            (Distribution::Overlap { size: 4 }, Distribution::Block)
        );
        assert_eq!(
            stencil_distributions(Distribution::Single(1), 4),
            (Distribution::Single(1), Distribution::Single(1))
        );
    }
}
