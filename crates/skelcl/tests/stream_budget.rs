//! Acceptance test for the out-of-core streaming executor: a 4-GPU fused
//! map → stencil → reduce whose working set exceeds the per-device budget
//! must actually engage streaming (chunked regions, staged bytes), stay
//! within the budget for peak resident device bytes, and produce a result
//! bit-identical to the `SKELCL_STREAM=0` oracle. The same holds for the
//! eager chain of the three skeletons: each eager call is a one-node plan
//! and streams like any other region.
//!
//! The env gates are process-global, so this binary holds exactly one
//! test.

use skelcl::profile::metrics;
use skelcl::{
    BoundaryHandling, Context, DeviceSelection, Map, MapOverlapVec, Profiler, Reduce, Vector,
};
use vgpu::{DeviceSpec, Platform};

const DEVICES: usize = 4;
const N: usize = 1 << 18;
const BUDGET: usize = 256 * 1024;

/// Runs the map → stencil → reduce pipeline under the current env gates —
/// fused through lazy stages, or as three eager calls — returning the
/// scalar result's bits and the context for inspection.
fn run(eager: bool) -> (u32, Context) {
    let ctx = Context::init_with_profiler(
        Platform::new(DEVICES, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Profiler::enabled(),
    );
    let v = Vector::from_fn(&ctx, N, |i| ((i * 37) % 1999) as f32 * 0.5);
    let sq: Map<f32, f32> = Map::new(&ctx, "float sq(float x){ return x * x; }").unwrap();
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
        &ctx,
        "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
        1,
        BoundaryHandling::Neutral(0.0),
    )
    .unwrap();
    for d in 0..DEVICES {
        ctx.platform().device(d).reset_peak();
    }
    let r = if eager {
        sum.call(&blur.call(&sq.call(&v).unwrap()).unwrap())
    } else {
        sum.call_fused(&blur.lazy(&sq.lazy(&v.expr()).unwrap()).unwrap())
    };
    (r.unwrap().value().to_bits(), ctx)
}

/// The largest peak resident bytes over the context's devices.
fn max_peak(ctx: &Context) -> usize {
    (0..DEVICES)
        .map(|d| ctx.platform().device(d).peak_allocated_bytes())
        .max()
        .unwrap()
}

#[test]
fn streams_within_budget_and_matches_oracle() {
    std::env::set_var("SKELCL_DEVICE_BUDGET", BUDGET.to_string());

    std::env::set_var("SKELCL_STREAM", "0");
    let (oracle, oracle_ctx) = run(false);
    let (eager_oracle, eager_oracle_ctx) = run(true);
    let p = oracle_ctx.profiler();
    assert_eq!(
        p.counter(metrics::STREAM_REGIONS),
        0,
        "SKELCL_STREAM=0 must keep the oracle path"
    );
    let oracle_peak: usize = (0..DEVICES)
        .map(|d| oracle_ctx.platform().device(d).peak_allocated_bytes())
        .max()
        .unwrap();
    assert!(
        oracle_peak > BUDGET,
        "the workload must exceed the budget non-streamed (peak {oracle_peak})"
    );

    assert_eq!(
        eager_oracle_ctx.profiler().counter(metrics::STREAM_REGIONS),
        0,
        "SKELCL_STREAM=0 must keep eager calls on the oracle path"
    );
    assert!(
        max_peak(&eager_oracle_ctx) > BUDGET,
        "the eager chain must exceed the budget non-streamed"
    );

    std::env::set_var("SKELCL_STREAM", "2");
    let (streamed, ctx) = run(false);
    let (eager_streamed, eager_ctx) = run(true);
    std::env::remove_var("SKELCL_STREAM");
    std::env::remove_var("SKELCL_DEVICE_BUDGET");

    assert_eq!(streamed, oracle, "streamed result must be bit-identical");
    let p = ctx.profiler();
    assert!(
        p.counter(metrics::STREAM_REGIONS) >= 2,
        "both the stencil and the reduce region must stream"
    );
    assert!(
        p.counter(metrics::STREAM_CHUNKS) > 2 * DEVICES as u64,
        "each device's share must split into multiple chunks"
    );
    assert!(p.counter(metrics::STREAM_BYTES_STAGED) > 0);
    for d in 0..DEVICES {
        let peak = ctx.platform().device(d).peak_allocated_bytes();
        assert!(
            peak <= BUDGET,
            "device {d} peak resident bytes {peak} exceed the budget {BUDGET}"
        );
    }

    assert_eq!(
        eager_streamed, eager_oracle,
        "streamed eager chain must be bit-identical"
    );
    assert!(
        eager_ctx.profiler().counter(metrics::STREAM_REGIONS) >= 3,
        "the map, stencil and reduce calls must each stream"
    );
    for d in 0..DEVICES {
        let peak = eager_ctx.platform().device(d).peak_allocated_bytes();
        assert!(
            peak <= BUDGET,
            "eager chain: device {d} peak resident bytes {peak} exceed the budget {BUDGET}"
        );
    }
}
