//! The four workloads, each a paper program, and their independent host
//! references.
//!
//! Every workload is configured only through the public API
//! (`Context::init_with_profiler`, `DeviceSpec`, skeleton constructors)
//! and receives only inputs generated from the seed. The seed also trims
//! each input slightly below its nominal size, so simulated time and byte
//! counts are functions of the input rather than constants.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skelcl::{
    BoundaryHandling, Context, DeviceSelection, Distribution, EventLog, Map, MapOverlap,
    MapOverlapVec, Matrix, Profiler, Reduce, Value, Vector, Zip,
};
use skelcl_bench::workloads::{mandelbrot_reference, random_f32_vector, sobel_reference};
use vgpu::{DeviceSpec, Platform};

use crate::ledger::{self, Ledger};

/// Virtual GPUs per context (the paper's Tesla S1070 has four).
pub const DEVICES: usize = 4;

/// Relative tolerance of the floating-point sums, taken against the sum
/// of the absolute values of the summed terms.
pub const SUM_TOLERANCE: f64 = 1e-4;

/// A benchmark workload: how to build a fresh session and run one
/// iteration of it, and how to check the iteration's output.
pub trait Workload {
    /// A context with its skeletons built and its inputs resident.
    type Session;
    /// What one iteration reads back to the host.
    type Output;

    /// Elements (or pixels) one iteration processes.
    fn items(&self) -> usize;

    /// Builds a fresh context and the skeletons and uploads the inputs,
    /// charging `Context::init`, the constructors and the uploads to their
    /// layers in `ledger`.
    fn setup(&self, profiler: Profiler, ledger: &mut Ledger) -> skelcl::Result<Self::Session>;

    /// The session's context.
    fn context(session: &Self::Session) -> &Context;

    /// One iteration: the skeleton calls plus the host read of the result,
    /// each charged to its layer in `ledger`.
    fn iterate(&self, session: &Self::Session, ledger: &mut Ledger)
        -> skelcl::Result<Self::Output>;

    /// Event logs of every skeleton an iteration calls.
    fn logs(session: &Self::Session) -> Vec<&EventLog>;

    /// Whether `output` matches the independent host reference.
    fn check(&self, output: &Self::Output) -> bool;
}

/// A context on `DEVICES` copies of `spec`.
fn context(spec: DeviceSpec, profiler: Profiler, ledger: &mut Ledger) -> Context {
    ledger.time(ledger::INIT, || {
        Context::init_with_profiler(Platform::new(DEVICES, spec), DeviceSelection::All, profiler)
    })
}

/// `nominal` minus a seeded multiple of 8 below `nominal / 64`.
fn trimmed(rng: &mut StdRng, nominal: usize) -> usize {
    nominal - 8 * rng.gen_range(0..nominal / 512)
}

/// Whether `got` is within [`SUM_TOLERANCE`] of `want`, relative to
/// `scale` (the sum of absolute values of the summed terms).
fn close(got: f32, want: f64, scale: f64) -> bool {
    (f64::from(got) - want).abs() <= SUM_TOLERANCE * scale.max(1.0)
}

// ---------------------------------------------------------------- dot

const MULT: &str = "float mult(float x, float y){ return x * y; }";
const SUM: &str = "float sum(float x, float y){ return x + y; }";

/// Paper Listing 1.1: eager `Zip`(mult) then `Reduce`(sum).
pub struct Dot {
    a: Vec<f32>,
    b: Vec<f32>,
    want: f64,
    scale: f64,
}

/// A built dot-product session.
pub struct DotSession {
    ctx: Context,
    mult: Zip<f32, f32, f32>,
    sum: Reduce<f32>,
    a: Vector<f32>,
    b: Vector<f32>,
}

impl Dot {
    /// Two seeded vectors of about 2^17 elements in `[-1, 1)`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = trimmed(&mut rng, 1 << 17);
        let a = random_f32_vector(n, rng.next_u64());
        let b = random_f32_vector(n, rng.next_u64());
        let terms = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y));
        let (want, scale) = terms.fold((0.0, 0.0), |(s, m), t| (s + t, m + t.abs()));
        Dot { a, b, want, scale }
    }
}

impl Workload for Dot {
    type Session = DotSession;
    type Output = f32;

    fn items(&self) -> usize {
        self.a.len()
    }

    fn setup(&self, profiler: Profiler, ledger: &mut Ledger) -> skelcl::Result<DotSession> {
        let ctx = context(DeviceSpec::tesla_t10(), profiler, ledger);
        let (mult, sum) = ledger.time(ledger::COMPILE, || {
            skelcl::Result::Ok((Zip::new(&ctx, MULT)?, Reduce::new(&ctx, SUM)?))
        })?;
        let (a, b) = ledger.time(ledger::UPLOAD, || {
            let a = Vector::from_vec(&ctx, self.a.clone());
            let b = Vector::from_vec(&ctx, self.b.clone());
            a.prefetch(Distribution::Block)?;
            b.prefetch(Distribution::Block)?;
            skelcl::Result::Ok((a, b))
        })?;
        Ok(DotSession {
            ctx,
            mult,
            sum,
            a,
            b,
        })
    }

    fn context(s: &DotSession) -> &Context {
        &s.ctx
    }

    fn iterate(&self, s: &DotSession, ledger: &mut Ledger) -> skelcl::Result<f32> {
        let products = ledger.time(ledger::ZIP, || s.mult.call(&s.a, &s.b))?;
        let total = ledger.time(ledger::REDUCE, || s.sum.call(&products))?;
        Ok(ledger.time(ledger::READ, || total.value()))
    }

    fn logs(s: &DotSession) -> Vec<&EventLog> {
        vec![s.mult.events(), s.sum.events()]
    }

    fn check(&self, got: &f32) -> bool {
        close(*got, self.want, self.scale)
    }
}

// -------------------------------------------------------------- image

/// The Mandelbrot customizing function (paper Fig. 4): one pixel from
/// its index.
const MANDELBROT: &str = r#"
uchar mandelbrot(int gid, int width, int height, int max_iter)
{
    int px = gid % width;
    int py = gid / width;
    float cr = 3.5f * (float)px / (float)width - 2.5f;
    float ci = 3.0f * (float)py / (float)height - 1.5f;
    float zr = 0.0f;
    float zi = 0.0f;
    int it = 0;
    while (zr * zr + zi * zi <= 4.0f && it < max_iter) {
        float t = zr * zr - zi * zi + cr;
        zi = 2.0f * zr * zi + ci;
        zr = t;
        it = it + 1;
    }
    return (uchar)(255 * it / max_iter);
}
"#;

/// The Sobel customizing function (paper Listing 1.5, Fig. 5).
const SOBEL: &str = r#"
uchar sobel(const uchar* img)
{
    int h = -1 * (int)get(img, -1, -1) + 1 * (int)get(img, +1, -1)
            -2 * (int)get(img, -1,  0) + 2 * (int)get(img, +1,  0)
            -1 * (int)get(img, -1, +1) + 1 * (int)get(img, +1, +1);
    int v = -1 * (int)get(img, -1, -1) - 2 * (int)get(img, 0, -1) - 1 * (int)get(img, +1, -1)
            +1 * (int)get(img, -1, +1) + 2 * (int)get(img, 0, +1) + 1 * (int)get(img, +1, +1);
    int mag = (int)sqrt((float)(h * h + v * v));
    return (uchar)(mag > 255 ? 255 : mag);
}
"#;

const MAX_ITER: i32 = 64;

/// Mandelbrot (`Map` over an index matrix) feeding Sobel (`MapOverlap`
/// with nearest boundaries) on a 256-pixel-wide frame of about 192 rows.
pub struct Image {
    width: usize,
    height: usize,
    fractal: Vec<u8>,
    edges: Vec<u8>,
}

/// A built image session.
pub struct ImageSession {
    ctx: Context,
    fractal: Map<i32, u8>,
    edges: MapOverlap<u8, u8>,
    index: Matrix<i32>,
}

impl Image {
    /// The frame: 256 columns and 189 to 192 seeded rows.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (width, height) = (256, 192 - rng.gen_range(0..4usize));
        let fractal = mandelbrot_reference(width, height, MAX_ITER);
        let edges = sobel_reference(&fractal, width, height);
        Image {
            width,
            height,
            fractal,
            edges,
        }
    }
}

impl Workload for Image {
    type Session = ImageSession;
    type Output = (Vec<u8>, Vec<u8>);

    fn items(&self) -> usize {
        self.width * self.height
    }

    fn setup(&self, profiler: Profiler, ledger: &mut Ledger) -> skelcl::Result<ImageSession> {
        let ctx = context(DeviceSpec::tesla_t10(), profiler, ledger);
        let (fractal, edges) = ledger.time(ledger::COMPILE, || {
            skelcl::Result::Ok((
                Map::new(&ctx, MANDELBROT)?,
                MapOverlap::new(&ctx, SOBEL, 1, BoundaryHandling::Nearest)?,
            ))
        })?;
        let index = ledger.time(ledger::UPLOAD, || {
            let index = Matrix::from_fn(&ctx, self.height, self.width, |r, c| {
                (r * self.width + c) as i32
            });
            index.prefetch(Distribution::Block)?;
            skelcl::Result::Ok(index)
        })?;
        Ok(ImageSession {
            ctx,
            fractal,
            edges,
            index,
        })
    }

    fn context(s: &ImageSession) -> &Context {
        &s.ctx
    }

    fn iterate(&self, s: &ImageSession, ledger: &mut Ledger) -> skelcl::Result<(Vec<u8>, Vec<u8>)> {
        let extra = [
            Value::I32(self.width as i32),
            Value::I32(self.height as i32),
            Value::I32(MAX_ITER),
        ];
        let fractal = ledger.time(ledger::MAP, || s.fractal.call_matrix_with(&s.index, &extra))?;
        // Paper §3.2: the block-distributed fractal is redistributed with
        // one-row overlaps for the stencil.
        ledger.time(ledger::REDISTRIBUTE, || {
            fractal.set_distribution(Distribution::Overlap { size: 1 })
        })?;
        let edges = ledger.time(ledger::MAPOVERLAP, || s.edges.call(&fractal))?;
        ledger.time(ledger::READ, || Ok((fractal.to_vec()?, edges.to_vec()?)))
    }

    fn logs(s: &ImageSession) -> Vec<&EventLog> {
        vec![s.fractal.events(), s.edges.events()]
    }

    fn check(&self, (fractal, edges): &(Vec<u8>, Vec<u8>)) -> bool {
        *fractal == self.fractal && *edges == self.edges
    }
}

// ------------------------------------------------------- fused_stream

const HEAT: &str = "float heat(float x){\n\
    float acc = 0.0f;\n\
    for (int i = 0; i < 4; i++) { acc += x / (float)(i + 1); }\n\
    return acc;\n\
}";
const BLUR: &str = "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }";

/// Per-device memory of the streamed workload: below the working set of
/// the unstreamed pipeline, so every plan region runs in chunks.
pub const STREAM_DEVICE_BYTES: usize = 48 << 10;

/// Lazy `heat` map, then `blur` stencil, then `Reduce::call_fused`, on
/// devices too small to hold the pipeline: the plan rewrite rules fuse it
/// and the stream executor chunks it through the staging ring.
pub struct FusedStream {
    input: Vec<f32>,
    device_bytes: usize,
    want: f64,
    scale: f64,
}

/// A built streamed-pipeline session.
pub struct FusedStreamSession {
    ctx: Context,
    heat: Map<f32, f32>,
    blur: MapOverlapVec<f32, f32>,
    sum: Reduce<f32>,
    input: Vector<f32>,
}

impl FusedStream {
    /// About 2^15 seeded elements on [`STREAM_DEVICE_BYTES`] devices.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = trimmed(&mut rng, 1 << 15);
        Self::with_input(random_f32_vector(n, rng.next_u64()), STREAM_DEVICE_BYTES)
    }

    /// The pipeline over `input` on devices of `device_bytes` memory.
    pub fn with_input(input: Vec<f32>, device_bytes: usize) -> Self {
        let heat: Vec<f64> = input.iter().map(|&x| f64::from(x) * 25.0 / 12.0).collect();
        let at = |i: isize| heat.get(i as usize).copied().unwrap_or(0.0);
        let (want, scale) = (0..heat.len() as isize)
            .map(|i| (at(i - 1) + at(i) + at(i + 1)) / 3.0)
            .fold((0.0, 0.0), |(s, m), t| (s + t, m + t.abs()));
        FusedStream {
            input,
            device_bytes,
            want,
            scale,
        }
    }
}

impl Workload for FusedStream {
    type Session = FusedStreamSession;
    type Output = f32;

    fn items(&self) -> usize {
        self.input.len()
    }

    fn setup(&self, profiler: Profiler, ledger: &mut Ledger) -> skelcl::Result<FusedStreamSession> {
        let spec = DeviceSpec {
            memory_bytes: self.device_bytes,
            ..DeviceSpec::tesla_t10()
        };
        let ctx = context(spec, profiler, ledger);
        let (heat, blur, sum) = ledger.time(ledger::COMPILE, || {
            skelcl::Result::Ok((
                Map::new(&ctx, HEAT)?,
                MapOverlapVec::new(&ctx, BLUR, 1, BoundaryHandling::Neutral(0.0))?,
                Reduce::new(&ctx, SUM)?,
            ))
        })?;
        // The stream executor stages the input from the host chunk by
        // chunk, so there is no upfront upload.
        let input = ledger.time(ledger::UPLOAD, || {
            Vector::from_vec(&ctx, self.input.clone())
        });
        Ok(FusedStreamSession {
            ctx,
            heat,
            blur,
            sum,
            input,
        })
    }

    fn context(s: &FusedStreamSession) -> &Context {
        &s.ctx
    }

    fn iterate(&self, s: &FusedStreamSession, ledger: &mut Ledger) -> skelcl::Result<f32> {
        let pipeline = ledger.time(ledger::PLAN_BUILD, || {
            let pipeline = s.blur.lazy(&s.heat.lazy(&s.input.expr())?)?;
            pipeline.stats()?;
            skelcl::Result::Ok(pipeline)
        })?;
        let total = ledger.time(ledger::REDUCE_FUSED, || s.sum.call_fused(&pipeline))?;
        Ok(ledger.time(ledger::READ, || total.value()))
    }

    fn logs(s: &FusedStreamSession) -> Vec<&EventLog> {
        vec![s.heat.events(), s.blur.events(), s.sum.events()]
    }

    fn check(&self, got: &f32) -> bool {
        close(*got, self.want, self.scale)
    }
}

// ------------------------------------------------------- many_kernels

/// Distinct user functions built per fresh context.
pub const KERNELS: usize = 32;
const KERNEL_INPUT: usize = 256;

/// One generated user function: `trips` rounds of a branch on the extra
/// scalar `s`, scaling by `a` (a multiple of 1/64, exact in `f32`) above
/// it and adding `b` below it.
struct UserFn {
    source: String,
    s: f32,
    trips: u32,
    a: f32,
    b: f32,
}

impl UserFn {
    fn seeded(k: usize, rng: &mut StdRng) -> Self {
        let trips = rng.gen_range(2..8u32);
        let a = rng.gen_range(16..64u32) as f32 / 64.0;
        let b = rng.gen_range(1..65u32) as f32 / 64.0;
        let s = rng.gen_range(-0.5f32..0.5);
        let source = format!(
            "float user{k}(float x, float s){{\n\
                 float acc = x;\n\
                 for (int i = 0; i < {trips}; i++) {{\n\
                     if (acc > s) {{ acc = acc * {a:.6}f - s; }} else {{ acc = acc + {b:.6}f; }}\n\
                 }}\n\
                 return acc;\n\
             }}"
        );
        UserFn {
            source,
            s,
            trips,
            a,
            b,
        }
    }

    /// The function evaluated on the host, operation for operation in
    /// `f32`.
    fn eval(&self, x: f32) -> f32 {
        let mut acc = x;
        for _ in 0..self.trips {
            acc = if acc > self.s {
                acc * self.a - self.s
            } else {
                acc + self.b
            };
        }
        acc
    }
}

/// [`KERNELS`] seeded `Map<f32, f32>` functions, each called once per
/// iteration on a 256-element vector: compile and per-call overhead, not
/// the VM, dominate.
pub struct ManyKernels {
    funcs: Vec<UserFn>,
    input: Vec<f32>,
    want: Vec<Vec<f32>>,
}

/// A built many-kernels session.
pub struct ManyKernelsSession {
    ctx: Context,
    maps: Vec<Map<f32, f32>>,
    input: Vector<f32>,
}

impl ManyKernels {
    /// Seeded functions and a seeded input vector.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let funcs: Vec<UserFn> = (0..KERNELS).map(|k| UserFn::seeded(k, &mut rng)).collect();
        let input = random_f32_vector(KERNEL_INPUT, rng.next_u64());
        let want = funcs
            .iter()
            .map(|f| input.iter().map(|&x| f.eval(x)).collect())
            .collect();
        ManyKernels { funcs, input, want }
    }
}

impl Workload for ManyKernels {
    type Session = ManyKernelsSession;
    type Output = Vec<Vec<f32>>;

    fn items(&self) -> usize {
        KERNELS * KERNEL_INPUT
    }

    fn setup(&self, profiler: Profiler, ledger: &mut Ledger) -> skelcl::Result<ManyKernelsSession> {
        let ctx = context(DeviceSpec::tesla_t10(), profiler, ledger);
        let maps = ledger.time(ledger::COMPILE, || {
            self.funcs
                .iter()
                .map(|f| Map::new(&ctx, &f.source))
                .collect::<skelcl::Result<Vec<_>>>()
        })?;
        let input = ledger.time(ledger::UPLOAD, || {
            let input = Vector::from_vec(&ctx, self.input.clone());
            input.prefetch(Distribution::Block)?;
            skelcl::Result::Ok(input)
        })?;
        Ok(ManyKernelsSession { ctx, maps, input })
    }

    fn context(s: &ManyKernelsSession) -> &Context {
        &s.ctx
    }

    fn iterate(
        &self,
        s: &ManyKernelsSession,
        ledger: &mut Ledger,
    ) -> skelcl::Result<Vec<Vec<f32>>> {
        s.maps
            .iter()
            .zip(&self.funcs)
            .map(|(map, f)| {
                let out =
                    ledger.time(ledger::MAP, || map.call_with(&s.input, &[Value::F32(f.s)]))?;
                ledger.time(ledger::READ, || out.to_vec())
            })
            .collect()
    }

    fn logs(s: &ManyKernelsSession) -> Vec<&EventLog> {
        s.maps.iter().map(Map::events).collect()
    }

    fn check(&self, got: &Vec<Vec<f32>>) -> bool {
        got.len() == self.want.len()
            && got.iter().zip(&self.want).all(|(g, w)| {
                g.len() == w.len() && g.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }
}
