//! Reproduces the paper's programming-effort comparisons in prose:
//! §3.3 (dot product: ~68 lines of OpenCL vs a handful of SkelCL lines)
//! and §4.2 (Sobel kernels: AMD 37 lines, NVIDIA 208 lines, SkelCL "the
//! few lines of Listing 1.5"). A last table applies the same count to
//! this reproduction: library lines per workspace crate.
//!
//! Usage: `cargo run -p skelcl-bench --bin loc_table`

use skelcl_bench::baselines::sources;
use std::path::Path;

use skelcl_bench::loc::{crate_library_loc, paper, split_kernel_host};

fn kernel_loc(source_file: &str) -> usize {
    split_kernel_host(source_file).kernel
}

fn main() {
    println!("== Dot product, lines of code (paper section 3.3) ==\n");
    let dot_raw = split_kernel_host(sources::DOT_OPENCL);
    let dot_skel = split_kernel_host(sources::DOT_SKELCL);
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>22}",
        "variant", "kernel", "host", "total", "paper (kernel/host)"
    );
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>18}/{}",
        "OpenCL (hand-written)",
        dot_raw.kernel,
        dot_raw.host,
        dot_raw.total(),
        paper::DOT_OPENCL.kernel,
        paper::DOT_OPENCL.host,
    );
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>22}",
        "SkelCL",
        dot_skel.kernel,
        dot_skel.host,
        dot_skel.total(),
        "\"a few lines\""
    );

    println!("\n== Sobel kernels, lines of code (paper section 4.2) ==\n");
    let amd = kernel_loc(sources::SOBEL_AMD);
    let nvidia = kernel_loc(sources::SOBEL_NVIDIA);
    let skel = kernel_loc(sources::SOBEL_SKELCL);
    println!("{:<22} {:>8} {:>12}", "variant", "kernel", "paper");
    println!(
        "{:<22} {:>8} {:>12}",
        "OpenCL (AMD style)",
        amd,
        paper::SOBEL_KERNEL_AMD
    );
    println!(
        "{:<22} {:>8} {:>12}",
        "OpenCL (NVIDIA style)",
        nvidia,
        paper::SOBEL_KERNEL_NVIDIA
    );
    println!(
        "{:<22} {:>8} {:>12}",
        "SkelCL (Listing 1.5)", skel, "\"few lines\""
    );

    println!("\n== Mandelbrot, lines of code (Figure 4a) ==\n");
    for (name, src, p) in [
        ("CUDA", sources::MANDELBROT_CUDA, paper::MANDELBROT_CUDA),
        (
            "OpenCL",
            sources::MANDELBROT_OPENCL,
            paper::MANDELBROT_OPENCL,
        ),
        (
            "SkelCL",
            sources::MANDELBROT_SKELCL,
            paper::MANDELBROT_SKELCL,
        ),
    ] {
        let s = split_kernel_host(src);
        println!(
            "{:<10} kernel {:>3}  host {:>3}  total {:>3}   (paper: {:>2}/{:>2}/{:>3})",
            name,
            s.kernel,
            s.host,
            s.total(),
            p.kernel,
            p.host,
            p.total()
        );
    }

    // Shape checks mirroring the paper's claims.
    let dot_ratio = dot_raw.total() as f64 / dot_skel.total() as f64;
    let sobel_skel_smallest = skel < amd && skel < nvidia;
    println!(
        "\nshape check: raw OpenCL dot product is {:.1}x the SkelCL size (paper: 68 vs ~10)",
        dot_ratio
    );
    println!(
        "shape check: SkelCL Sobel kernel is the smallest of the three: {}",
        sobel_skel_smallest
    );

    println!("\n== This reproduction, library lines per crate (src of every crate) ==\n");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates = crate_library_loc(&root).expect("read the crate sources");
    for (name, loc) in &crates {
        println!("{name:<16} {loc:>7}");
    }
    let total: usize = crates.iter().map(|(_, loc)| loc).sum();
    println!("{:<16} {total:>7}", "total");

    let ok = dot_ratio > 1.5 && sobel_skel_smallest && nvidia > amd;
    println!(
        "\nresult: {}",
        if ok {
            "SHAPE REPRODUCED"
        } else {
            "SHAPE MISMATCH"
        }
    );
    std::process::exit(i32::from(!ok));
}
