//! Lines-of-code accounting for the programming-effort comparisons
//! (paper Fig. 4 and §3.3/§4.2), applied to this reproduction's own
//! implementation sources exactly as the paper applies it to SDK samples.

use std::fs;
use std::io;
use std::path::Path;

/// Counts non-blank, non-comment lines (`//` lines and `/* */` blocks are
/// excluded; code sharing a line with a trailing comment counts). String
/// literals (plain, escaped and Rust raw strings) and char literals are
/// code: comment markers inside them do not start a comment, and a line
/// inside a multi-line string literal counts.
pub fn count_loc(source: &str) -> usize {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        Block,
        Str,
        /// Inside a raw string closed by `"` and this many `#`.
        RawStr(usize),
    }
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut state = State::Code;
    let mut count = 0;
    for line in source.lines() {
        let chars: Vec<char> = line.chars().collect();
        let at = |i: usize| chars.get(i).copied();
        let mut code = false;
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if state == State::Code && c == '/' {
                match at(i + 1) {
                    Some('/') => break,
                    Some('*') => {
                        state = State::Block;
                        i += 2;
                        continue;
                    }
                    _ => {}
                }
            }
            if state != State::Block && !c.is_whitespace() {
                code = true;
            }
            match state {
                State::Block if c == '*' && at(i + 1) == Some('/') => {
                    state = State::Code;
                    i += 1;
                }
                State::Str if c == '\\' => i += 1,
                State::Str if c == '"' => state = State::Code,
                State::RawStr(hashes)
                    if c == '"' && (1..=hashes).all(|k| at(i + k) == Some('#')) =>
                {
                    state = State::Code;
                    i += hashes;
                }
                State::Code => match (c, at(i + 1)) {
                    ('"', _) => state = State::Str,
                    // A char literal (`'x'`, `'"'`, `'\n'`); a lone quote
                    // is a Rust lifetime or label.
                    ('\'', Some('\\')) => {
                        i += 2;
                        while at(i).is_some_and(|c| c != '\'') {
                            i += 1;
                        }
                    }
                    ('\'', Some(_)) if at(i + 2) == Some('\'') => i += 2,
                    // A raw string `r"…"` / `r#"…"#` (or `br…`) token.
                    ('r', _)
                        if i == 0
                            || !ident(chars[i - 1])
                            || (chars[i - 1] == 'b' && (i == 1 || !ident(chars[i - 2]))) =>
                    {
                        let hashes = chars[i + 1..].iter().take_while(|&&c| c == '#').count();
                        if at(i + 1 + hashes) == Some('"') {
                            state = State::RawStr(hashes);
                            i += 1 + hashes;
                        }
                    }
                    _ => {}
                },
                _ => {}
            }
            i += 1;
        }
        if code {
            count += 1;
        }
    }
    count
}

/// Library lines of every crate under `<root>/crates`: [`count_loc`]
/// summed over the `.rs` files below each crate's `src` directory, sorted
/// by crate name.
///
/// # Errors
///
/// Returns the first I/O error met while walking the tree.
pub fn crate_library_loc(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        let src = dir.join("src");
        if src.is_dir() {
            let name = dir.file_name().unwrap_or_default().to_string_lossy();
            out.push((name.into_owned(), rust_loc(&src)?));
        }
    }
    out.sort();
    Ok(out)
}

/// [`count_loc`] summed over every `.rs` file below `dir`.
fn rust_loc(dir: &Path) -> io::Result<usize> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            total += rust_loc(&path)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += count_loc(&fs::read_to_string(&path)?);
        }
    }
    Ok(total)
}

/// One implementation's size, split like the paper's Fig. 4 bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramSize {
    /// Kernel-function lines.
    pub kernel: usize,
    /// Host-program lines.
    pub host: usize,
}

impl ProgramSize {
    /// Total lines.
    pub fn total(&self) -> usize {
        self.kernel + self.host
    }
}

/// The paper's reported program sizes for the Mandelbrot application
/// (Fig. 4): `(kernel, host)` lines.
pub mod paper {
    use super::ProgramSize;

    /// CUDA Mandelbrot: 49 total (28 kernel, 21 host).
    pub const MANDELBROT_CUDA: ProgramSize = ProgramSize {
        kernel: 28,
        host: 21,
    };
    /// OpenCL Mandelbrot: 118 total (28 kernel, 90 host).
    pub const MANDELBROT_OPENCL: ProgramSize = ProgramSize {
        kernel: 28,
        host: 90,
    };
    /// SkelCL Mandelbrot: 57 total (26 kernel, 31 host).
    pub const MANDELBROT_SKELCL: ProgramSize = ProgramSize {
        kernel: 26,
        host: 31,
    };

    /// NVIDIA SDK dot product (§3.3): 68 total (9 kernel, 59 host).
    pub const DOT_OPENCL: ProgramSize = ProgramSize {
        kernel: 9,
        host: 59,
    };

    /// Sobel kernel sizes (§4.2): AMD 37 lines, NVIDIA 208 lines.
    pub const SOBEL_KERNEL_AMD: usize = 37;
    /// NVIDIA SDK Sobel kernel lines.
    pub const SOBEL_KERNEL_NVIDIA: usize = 208;

    /// Paper runtimes for Mandelbrot on one Tesla GPU (Fig. 4), seconds.
    pub const MANDELBROT_SECONDS: [(&str, f64); 3] =
        [("CUDA", 18.0), ("OpenCL", 25.0), ("SkelCL", 26.0)];

    /// Paper kernel runtimes for Sobel on 512×512 (Fig. 5), milliseconds
    /// (read off the figure).
    pub const SOBEL_MS: [(&str, f64); 3] = [
        ("OpenCL (AMD)", 0.23),
        ("OpenCL (NVIDIA)", 0.07),
        ("SkelCL", 0.066),
    ];
}

/// Splits an implementation source file into kernel and host LoC.
///
/// * The kernel part is everything between `// BEGIN KERNEL` /
///   `// END KERNEL` markers (the markers themselves do not count).
/// * If the file contains `// BEGIN PROGRAM` / `// END PROGRAM` markers,
///   only those regions are counted at all — this excludes test modules
///   and benchmarking wrappers, so the comparison covers the *application
///   program*, like the paper's standalone samples.
/// * Without program markers, everything before the first `#[cfg(test)]`
///   counts.
pub fn split_kernel_host(source: &str) -> ProgramSize {
    let mut kernel_text = String::new();
    let mut host_text = String::new();
    let mut in_kernel = false;
    let has_program_markers = source.contains("// BEGIN PROGRAM");
    let mut in_program = !has_program_markers;
    for line in source.lines() {
        let t = line.trim();
        if t.starts_with("// BEGIN PROGRAM") {
            in_program = true;
            continue;
        }
        if t.starts_with("// END PROGRAM") {
            in_program = false;
            continue;
        }
        if !has_program_markers && t.starts_with("#[cfg(test)]") {
            break;
        }
        if t.starts_with("// BEGIN KERNEL") {
            in_kernel = true;
            continue;
        }
        if t.starts_with("// END KERNEL") {
            in_kernel = false;
            continue;
        }
        if !in_program {
            continue;
        }
        if in_kernel {
            kernel_text.push_str(line);
            kernel_text.push('\n');
        } else {
            host_text.push_str(line);
            host_text.push('\n');
        }
    }
    ProgramSize {
        kernel: count_loc(&kernel_text),
        host: count_loc(&host_text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_not_comments() {
        let src = "\
// a comment
int x = 1; // trailing
/* block
   comment */
int y = 2;

/* inline */ int z = 3;
";
        assert_eq!(count_loc(src), 3);
    }

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(count_loc(""), 0);
        assert_eq!(count_loc("\n\n   \n"), 0);
        assert_eq!(count_loc("x"), 1);
    }

    #[test]
    fn block_comment_spanning_code() {
        let src = "a /* start\n middle \n end */ b\nc";
        assert_eq!(count_loc(src), 3); // `a`, `b`, `c` lines have code
    }

    #[test]
    fn comment_markers_inside_literals_are_code() {
        // A `/*` in a string literal must not open a block comment: the
        // lines after it are code.
        let src = "let s = \"/*\";\nlet t = 1;\nlet u = 2;\n";
        assert_eq!(count_loc(src), 3);
        // Nor does `//` in a string end the line's code, or a quote in a
        // char literal open a string.
        let src = "let q = '\"';\n/* c */\nlet url = \"a//b\"; /* d\n*/\n";
        assert_eq!(count_loc(src), 2);
        // Raw strings may contain quotes; lifetimes are not char literals.
        let src = "let r = r#\"say \"/*\"\"#;\nfn f<'a>(x: &'a str) {}\ny\n";
        assert_eq!(count_loc(src), 3);
        // Lines inside a multi-line string literal count, escapes included.
        let src = "let k = \"a\\\"\n  /* still a string */\n\";\n// note\n";
        assert_eq!(count_loc(src), 3);
        assert_eq!(count_loc("let c = '\\n'; /* x */ z\n"), 1);
    }

    #[test]
    fn kernel_host_split() {
        let src = "\
host line 1
// BEGIN KERNEL
kernel line 1
kernel line 2
// END KERNEL
host line 2
";
        let s = split_kernel_host(src);
        assert_eq!(s, ProgramSize { kernel: 2, host: 2 });
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn library_loc_covers_this_crate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let crates = crate_library_loc(&root).unwrap();
        let bench = crates.iter().find(|(name, _)| name == "skelcl-bench");
        assert!(bench.is_some_and(|(_, loc)| *loc > 0), "{crates:?}");
        assert!(crates.windows(2).all(|w| w[0].0 < w[1].0), "sorted by name");
    }

    #[test]
    fn paper_constants_match_text() {
        assert_eq!(paper::MANDELBROT_CUDA.total(), 49);
        assert_eq!(paper::MANDELBROT_OPENCL.total(), 118);
        assert_eq!(paper::MANDELBROT_SKELCL.total(), 57);
        assert_eq!(paper::DOT_OPENCL.total(), 68);
    }
}
