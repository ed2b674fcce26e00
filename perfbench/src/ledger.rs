//! Host-clock bookkeeping: a per-iteration ledger of the time spent in
//! each layer's public calls, plus the order statistics the report uses.

use std::time::{Duration, Instant};

/// `Context::init` (platform discovery, queues, pools' owners).
pub const INIT: &str = "context.init_ms";
/// Skeleton constructors: code generation plus kernel compilation.
pub const COMPILE: &str = "kernel.compile_ms";
/// Container construction from host data plus the explicit upload.
pub const UPLOAD: &str = "container.upload_ms";
/// Host reads of results (`to_vec`, `Scalar::value`).
pub const READ: &str = "container.read_ms";
/// `set_distribution` on a device-resident container (gather to host).
pub const REDISTRIBUTE: &str = "container.redistribute_ms";
/// `Zip::call`.
pub const ZIP: &str = "skeleton.zip_ms";
/// `Reduce::call`.
pub const REDUCE: &str = "skeleton.reduce_ms";
/// `Map::call*`.
pub const MAP: &str = "skeleton.map_ms";
/// `MapOverlap::call`.
pub const MAPOVERLAP: &str = "skeleton.mapoverlap_ms";
/// `Reduce::call_fused` (plan lowering, streaming and the VM inside).
pub const REDUCE_FUSED: &str = "skeleton.reduce_fused_ms";
/// Building a lazy `Expr` pipeline plus `Expr::stats`.
pub const PLAN_BUILD: &str = "plan.build_ms";

/// The ledger keys that are skeleton calls (the layers below them — plan,
/// engine, queues, VM — run inside these calls).
pub const SKELETON_CALLS: [&str; 5] = [ZIP, REDUCE, MAP, MAPOVERLAP, REDUCE_FUSED];

/// Host time per layer within one iteration, timed around public calls.
#[derive(Debug, Default)]
pub struct Ledger {
    entries: Vec<(&'static str, Duration)>,
}

impl Ledger {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.entries.push((layer, start.elapsed()));
        result
    }

    /// Milliseconds charged to `layer`.
    pub fn ms(&self, layer: &str) -> f64 {
        self.entries
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .sum()
    }

    /// Milliseconds charged to any of `layers`.
    pub fn ms_of(&self, layers: &[&str]) -> f64 {
        layers.iter().map(|l| self.ms(l)).sum()
    }

    /// Milliseconds charged to all layers together.
    pub fn timed_ms(&self) -> f64 {
        self.entries
            .iter()
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .sum()
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ledger_sums_by_layer() {
        let mut l = Ledger::default();
        l.time(MAP, || std::thread::sleep(Duration::from_millis(2)));
        l.time(READ, || ());
        assert!(l.ms(MAP) >= 2.0);
        assert!(l.ms_of(&SKELETON_CALLS) >= 2.0);
        assert!(l.timed_ms() >= l.ms(MAP));
    }
}
