//! Process-global kernel counters, on the pdb-obs primitives.
//!
//! The flattening pass and both evaluators tick lock-free atomics so the
//! server's `stats` and `metrics` commands can report how much work runs on
//! the flat kernels and how well batching amortizes program decode. Counting
//! is per *evaluation* (one atomic add per program pass), never per node, so
//! the hot loops stay free of shared-cache-line traffic. The counters are
//! `const`-constructed [`pdb_obs`] statics — recording never locks or
//! allocates — read through [`stats`] and [`program_bytes`].

use pdb_obs::{AtomicHistogram, Counter, HistogramSnapshot};

static FLATTENED: Counter = Counter::new();
static EVALS: Counter = Counter::new();
static BATCHED_EVALS: Counter = Counter::new();
static EVAL_BYTES: Counter = Counter::new();
/// Distribution of `FlatProgram`/`FlatBool` byte sizes at flatten time — the
/// paper's circuit-size cost model, as a histogram. Flattening happens once
/// per circuit (outside the eval loops), so a histogram tick is affordable.
static PROGRAM_BYTES: AtomicHistogram = AtomicHistogram::new();

/// A point-in-time snapshot of the kernel counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Programs lowered by [`crate::FlatBuilder::finish`] (circuits,
    /// boolean programs — every successful flatten).
    pub flattened: u64,
    /// Full-program evaluations. A batched call of `B` lanes counts `B`
    /// (each lane is one circuit evaluation).
    pub evals: u64,
    /// Batched evaluation calls ([`crate::FlatProgram::eval_batch_into`]).
    pub batched_evals: u64,
    /// Program bytes streamed by all evaluations. A batched call charges
    /// its program size **once** — that is the decode amortization the
    /// batch entry point exists for, and `bytes_per_eval` makes it visible.
    pub eval_bytes: u64,
}

impl KernelStats {
    /// Average program bytes touched per evaluation; drops as batching
    /// amortizes decode across lanes.
    pub fn bytes_per_eval(&self) -> u64 {
        self.eval_bytes.checked_div(self.evals).unwrap_or(0)
    }
}

/// Reads the current counter values.
pub fn stats() -> KernelStats {
    KernelStats {
        flattened: FLATTENED.get(),
        evals: EVALS.get(),
        batched_evals: BATCHED_EVALS.get(),
        eval_bytes: EVAL_BYTES.get(),
    }
}

/// The distribution of flat program sizes, in bytes, at flatten time.
pub fn program_bytes() -> HistogramSnapshot {
    PROGRAM_BYTES.snapshot()
}

pub(crate) fn record_flatten(bytes: usize) {
    FLATTENED.inc();
    PROGRAM_BYTES.record(bytes as u64);
}

pub(crate) fn record_eval(bytes: usize) {
    EVALS.inc();
    EVAL_BYTES.add(bytes as u64);
}

pub(crate) fn record_batched(bytes: usize, lanes: usize) {
    BATCHED_EVALS.inc();
    EVALS.add(lanes as u64);
    EVAL_BYTES.add(bytes as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let before = stats();
        let sizes_before = program_bytes().count;
        record_flatten(64);
        record_eval(100);
        record_batched(100, 64);
        let after = stats();
        assert_eq!(after.flattened - before.flattened, 1);
        assert_eq!(after.evals - before.evals, 65);
        assert_eq!(after.batched_evals - before.batched_evals, 1);
        assert_eq!(after.eval_bytes - before.eval_bytes, 200);
        assert!(program_bytes().count > sizes_before);
    }

    #[test]
    fn bytes_per_eval_handles_zero() {
        let s = KernelStats::default();
        assert_eq!(s.bytes_per_eval(), 0);
        let s = KernelStats {
            evals: 4,
            eval_bytes: 100,
            ..Default::default()
        };
        assert_eq!(s.bytes_per_eval(), 25);
    }
}
