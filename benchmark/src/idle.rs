//! Keeps the cores out of their idle states while a run measures.
//!
//! Microsecond-scale round trips (a `view show` is ~15 µs) are otherwise
//! set by how deeply the peer's core was asleep: on this VM an idle core
//! halts into the hypervisor, and the same binary measured 12 µs or 37 µs
//! per round trip from one run to the next. One lowest-priority spinner per
//! core has the effect `idle=poll` would: the scheduler hands the core over
//! at once when a server or load thread wakes, and takes under 2 % of a busy
//! core for it. With it the spread of `read_p50_ms` on `view_mix` fell from
//! 0.62 to 0.12.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    /// POSIX `nice(2)`; on Linux it moves only the calling thread.
    fn nice(increment: i32) -> i32;
}

/// Spinners run until this is dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start(cores: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: `nice` takes an integer by value and touches
                    // no memory of ours; failing to lower the priority is
                    // harmless and reported through its return value only.
                    unsafe { nice(19) };
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}
