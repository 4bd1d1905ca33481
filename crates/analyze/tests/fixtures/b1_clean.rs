//! Known-clean fixture for B1: the worker entry point stays compute-only
//! apart from bounded critical sections — each acquisition of `tally` and
//! `ready` holds its guard over no blocking call, no other lock, and no
//! unresolved call (a condvar wait on the guard releases it), and `slot`
//! is stored into only after its closure has run. The fn that does block is
//! unreachable from any worker root.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

pub fn worker_loop(
    xs: &mut [u64],
    tally: &Mutex<u64>,
    ready: &Mutex<bool>,
    cv: &Condvar,
    slot: &Mutex<Option<u64>>,
) {
    for x in xs.iter_mut() {
        *x = bump(*x);
        *tally.lock().unwrap() += 1;
    }
    store(slot, || 3);
    let done = ready.lock().unwrap();
    if !*done {
        drop(cv.wait_timeout(done, Duration::from_millis(1)).unwrap());
    }
}

fn store(slot: &Mutex<Option<u64>>, f: impl Fn() -> u64) {
    let v = f();
    *slot.lock().unwrap() = Some(v);
}

fn bump(x: u64) -> u64 {
    x.wrapping_add(1)
}

pub fn checkpoint(counter: &Mutex<u64>) -> u64 {
    let guard = counter.lock().unwrap();
    *guard
}
