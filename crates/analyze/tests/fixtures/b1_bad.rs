//! Known-bad fixture for B1: the worker entry point (`worker_loop`)
//! reaches a helper that parks on a mutex it holds across another lock, so
//! the critical section is not bounded. The block is one hop away, so the
//! finding must carry an interprocedural trace. A second helper holds a
//! `let`-bound guard across a call to its closure parameter, which can run
//! any amount of work, so that critical section is not bounded either.

use std::sync::Mutex;

pub fn worker_loop(
    counter: &Mutex<u64>,
    log: &Mutex<Vec<u64>>,
    slot: &Mutex<Option<u64>>,
    rounds: u32,
) {
    for _ in 0..rounds {
        bump(counter, log);
        fill(slot, || 7);
    }
}

fn fill(slot: &Mutex<Option<u64>>, f: impl Fn() -> u64) {
    let mut guard = slot.lock().unwrap();
    *guard = Some(f());
}

fn bump(counter: &Mutex<u64>, log: &Mutex<Vec<u64>>) {
    let mut guard = counter.lock().unwrap();
    *guard += 1;
    publish(log, *guard);
}

fn publish(log: &Mutex<Vec<u64>>, value: u64) {
    log.lock().unwrap().push(value);
}
