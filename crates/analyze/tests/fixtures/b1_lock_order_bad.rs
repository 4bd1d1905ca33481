//! Known-bad fixture for B1's lock order: opposite acquisition orders
//! (deadlock cycle), a re-entrant acquisition, and a guard held across a
//! channel send or a scoped thread spawn.
use std::sync::mpsc::Sender;
use std::sync::Mutex;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    pub fn alpha_then_beta(&self) -> u32 {
        let a = self.alpha.lock().unwrap();
        let b = self.beta.lock().unwrap();
        *a + *b
    }

    pub fn beta_then_alpha(&self) -> u32 {
        let b = self.beta.lock().unwrap();
        let a = self.alpha.lock().unwrap();
        *a + *b
    }

    pub fn reentrant(&self) -> u32 {
        let first = self.alpha.lock().unwrap();
        let second = self.alpha.lock().unwrap();
        *first + *second
    }

    pub fn notify_locked(&self, tx: &Sender<u32>) {
        let a = self.alpha.lock().unwrap();
        let _ = tx.send(*a);
    }

    pub fn scoped_while_locked(&self) -> u32 {
        let a = self.alpha.lock().unwrap();
        std::thread::scope(|_| *a + 1)
    }
}
