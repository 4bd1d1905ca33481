//! Known-clean fixture for B1's lock order: a single global acquisition
//! order (alpha before beta), and guards dropped before blocking calls.
use std::sync::mpsc::Sender;
use std::sync::Mutex;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    pub fn sum(&self) -> u32 {
        let a = self.alpha.lock().unwrap();
        let b = self.beta.lock().unwrap();
        *a + *b
    }

    pub fn swap(&self) {
        let mut a = self.alpha.lock().unwrap();
        let mut b = self.beta.lock().unwrap();
        std::mem::swap(&mut *a, &mut *b);
    }

    pub fn notify(&self, tx: &Sender<u32>) {
        let a = self.alpha.lock().unwrap();
        let value = *a;
        drop(a);
        let _ = tx.send(value);
    }
}
