//! Known-bad fixture for B1's lock order: the alpha/beta cycle, with the
//! second lock of the alpha-first order taken two calls below the guard
//! (`helper` -> `inner` -> `beta.lock()`).
use std::sync::Mutex;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    pub fn alpha_then_helper(&self) -> u32 {
        let a = self.alpha.lock().unwrap();
        *a + self.helper()
    }

    fn helper(&self) -> u32 {
        self.inner() + 1
    }

    fn inner(&self) -> u32 {
        *self.beta.lock().unwrap()
    }

    pub fn beta_then_alpha(&self) -> u32 {
        let b = self.beta.lock().unwrap();
        let a = self.alpha.lock().unwrap();
        *a + *b
    }
}
