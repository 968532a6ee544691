//! The synchronization-variable operation Programs 1–4 use:
//! `int_fetch_add`.
//!
//! Every word of Tera MTA memory carries a full/empty bit, and the paper
//! notes that "synchronization on every element of a large data structure
//! is practical" on the MTA. The one use the benchmark programs as built
//! make of it is the fine-grained Threat Analysis variant's shared
//! interval counter, updated with `int_fetch_add` to allocate output
//! slots. The *cost* difference (1 cycle on the MTA versus
//! hundreds–thousands of cycles on conventional machines) is modelled in
//! `eval-core`, and full/empty words themselves are simulated by
//! `mta-sim`; this module provides the host behaviour so the fine-grained
//! variant can be executed and verified.

/// An always-full integer cell supporting the MTA's one-cycle
/// `int_fetch_add`, used to allocate slots in a shared output array.
///
/// On the host this is an atomic; on the MTA model it costs one cycle and
/// never serializes (the fetch-add happens in the memory unit).
#[derive(Debug, Default)]
pub struct SyncCounter {
    value: std::sync::atomic::AtomicU64,
}

impl SyncCounter {
    /// A counter starting at `v`.
    pub fn new(v: u64) -> Self {
        Self {
            value: std::sync::atomic::AtomicU64::new(v),
        }
    }

    /// Atomically add `delta` and return the *previous* value.
    pub fn fetch_add(&self, delta: u64) -> u64 {
        self.value
            .fetch_add(delta, std::sync::atomic::Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_counter_fetch_add_returns_previous() {
        let c = SyncCounter::new(10);
        assert_eq!(c.fetch_add(3), 10);
        assert_eq!(c.fetch_add(1), 13);
        assert_eq!(c.get(), 14);
    }

    #[test]
    fn sync_counter_concurrent_slot_allocation_is_dense() {
        let c = SyncCounter::new(0);
        let slots = std::sync::Mutex::new(vec![false; 4000]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let slot = c.fetch_add(1) as usize;
                        let mut v = slots.lock().unwrap();
                        assert!(!v[slot], "slot {slot} allocated twice");
                        v[slot] = true;
                    }
                });
            }
        });
        assert!(slots.lock().unwrap().iter().all(|&b| b));
    }
}
