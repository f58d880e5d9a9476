//! Discrete-event simulation kernel used by the Gemini fabric model and the
//! Charm-like runtime driver.
//!
//! The kernel is deliberately tiny and allocation-light: a virtual clock in
//! nanoseconds ([`Time`]), a stable-ordered event queue ([`EventQueue`]), a
//! deterministic RNG ([`DetRng`]) so every experiment is reproducible, the one
//! fixed hash function every look-up table uses ([`DetHashMap`]), and the
//! statistics helpers ([`stats`]) the benchmark harness uses to report the
//! paper's tables and figures.
//!
//! # Quick example
//!
//! ```
//! use sim_core::EventQueue;
//!
//! // Times are nanoseconds.
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(3_000, "later");
//! q.push(1_000, "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (1_000, "sooner"));
//! ```

pub(crate) mod hash;
pub(crate) mod lazy;
pub mod parallel;
pub mod queue;
pub(crate) mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use hash::{DetHashMap, DetHashSet};
pub use lazy::LazyVec;
pub use queue::EventQueue;
pub use rng::DetRng;
pub use time::Time;

/// Ask the CPU to start loading the cache line that holds `p`, so that a
/// later read of it does not stall. A hint only: any address is allowed,
/// nothing is read or written that the program can observe, and on
/// targets without a prefetch instruction it does nothing. Pass addresses
/// inside live allocations: one in an unmapped page (null, or a
/// zero-sized value's dangling pointer) is harmless but costs a page walk.
/// The sequential engine uses it to load the next event's state while it
/// runs the current event (DESIGN.md §9).
#[inline(always)]
pub fn prefetch(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a hint that never faults, whatever the
    // address, and reads no memory the program observes; SSE, which it
    // needs, is part of the x86-64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
