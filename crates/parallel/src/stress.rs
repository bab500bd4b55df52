//! Seeded schedule perturbation for tests (the `stress` cargo feature).
//!
//! On a machine with few cores the pool's workers tend to finish in the
//! same order every time, so a result that silently depends on *which chunk
//! finished first* can pass every width sweep. A pool built with
//! [`Pool::with_stress`](crate::Pool::with_stress) breaks that habit: each
//! of its multi-worker regions draws a stream from the seed, and every
//! worker pauses — not at all, one `yield_now`, or a spin of at most
//! [`MAX_SPIN`] iterations — before it claims each chunk and again before
//! the region joins. Results must not move; only the interleaving does.
//!
//! The feature is enabled by dev-dependencies only, so a release build has
//! neither this module nor a branch on it. The stream lives in a
//! thread-local: a region sets it on the caller for its duration, and each
//! spawned worker adopts its own fork, so nested inline regions inherit the
//! perturbation of the region around them.

use std::cell::Cell;

/// Upper bound on one pause's spin iterations (about 0.1 ms).
pub(crate) const MAX_SPIN: u64 = 1 << 12;

thread_local! {
    /// The perturbation stream of the region this thread is working in.
    static STREAM: Cell<Option<u64>> = const { Cell::new(None) };
    /// Multi-worker regions this thread has opened, so consecutive regions
    /// of one seeded pool draw different streams.
    static REGIONS: Cell<u64> = const { Cell::new(0) };
}

/// SplitMix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Restores the caller's stream when its region closes.
pub(crate) struct Region {
    prev: Option<u64>,
}

impl Region {
    /// Opens a region of a pool seeded with `seed` (`None`: not stressed)
    /// on the caller thread.
    pub(crate) fn enter(seed: Option<u64>) -> Region {
        let stream = seed.map(|s| {
            let n = REGIONS.with(|c| c.replace(c.get() + 1));
            mix(s ^ mix(n))
        });
        Region {
            prev: STREAM.with(|c| c.replace(stream)),
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        let prev = self.prev;
        STREAM.with(|c| c.set(prev));
    }
}

/// The stream worker `w` of the caller's current region adopts.
pub(crate) fn fork(w: usize) -> Option<u64> {
    STREAM.with(Cell::get).map(|s| mix(s ^ (w as u64 + 1)))
}

/// Makes `stream` this (freshly spawned) worker thread's stream.
pub(crate) fn adopt(stream: Option<u64>) {
    STREAM.with(|c| c.set(stream));
}

/// One perturbation drawn from this thread's stream; a no-op outside a
/// stressed region.
pub(crate) fn pause() {
    let Some(state) = STREAM.with(Cell::get) else {
        return;
    };
    let state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    STREAM.with(|c| c.set(Some(state)));
    let r = mix(state);
    match r % 4 {
        0 => {}
        1 => std::thread::yield_now(),
        _ => {
            for _ in 0..(r >> 32) % MAX_SPIN {
                std::hint::spin_loop();
            }
        }
    }
}
