//! The time abstraction of the session attempt loop.
//!
//! [`crate::serve::drive`], the one attempt loop, checks every deadline
//! and runs every backoff wait on a [`Clock`], and the session registry
//! stores each deadline as a reading of that same clock, so the attempt
//! loop never mixes wall and virtual time. [`crate::serve::Service`]
//! drives sessions on a [`WallClock`]; the `shs-sim` discrete-event
//! simulator drives each virtual session on its own [`VirtualClock`],
//! whose `sleep` *advances* time instead of blocking, so deep backoff
//! schedules cost zero wall-clock time and stay bit-reproducible.
//!
//! One thing still mixes: the registry stamps each entry's
//! `queued_at`, `started_at` and `finished_at`
//! ([`crate::serve::SessionEntry`]) with [`Instant::now`], so a session
//! driven on a [`VirtualClock`] carries wall-clock stamps beside its
//! virtual deadline. No decision reads those stamps; they are reporting
//! only.
//!
//! The TCP relay's write deadline and the TCP supervisor's reconnect
//! backoff wait on real sockets, so they use the OS clock directly.
//!
//! The trait is deliberately tiny: a monotonic "now" as a [`Duration`]
//! since the clock's own epoch, plus a sleep. Durations (rather than
//! [`Instant`]) keep the trait implementable by a virtual clock, which
//! has no `Instant` to hand out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of monotonic time plus a way to wait for it to pass.
///
/// Implementations must be cheap to call and safe to share across
/// threads; `now` must be monotonic per clock instance.
pub trait Clock: Send + Sync {
    /// Monotonic time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Waits until at least `d` of clock time has passed. A wall clock
    /// blocks the thread; a virtual clock advances itself instead.
    fn sleep(&self, d: Duration);
}

/// The operating-system clock: `now` is measured from the instant the
/// clock was created, `sleep` is [`std::thread::sleep`].
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// A shared virtual clock for discrete-event simulation: time is a
/// counter of nanoseconds that only moves when someone advances it.
///
/// `sleep` advances the counter by the requested duration and returns
/// immediately — a simulated backoff costs nothing in wall time. Clones
/// share the same underlying counter, so a simulator can hand one handle
/// to the attempt loop and keep another to charge simulated network
/// time against the same timeline.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock at time zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Moves the clock forward by `d`.
    pub fn advance_by(&self, d: Duration) {
        let delta = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.nanos.fetch_add(delta, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.advance_by(d);
    }
}

/// A shared handle to a clock, as threaded through the runtime.
pub type SharedClock = Arc<dyn Clock>;

/// The default clock used everywhere a caller does not supply one.
pub fn wall() -> SharedClock {
    Arc::new(WallClock::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_and_sleeps() {
        let c = WallClock::new();
        let a = c.now();
        c.sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b >= a + Duration::from_millis(2));
    }

    #[test]
    fn virtual_clock_advances_without_blocking() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        let start = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert!(start.elapsed() < Duration::from_millis(100), "no real wait");
        assert_eq!(c.now(), Duration::from_secs(3600));
    }

    #[test]
    fn virtual_clock_clones_share_the_timeline() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance_by(Duration::from_millis(250));
        b.sleep(Duration::from_millis(100));
        assert_eq!(a.now(), Duration::from_millis(350));
        assert_eq!(b.now(), a.now());
    }
}
