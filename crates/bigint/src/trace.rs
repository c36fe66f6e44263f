//! Limb-level operation traces for secret-independence tests (the
//! `trace-ops` feature).
//!
//! [`crate::counters`] counts API-level operations to back the paper's
//! complexity claims; this module counts *limb-level* events —
//! multiplications, additions/subtractions, quotient-digit estimates, and
//! data-dependent branches — inside the bigint kernels
//! ([`crate::mont::MontCtx`], [`crate::Ubig::mul`], [`crate::Ubig::divrem`],
//! [`crate::gcd::ext_gcd`], [`crate::gcd::modinv`], Miller–Rabin). Tests
//! capture the trace of a computation over one secret and assert it is
//! *identical* to the trace over another secret of the same public width:
//! any secret-dependent early-exit, skipped multiply, or conditional
//! subtraction shows up as a count difference. This is the dynamic
//! complement of the `shs-lint` static pass, which cannot see control
//! flow.
//!
//! Recording is compiled to a no-op unless the crate is built with
//! `--features trace-ops`, so production builds pay nothing. Counters are
//! thread-local; recording granularity is one call per kernel pass (a
//! whole inner loop records its limb count at once), keeping the
//! instrumented overhead far below one counter update per limb.

/// A snapshot of limb-level event counts on the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpTrace {
    /// Limb additions / subtractions (carry chains).
    pub limb_add: u64,
    /// Limb multiplications (64×64 → 128).
    pub limb_mul: u64,
    /// Quotient-digit estimates (per-limb division steps).
    pub limb_div: u64,
    /// Data-dependent branches taken: quotient corrections, add-backs,
    /// early exits, skipped-zero-limb shortcuts.
    pub branch: u64,
}

impl OpTrace {
    /// Component-wise difference (`self - earlier`).
    #[must_use]
    pub fn since(&self, earlier: &OpTrace) -> OpTrace {
        OpTrace {
            limb_add: self.limb_add - earlier.limb_add,
            limb_mul: self.limb_mul - earlier.limb_mul,
            limb_div: self.limb_div - earlier.limb_div,
            branch: self.branch - earlier.branch,
        }
    }

    /// Total events of any kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.limb_add + self.limb_mul + self.limb_div + self.branch
    }
}

/// Whether trace recording is compiled into this build.
pub const ENABLED: bool = cfg!(feature = "trace-ops");

#[cfg(feature = "trace-ops")]
mod active {
    use super::OpTrace;
    use std::cell::Cell;

    thread_local! {
        static LIMB_ADD: Cell<u64> = const { Cell::new(0) };
        static LIMB_MUL: Cell<u64> = const { Cell::new(0) };
        static LIMB_DIV: Cell<u64> = const { Cell::new(0) };
        static BRANCH: Cell<u64> = const { Cell::new(0) };
    }

    /// Records `n` limb additions/subtractions.
    #[inline]
    pub fn limb_add(n: u64) {
        LIMB_ADD.with(|c| c.set(c.get() + n));
    }

    /// Records `n` limb multiplications.
    #[inline]
    pub fn limb_mul(n: u64) {
        LIMB_MUL.with(|c| c.set(c.get() + n));
    }

    /// Records `n` quotient-digit estimates.
    #[inline]
    pub fn limb_div(n: u64) {
        LIMB_DIV.with(|c| c.set(c.get() + n));
    }

    /// Records one taken data-dependent branch.
    #[inline]
    pub fn branch() {
        BRANCH.with(|c| c.set(c.get() + 1));
    }

    /// Current counter values for this thread.
    pub fn snapshot() -> OpTrace {
        OpTrace {
            limb_add: LIMB_ADD.with(Cell::get),
            limb_mul: LIMB_MUL.with(Cell::get),
            limb_div: LIMB_DIV.with(Cell::get),
            branch: BRANCH.with(Cell::get),
        }
    }

    /// Resets this thread's counters to zero.
    pub fn reset() {
        LIMB_ADD.with(|c| c.set(0));
        LIMB_MUL.with(|c| c.set(0));
        LIMB_DIV.with(|c| c.set(0));
        BRANCH.with(|c| c.set(0));
    }
}

#[cfg(not(feature = "trace-ops"))]
mod active {
    use super::OpTrace;

    /// Records `n` limb additions/subtractions (no-op in this build).
    #[inline(always)]
    pub fn limb_add(_n: u64) {}

    /// Records `n` limb multiplications (no-op in this build).
    #[inline(always)]
    pub fn limb_mul(_n: u64) {}

    /// Records `n` quotient-digit estimates (no-op in this build).
    #[inline(always)]
    pub fn limb_div(_n: u64) {}

    /// Records one taken data-dependent branch (no-op in this build).
    #[inline(always)]
    pub fn branch() {}

    /// Current counter values for this thread (always zero in this build).
    pub fn snapshot() -> OpTrace {
        OpTrace::default()
    }

    /// Resets this thread's counters to zero (no-op in this build).
    pub fn reset() {}
}

pub use active::{branch, limb_add, limb_div, limb_mul, reset, snapshot};

/// Runs `f`, returning the limb-op trace it incurred plus its result.
///
/// Without the `trace-ops` feature the trace is always zero.
pub fn capture<T>(f: impl FnOnce() -> T) -> (OpTrace, T) {
    let before = snapshot();
    let out = f();
    (snapshot().since(&before), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = OpTrace {
            limb_add: 10,
            limb_mul: 20,
            limb_div: 5,
            branch: 3,
        };
        let b = OpTrace {
            limb_add: 1,
            limb_mul: 2,
            limb_div: 3,
            branch: 1,
        };
        let d = a.since(&b);
        assert_eq!(
            d,
            OpTrace {
                limb_add: 9,
                limb_mul: 18,
                limb_div: 2,
                branch: 2
            }
        );
        assert_eq!(d.total(), 31);
    }

    #[test]
    #[cfg(feature = "trace-ops")]
    fn capture_sees_recorded_events() {
        let (t, ()) = capture(|| {
            limb_mul(7);
            limb_add(2);
            branch();
        });
        assert_eq!(t.limb_mul, 7);
        assert_eq!(t.limb_add, 2);
        assert_eq!(t.branch, 1);
    }

    #[test]
    #[cfg(not(feature = "trace-ops"))]
    fn disabled_build_records_nothing() {
        let (t, ()) = capture(|| {
            limb_mul(7);
            branch();
        });
        assert_eq!(t, OpTrace::default());
        assert!(!ENABLED);
    }
}
