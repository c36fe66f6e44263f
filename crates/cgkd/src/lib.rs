//! Centralized group key distribution (the paper's **C** building block,
//! §5).
//!
//! A CGKD scheme lets a group controller `GC` maintain a shared group key
//! `k^{(t)}` across joins and leaves (`rekeying`), with *strong security*
//! in the sense of \[34\]: a revoked member learns nothing about keys of
//! epochs after its removal, and corruption at a later epoch reveals
//! nothing about earlier keys (all rekey material is fresh randomness, not
//! a PRF of old keys).
//!
//! Three schemes are implemented, matching the citations in §5/§8.1:
//!
//! * [`lkh`] — Logical Key Hierarchy / key graphs (Wong–Gouda–Lam \[33\]):
//!   `O(log n)` rekey messages per membership change.
//! * [`sd`] — the Subset-Difference method for stateless receivers
//!   (Naor–Naor–Lotspiech \[26\]): members hold `O(log² n)` labels and never
//!   update state; each broadcast covers the non-revoked set directly.
//! * [`star`] — the flat baseline: one key per member, `O(n)` rekeying.
//!
//! All three implement the [`Controller`] / [`MemberState`] traits so the
//! framework and the E4 benchmarks can swap them freely. Membership
//! changes only through [`Controller::apply_epoch`]: a churn window of
//! joins and leaves is validated whole, then rekeyed as one broadcast
//! and one epoch (Wong–Gouda–Lam batched rekeying, \[33\]). `CGKD.Join`
//! and `CGKD.Leave` are its one-entry windows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lkh;
pub mod sd;
pub mod star;
pub mod tree;

use rand::RngCore;
use shs_crypto::Key;

/// A member identity inside a CGKD scheme (assigned by the controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u64);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user#{}", self.0)
    }
}

/// Errors produced by CGKD operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgkdError {
    /// The controller's capacity is exhausted.
    Full,
    /// Unknown or already-removed member.
    UnknownMember,
    /// A rekey broadcast arrived out of order (epoch mismatch).
    EpochMismatch,
    /// The member could not decrypt any item of the broadcast (it has been
    /// excluded, or state is corrupt).
    CannotDecrypt,
}

impl std::fmt::Display for CgkdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CgkdError::Full => write!(f, "group capacity exhausted"),
            CgkdError::UnknownMember => write!(f, "unknown member"),
            CgkdError::EpochMismatch => write!(f, "rekey broadcast out of order"),
            CgkdError::CannotDecrypt => write!(f, "no decryptable rekey item (member excluded?)"),
        }
    }
}

impl std::error::Error for CgkdError {}

/// Checks a window's leaver list before anything changes: every id must
/// be a current member, and none may appear twice.
fn check_leavers(leaves: &[UserId], is_member: impl Fn(&UserId) -> bool) -> Result<(), CgkdError> {
    let mut seen = std::collections::HashSet::with_capacity(leaves.len());
    if leaves.iter().all(|id| is_member(id) && seen.insert(*id)) {
        Ok(())
    } else {
        Err(CgkdError::UnknownMember)
    }
}

/// Traffic statistics of one broadcast, for the E4 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BroadcastStats {
    /// Number of encrypted items in the broadcast.
    pub items: usize,
    /// Total ciphertext bytes.
    pub bytes: usize,
}

/// The joiners of one churn window: each one's id and private welcome
/// package.
pub type Joined<W> = Vec<(UserId, W)>;

/// Controller (GC) side of a CGKD scheme.
pub trait Controller {
    /// The welcome package delivered to a joining member over the
    /// authenticated private channel (§5 assumes such a channel exists).
    type Welcome;
    /// The member-side state type.
    type Member: MemberState<Broadcast = Self::Broadcast>;
    /// The rekey broadcast type.
    type Broadcast;

    /// `CGKD.Join` and `CGKD.Leave` for a whole churn window: evicts
    /// `leaves`, admits `joins` new members, and rekeys once, producing
    /// one broadcast and one epoch bump for the window.
    ///
    /// Returns each joiner's id and private welcome package, and the
    /// broadcast every member processes, joiners included: welcomes
    /// carry the pre-window epoch. An empty window (`joins == 0`, no
    /// leaves) is a no-op that returns an empty broadcast at the current
    /// epoch, which must not be distributed.
    ///
    /// The call validates the whole window first with
    /// [`Controller::check_window`] and changes nothing on error.
    ///
    /// # Errors
    ///
    /// [`CgkdError::UnknownMember`] for unknown or duplicated leaver
    /// ids; [`CgkdError::Full`] when the window's joins do not fit.
    fn apply_epoch(
        &mut self,
        joins: usize,
        leaves: &[UserId],
        rng: &mut dyn RngCore,
    ) -> Result<(Joined<Self::Welcome>, Self::Broadcast), CgkdError>;

    /// Would [`Controller::apply_epoch`] accept this window? Checks the
    /// leaver list (current members, none twice) and then the capacity,
    /// and draws no randomness: a caller can refuse a window before it
    /// spends anything else on it.
    ///
    /// # Errors
    ///
    /// As [`Controller::apply_epoch`].
    fn check_window(&self, joins: usize, leaves: &[UserId]) -> Result<(), CgkdError>;

    /// Builds the member state from a welcome package.
    fn member_from_welcome(&self, welcome: Self::Welcome) -> Self::Member;

    /// The current group key `k^{(t)}`.
    fn group_key(&self) -> &Key;

    /// The current epoch `t`.
    fn epoch(&self) -> u64;

    /// Current member ids.
    fn members(&self) -> Vec<UserId>;

    /// Size statistics for a broadcast (bench instrumentation).
    fn stats(broadcast: &Self::Broadcast) -> BroadcastStats;
}

/// Member (`U ∈ Δ^{(t)}`) side of a CGKD scheme.
pub trait MemberState {
    /// The broadcast type consumed by `CGKD.Rekey`.
    type Broadcast;

    /// `CGKD.Rekey`: processes a rekey broadcast, updating the group key.
    ///
    /// # Errors
    ///
    /// [`CgkdError::EpochMismatch`] on out-of-order delivery,
    /// [`CgkdError::CannotDecrypt`] when the member has been excluded.
    fn process(&mut self, broadcast: &Self::Broadcast) -> Result<(), CgkdError>;

    /// The member's current view of the group key.
    fn group_key(&self) -> &Key;

    /// The member's current epoch.
    fn epoch(&self) -> u64;

    /// This member's id.
    fn id(&self) -> UserId;

    /// Overwrites this member's view of the group key without any rekey
    /// processing.
    ///
    /// This models the §3 attack of the paper (an unrevoked member leaking
    /// the group key to a revoked one) in experiment E7b. It exists for
    /// attack experiments only; honest members never call it.
    fn force_group_key(&mut self, key: Key, epoch: u64);
}

#[cfg(test)]
mod testing {
    //! Single-change windows for the unit tests.

    use super::{CgkdError, Controller, UserId};
    use rand::RngCore;

    /// `CGKD.Join` as a one-join window.
    pub(crate) fn join<C: Controller>(
        gc: &mut C,
        rng: &mut dyn RngCore,
    ) -> Result<(UserId, C::Welcome, C::Broadcast), CgkdError> {
        let (mut joined, broadcast) = gc.apply_epoch(1, &[], rng)?;
        let (id, welcome) = joined.pop().expect("a one-join window admits one member");
        Ok((id, welcome, broadcast))
    }

    /// `CGKD.Leave` as a one-leave window.
    pub(crate) fn leave<C: Controller>(
        gc: &mut C,
        id: UserId,
        rng: &mut dyn RngCore,
    ) -> Result<C::Broadcast, CgkdError> {
        gc.apply_epoch(0, &[id], rng)
            .map(|(_, broadcast)| broadcast)
    }
}
