//! CGKD substrate: the centralized key-distribution contract.
//!
//! [`Cgkd`] is the group controller's end (`CGKD.{Create, Join,
//! Leave}`, held by the [`crate::GroupAuthority`]) and [`CgkdSlot`] is
//! one member's key state (`CGKD.Rekey`, carried inside
//! [`crate::Member`]). The [`EpochBroadcast`] that links them is an
//! opaque envelope: members hand it back to their own backend and only
//! the epoch number and size are public, so the bulletin-board and
//! update-sealing logic stays backend-agnostic.
//!
//! Backends are constructed exclusively by
//! [`crate::factory::cgkd_controller`].

use rand::RngCore;
use shs_cgkd::lkh::{LkhBroadcast, LkhController, LkhMember};
use shs_cgkd::sd::{SdBroadcast, SdController, SdMember};
use shs_cgkd::star::{StarBroadcast, StarController, StarMember};
use shs_cgkd::{BroadcastStats, CgkdError, Controller, MemberState, UserId};
use shs_crypto::Key;

/// The rekey record of one churn *epoch window*: every join and leave
/// the authority batched together, as the one broadcast of whichever
/// CGKD backend the group runs.
///
/// Opaque outside the substrate layer: protocols treat it as a sealed
/// envelope whose public attributes are the epoch it establishes and its
/// size. The bulletin board stores one per window, and a member crosses
/// the window with one [`CgkdSlot::process`].
#[derive(Debug, Clone)]
pub struct EpochBroadcast {
    epoch: u64,
    /// The backend broadcast; `None` for an empty window.
    body: Option<RekeyBody>,
}

/// Backend-specific broadcast payload.
#[derive(Debug, Clone)]
enum RekeyBody {
    /// LKH rekey items.
    Lkh(LkhBroadcast),
    /// Subset-Difference cover broadcast.
    Sd(SdBroadcast),
    /// Star (pairwise-key) rekey items.
    Star(StarBroadcast),
}

impl EpochBroadcast {
    /// The epoch a member lands on after processing the window.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the window contained no membership change (such a record
    /// must not be distributed).
    pub fn is_empty(&self) -> bool {
        self.body.is_none()
    }

    /// Size statistics of the window's broadcast (bench
    /// instrumentation).
    pub fn stats(&self) -> BroadcastStats {
        match &self.body {
            None => BroadcastStats::default(),
            Some(RekeyBody::Lkh(b)) => LkhController::stats(b),
            Some(RekeyBody::Sd(b)) => SdController::stats(b),
            Some(RekeyBody::Star(b)) => StarController::stats(b),
        }
    }
}

/// Result of one [`Cgkd::apply_epoch`] window.
pub struct EpochOutcome {
    /// Member slots for the users admitted in this window, already
    /// synced to the post-window epoch.
    pub joined: Vec<(UserId, Box<dyn CgkdSlot>)>,
    /// The rekey record existing members must process.
    pub broadcast: EpochBroadcast,
}

/// The controller end of a centralized group key distribution scheme
/// (`CGKD.{Join, Leave}` plus state queries).
pub trait Cgkd: Send + Sync {
    /// `CGKD.Join` and `CGKD.Leave` for a whole churn window: evicts
    /// `leaves`, admits `joins` users, and returns the admitted slots
    /// (already synced past the window) plus one [`EpochBroadcast`] for
    /// everyone else. A single join or leave is a one-entry window. An
    /// empty window is a no-op yielding an empty broadcast at the
    /// current epoch.
    ///
    /// The window is atomic: it is validated whole, and nothing changes
    /// on error.
    ///
    /// # Errors
    ///
    /// [`CgkdError::UnknownMember`] for unknown or duplicated leaver
    /// ids; [`CgkdError::Full`] when the joins do not fit.
    fn apply_epoch(
        &mut self,
        joins: usize,
        leaves: &[UserId],
        rng: &mut dyn RngCore,
    ) -> Result<EpochOutcome, CgkdError>;

    /// Would [`Cgkd::apply_epoch`] accept this window? Draws no
    /// randomness and changes nothing (see
    /// [`shs_cgkd::Controller::check_window`]).
    ///
    /// # Errors
    ///
    /// As [`Cgkd::apply_epoch`].
    fn check_window(&self, joins: usize, leaves: &[UserId]) -> Result<(), CgkdError>;

    /// Current group key (controller side).
    fn group_key(&self) -> &Key;

    /// Current epoch.
    fn epoch(&self) -> u64;

    /// Ids of current members.
    fn members(&self) -> Vec<UserId>;
}

/// One member's key state (`CGKD.Rekey` and key queries).
pub trait CgkdSlot: Send + Sync {
    /// `CGKD.Rekey`: processes one epoch window's broadcast. An empty
    /// window is rejected as out of order (it should never have been
    /// distributed).
    ///
    /// # Errors
    ///
    /// [`CgkdError::CannotDecrypt`] when this member is excluded from
    /// the broadcast (evicted members land here) or the envelope comes
    /// from a different backend; [`CgkdError::EpochMismatch`] for an
    /// empty window or one out of order.
    fn process(&mut self, window: &EpochBroadcast) -> Result<(), CgkdError>;

    /// This member's current group key `k_i`.
    fn group_key(&self) -> &Key;

    /// This member's view of the epoch.
    fn epoch(&self) -> u64;

    /// This member's CGKD user id.
    fn id(&self) -> UserId;

    /// Overwrites the group key without any rekey processing — the §3
    /// attack model of experiment E7b (see
    /// [`shs_cgkd::MemberState::force_group_key`]).
    fn force_group_key(&mut self, key: Key, epoch: u64);

    /// Clones the slot behind the trait object.
    fn clone_slot(&self) -> Box<dyn CgkdSlot>;
}

impl Clone for Box<dyn CgkdSlot> {
    fn clone(&self) -> Self {
        self.clone_slot()
    }
}

/// Generates the [`Cgkd`]/[`CgkdSlot`] wrapper pair for one backend.
macro_rules! cgkd_backend {
    ($(#[$cdoc:meta])* $ctrl_wrap:ident($ctrl:ty),
     $(#[$mdoc:meta])* $slot_wrap:ident($member:ty),
     $variant:ident) => {
        $(#[$cdoc])*
        pub(crate) struct $ctrl_wrap(pub(crate) $ctrl);

        $(#[$mdoc])*
        #[derive(Debug, Clone)]
        pub(crate) struct $slot_wrap(pub(crate) $member);

        impl Cgkd for $ctrl_wrap {
            fn apply_epoch(
                &mut self,
                joins: usize,
                leaves: &[UserId],
                rng: &mut dyn RngCore,
            ) -> Result<EpochOutcome, CgkdError> {
                let (welcomes, rekey) = self.0.apply_epoch(joins, leaves, rng)?;
                let mut joined: Vec<(UserId, Box<dyn CgkdSlot>)> =
                    Vec::with_capacity(welcomes.len());
                for (uid, welcome) in welcomes {
                    // Joiners bootstrap from their welcome plus the same
                    // window broadcast everyone else processes.
                    let mut member = self.0.member_from_welcome(welcome);
                    member.process(&rekey)?;
                    joined.push((uid, Box::new($slot_wrap(member))));
                }
                // An empty window changed nothing: no broadcast to carry.
                let changed = joins > 0 || !leaves.is_empty();
                Ok(EpochOutcome {
                    joined,
                    broadcast: EpochBroadcast {
                        epoch: self.0.epoch(),
                        body: changed.then_some(RekeyBody::$variant(rekey)),
                    },
                })
            }

            fn check_window(&self, joins: usize, leaves: &[UserId]) -> Result<(), CgkdError> {
                self.0.check_window(joins, leaves)
            }

            fn group_key(&self) -> &Key {
                self.0.group_key()
            }

            fn epoch(&self) -> u64 {
                self.0.epoch()
            }

            fn members(&self) -> Vec<UserId> {
                self.0.members()
            }
        }

        impl CgkdSlot for $slot_wrap {
            fn process(&mut self, window: &EpochBroadcast) -> Result<(), CgkdError> {
                match &window.body {
                    Some(RekeyBody::$variant(b)) => self.0.process(b),
                    Some(_) => Err(CgkdError::CannotDecrypt),
                    None => Err(CgkdError::EpochMismatch),
                }
            }

            fn group_key(&self) -> &Key {
                self.0.group_key()
            }

            fn epoch(&self) -> u64 {
                self.0.epoch()
            }

            fn id(&self) -> UserId {
                self.0.id()
            }

            fn force_group_key(&mut self, key: Key, epoch: u64) {
                self.0.force_group_key(key, epoch);
            }

            fn clone_slot(&self) -> Box<dyn CgkdSlot> {
                Box::new(self.clone())
            }
        }
    };
}

cgkd_backend!(
    /// Logical-key-hierarchy backend.
    LkhCgkd(LkhController),
    /// LKH member state (path keys).
    LkhSlot(LkhMember),
    Lkh
);

cgkd_backend!(
    /// Subset-Difference backend.
    SdCgkd(SdController),
    /// SD member state (labels; stateless receiver).
    SdSlot(SdMember),
    Sd
);

cgkd_backend!(
    /// Star (pairwise-key) backend — the paper's minimal `O(n)`-rekey
    /// baseline.
    StarCgkd(StarController),
    /// Star member state (individual key + current group key).
    StarSlot(StarMember),
    Star
);
