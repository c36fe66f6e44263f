//! The public bulletin board — the paper's *authenticated anonymous
//! channel* (§2, §7: updated state information is "encrypted under the new
//! CGKD group key and distributed to all group members through an
//! authenticated anonymous channel, e.g., posted on a public bulletin
//! board").
//!
//! The board is append-only and *public*: anyone (including adversaries)
//! can read every posted blob, but the blobs are AEAD-encrypted under
//! group keys the reader may not have. Members poll the board to catch up
//! on missed epochs. Every member replays the posts in order, because
//! each post carries its window's CRL delta: an SD member's key could
//! jump straight to the newest epoch, but its CRL cannot skip a
//! revocation, and [`Member::apply_update`] rejects such a jump whole.

use crate::member::{GroupUpdate, Member};
use crate::CoreError;

/// An append-only public board of group updates.
///
/// Posts are kept sorted by the epoch each update establishes, with a
/// parallel epoch index, so a member that is `k` epochs behind reads
/// exactly its `O(k)` missing records — `since` is a binary search plus
/// a suffix walk, not a scan of the whole group history.
#[derive(Debug, Default)]
pub struct BulletinBoard {
    posts: Vec<GroupUpdate>,
    /// `epochs[i]` is the epoch `posts[i]` establishes (nondecreasing).
    epochs: Vec<u64>,
}

impl BulletinBoard {
    /// An empty board.
    pub fn new() -> BulletinBoard {
        BulletinBoard::default()
    }

    /// Posts an update (done by the group authority after
    /// `AdmitMember`/`RemoveUser`/`ApplyEpoch`).
    ///
    /// The authority posts in epoch order, so this is an O(1) append;
    /// an out-of-order post is placed at its sorted position to keep
    /// the index valid.
    pub fn post(&mut self, update: GroupUpdate) {
        let epoch = update.rekey.epoch();
        if self.epochs.last().is_none_or(|&last| last <= epoch) {
            self.epochs.push(epoch);
            self.posts.push(update);
        } else {
            let at = self.epochs.partition_point(|&e| e <= epoch);
            self.epochs.insert(at, epoch);
            self.posts.insert(at, update);
        }
    }

    /// Number of posts.
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// Is the board empty?
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// All posts with an epoch greater than `after_epoch`, in post order.
    /// This is the public read API — no authentication required (the
    /// privacy lives in the encryption, not in access control).
    pub fn since(&self, after_epoch: u64) -> impl Iterator<Item = &GroupUpdate> {
        let start = self.epochs.partition_point(|&e| e <= after_epoch);
        self.posts[start..].iter()
    }

    /// Brings a member up to date: applies every post newer than the
    /// member's epoch, in order.
    ///
    /// Returns the number of updates applied.
    ///
    /// # Errors
    ///
    /// Propagates the first failing update (a revoked member fails on the
    /// update that evicted it and learns nothing further).
    pub fn sync(&self, member: &mut Member) -> Result<usize, CoreError> {
        let mut applied = 0;
        for update in self.since(member.epoch()) {
            member.apply_update(update)?;
            applied += 1;
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CgkdChoice, GroupConfig, SchemeKind};
    use crate::fixtures;
    use shs_crypto::drbg::HmacDrbg;

    #[test]
    fn members_catch_up_from_the_board() {
        let mut rng = HmacDrbg::from_seed(b"bulletin-1");
        let mut ga = fixtures::test_authority(SchemeKind::Scheme1, &mut rng);
        let mut board = BulletinBoard::new();
        let (mut alice, _) = ga.admit(&mut rng).unwrap();
        // Three more members join; Alice does not watch the board.
        for _ in 0..3 {
            let (_m, update) = ga.admit(&mut rng).unwrap();
            board.post(update);
        }
        assert_ne!(alice.group_key(), ga.group_key(), "alice is stale");
        let applied = board.sync(&mut alice).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(alice.group_key(), ga.group_key());
        // A second sync is a no-op.
        assert_eq!(board.sync(&mut alice).unwrap(), 0);
    }

    #[test]
    fn revoked_member_stops_at_its_eviction() {
        let mut rng = HmacDrbg::from_seed(b"bulletin-2");
        let (mut ga, mut members) =
            fixtures::group_with_members(SchemeKind::Scheme1, 3, &mut rng).unwrap();
        let mut board = BulletinBoard::new();
        let mut victim = members.pop().unwrap();
        board.post(ga.remove(victim.id(), &mut rng).unwrap());
        // More churn after the eviction.
        let (_m, update) = ga.admit(&mut rng).unwrap();
        board.post(update);
        // The victim's sync fails at its own eviction and learns nothing.
        let before = victim.group_key().clone();
        assert!(board.sync(&mut victim).is_err());
        assert_eq!(victim.group_key(), &before);
        // Honest members sync through everything.
        for m in members.iter_mut() {
            board.sync(m).unwrap();
            assert_eq!(m.group_key(), ga.group_key());
        }
    }

    #[test]
    fn an_sd_member_that_skips_a_revocation_still_syncs_every_post() {
        let mut rng = HmacDrbg::from_seed(b"bulletin-sd-skip");
        let config = GroupConfig::test_with_cgkd(SchemeKind::Scheme1, CgkdChoice::SubsetDifference);
        let (mut ga, mut members) = fixtures::group_with_config(config, 4, &mut rng).unwrap();
        let mut board = BulletinBoard::new();
        let mut updates = Vec::new();
        for leaver in members.split_off(2) {
            updates.push(ga.remove(leaver.id(), &mut rng).unwrap());
        }
        let sleeper = &mut members[0];
        let (epoch, crl) = (sleeper.epoch(), sleeper.crl_version());
        // The second removal alone would leave the first revocation out
        // of the sleeper's CRL: it is refused, and the sleeper stays put.
        assert!(matches!(
            sleeper.apply_update(&updates[1]),
            Err(CoreError::UpdateRejected)
        ));
        assert_eq!((sleeper.epoch(), sleeper.crl_version()), (epoch, crl));
        for update in updates {
            board.post(update);
        }
        assert_eq!(board.sync(sleeper).unwrap(), 2);
        assert_eq!(sleeper.group_key(), ga.group_key());
        assert_eq!(sleeper.crl_version(), ga.crl_version());
        assert_eq!(sleeper.crl_version(), 2);
    }

    #[test]
    fn board_is_publicly_readable_but_opaque() {
        // An adversary can read every blob yet cannot decrypt any payload:
        // the AEAD under the (new) group key fails for any key it holds.
        let mut rng = HmacDrbg::from_seed(b"bulletin-3");
        let mut ga = fixtures::test_authority(SchemeKind::Scheme1, &mut rng);
        let mut board = BulletinBoard::new();
        let (_a, update) = ga.admit(&mut rng).unwrap();
        board.post(update);
        let adversary_key = shs_crypto::Key::random(&mut rng);
        for post in board.since(0) {
            let aad = format!("gcd-update:{}", post.rekey.epoch());
            assert!(
                shs_crypto::aead::open(&adversary_key, &post.payload_ct, aad.as_bytes()).is_err()
            );
        }
    }
}
