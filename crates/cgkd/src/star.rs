//! The flat "star" key distribution baseline: the controller shares one
//! individual key with each member and rekeys by encrypting the new group
//! key to every member separately — `O(n)` per churn window, however many
//! joins and leaves it holds.
//!
//! This is the naive scheme the tree-based methods improve on; experiment
//! E4 plots it against LKH and SD.

use crate::{check_leavers, BroadcastStats, CgkdError, Controller, Joined, MemberState, UserId};
use rand::RngCore;
use shs_crypto::{aead, Key};
use std::collections::BTreeMap;

/// One item: the new group key encrypted under one member's individual
/// key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarItem {
    /// Recipient.
    pub id: UserId,
    /// AEAD ciphertext of the group key.
    pub ct: Vec<u8>,
}

/// A star rekey broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarBroadcast {
    /// Epoch this broadcast moves the group to.
    pub epoch: u64,
    /// Per-member encryptions of the new group key.
    pub items: Vec<StarItem>,
}

/// Welcome package: the member's individual key.
#[derive(Debug, Clone)]
pub struct StarWelcome {
    /// Assigned identity.
    pub id: UserId,
    /// Individual long-term key shared with the controller.
    pub individual: Key,
    /// Epoch before the join rekey.
    pub epoch: u64,
}

/// Controller state.
pub struct StarController {
    /// Individual keys in id order, so a rekey seals to members in a
    /// fixed order and the same seed gives the same broadcast.
    individual: BTreeMap<UserId, Key>,
    group_key: Key,
    epoch: u64,
    next_id: u64,
    capacity: usize,
}

impl std::fmt::Debug for StarController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StarController {{ members: {}, epoch: {} }}",
            self.individual.len(),
            self.epoch
        )
    }
}

/// Member state.
#[derive(Debug, Clone)]
pub struct StarMember {
    id: UserId,
    individual: Key,
    group_key: Key,
    epoch: u64,
}

impl StarController {
    /// Creates a controller for up to `capacity` members.
    pub fn new(capacity: u32, rng: &mut dyn RngCore) -> StarController {
        StarController {
            individual: BTreeMap::new(),
            group_key: Key::random(rng),
            epoch: 0,
            next_id: 0,
            capacity: capacity as usize,
        }
    }

    fn rekey(&mut self, rng: &mut dyn RngCore) -> StarBroadcast {
        self.group_key = Key::random(rng);
        self.epoch += 1;
        let items = self
            .individual
            .iter()
            .map(|(&id, key)| {
                let aad = format!("star-rekey:{}:{}", self.epoch, id.0);
                StarItem {
                    id,
                    ct: aead::seal(key, self.group_key.as_bytes(), aad.as_bytes(), rng),
                }
            })
            .collect();
        StarBroadcast {
            epoch: self.epoch,
            items,
        }
    }
}

impl Controller for StarController {
    type Welcome = StarWelcome;
    type Member = StarMember;
    type Broadcast = StarBroadcast;

    /// Capacity is the post-window membership. The window's one
    /// broadcast seals the new group key once to every member, joiners
    /// included.
    fn apply_epoch(
        &mut self,
        joins: usize,
        leaves: &[UserId],
        rng: &mut dyn RngCore,
    ) -> Result<(Joined<StarWelcome>, StarBroadcast), CgkdError> {
        self.check_window(joins, leaves)?;
        if joins == 0 && leaves.is_empty() {
            return Ok((
                Vec::new(),
                StarBroadcast {
                    epoch: self.epoch,
                    items: Vec::new(),
                },
            ));
        }
        for id in leaves {
            self.individual.remove(id);
        }
        let joined = (0..joins)
            .map(|_| {
                let id = UserId(self.next_id);
                self.next_id += 1;
                let individual = Key::random(rng);
                self.individual.insert(id, individual.clone());
                let welcome = StarWelcome {
                    id,
                    individual,
                    epoch: self.epoch,
                };
                (id, welcome)
            })
            .collect();
        Ok((joined, self.rekey(rng)))
    }

    fn check_window(&self, joins: usize, leaves: &[UserId]) -> Result<(), CgkdError> {
        check_leavers(leaves, |id| self.individual.contains_key(id))?;
        if self.individual.len() - leaves.len() + joins > self.capacity {
            return Err(CgkdError::Full);
        }
        Ok(())
    }

    fn member_from_welcome(&self, welcome: StarWelcome) -> StarMember {
        StarMember {
            id: welcome.id,
            group_key: welcome.individual.clone(),
            individual: welcome.individual,
            epoch: welcome.epoch,
        }
    }

    fn group_key(&self) -> &Key {
        &self.group_key
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn members(&self) -> Vec<UserId> {
        self.individual.keys().copied().collect()
    }

    fn stats(broadcast: &StarBroadcast) -> BroadcastStats {
        BroadcastStats {
            items: broadcast.items.len(),
            bytes: broadcast.items.iter().map(|i| i.ct.len() + 8).sum(),
        }
    }
}

impl MemberState for StarMember {
    type Broadcast = StarBroadcast;

    fn process(&mut self, broadcast: &StarBroadcast) -> Result<(), CgkdError> {
        if broadcast.epoch != self.epoch + 1 {
            return Err(CgkdError::EpochMismatch);
        }
        let aad = format!("star-rekey:{}:{}", broadcast.epoch, self.id.0);
        let item = broadcast
            .items
            .iter()
            .find(|i| i.id == self.id)
            .ok_or(CgkdError::CannotDecrypt)?;
        let pt = aead::open(&self.individual, &item.ct, aad.as_bytes())
            .map_err(|_| CgkdError::CannotDecrypt)?;
        if pt.len() != 32 {
            return Err(CgkdError::CannotDecrypt);
        }
        let mut kb = [0u8; 32];
        kb.copy_from_slice(&pt);
        self.group_key = Key::from_bytes(kb);
        self.epoch = broadcast.epoch;
        Ok(())
    }

    fn group_key(&self) -> &Key {
        &self.group_key
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn id(&self) -> UserId {
        self.id
    }

    fn force_group_key(&mut self, key: Key, epoch: u64) {
        self.group_key = key;
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{join, leave};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(71)
    }

    #[test]
    fn members_track_group_key() {
        let mut r = rng();
        let mut gc = StarController::new(8, &mut r);
        let mut members = Vec::new();
        for _ in 0..5 {
            let (_, w, b) = join(&mut gc, &mut r).unwrap();
            let mut joiner = gc.member_from_welcome(w);
            for m in members.iter_mut() {
                let m: &mut StarMember = m;
                m.process(&b).unwrap();
            }
            joiner.process(&b).unwrap();
            members.push(joiner);
        }
        for m in &members {
            assert_eq!(m.group_key(), gc.group_key());
        }
    }

    #[test]
    fn evicted_member_excluded() {
        let mut r = rng();
        let mut gc = StarController::new(8, &mut r);
        let (_, w1, b1) = join(&mut gc, &mut r).unwrap();
        let mut m1 = gc.member_from_welcome(w1);
        m1.process(&b1).unwrap();
        let (_, w2, b2) = join(&mut gc, &mut r).unwrap();
        let mut m2 = gc.member_from_welcome(w2);
        m1.process(&b2).unwrap();
        m2.process(&b2).unwrap();
        let b3 = leave(&mut gc, m1.id(), &mut r).unwrap();
        assert_eq!(m1.process(&b3), Err(CgkdError::CannotDecrypt));
        m2.process(&b3).unwrap();
        assert_eq!(m2.group_key(), gc.group_key());
    }

    #[test]
    fn rekey_cost_is_linear() {
        let mut r = rng();
        let mut gc = StarController::new(64, &mut r);
        let mut last = None;
        for _ in 0..64 {
            let (_, _, b) = join(&mut gc, &mut r).unwrap();
            last = Some(b);
        }
        let stats = StarController::stats(last.as_ref().unwrap());
        assert_eq!(stats.items, 64, "star rekey touches every member");
        // A window seals once per member, not once per change: evicting
        // two and admitting one leaves 63 members and 63 items.
        let leaves = &gc.members()[..2];
        let (_, b) = gc.apply_epoch(1, leaves, &mut r).unwrap();
        assert_eq!(StarController::stats(&b).items, 63);
        assert_eq!(b.epoch, 65, "one window, one epoch");
    }

    #[test]
    fn capacity_and_unknown_errors() {
        let mut r = rng();
        let mut gc = StarController::new(1, &mut r);
        join(&mut gc, &mut r).unwrap();
        assert!(matches!(join(&mut gc, &mut r), Err(CgkdError::Full)));
        assert_eq!(
            leave(&mut gc, UserId(42), &mut r).err(),
            Some(CgkdError::UnknownMember)
        );
    }

    #[test]
    fn same_seed_gives_the_same_broadcasts() {
        let run = || {
            let mut r = rng();
            let mut gc = StarController::new(16, &mut r);
            let mut broadcasts = Vec::new();
            for (joins, leave_first) in [(6, false), (2, true), (0, true), (3, false)] {
                let leaves: Vec<UserId> = gc
                    .members()
                    .into_iter()
                    .take(usize::from(leave_first))
                    .collect();
                let (_, b) = gc.apply_epoch(joins, &leaves, &mut r).unwrap();
                broadcasts.push(b);
            }
            broadcasts
        };
        assert_eq!(run(), run());
    }
}
