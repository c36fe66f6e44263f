//! Logical Key Hierarchy (key graphs, Wong–Gouda–Lam \[33\]) with the
//! strong-security rekey discipline of \[34\]: every key on an affected path
//! is replaced by *fresh randomness* (never a one-way function of old
//! keys), and rekey items are AEAD-encrypted.
//!
//! Rekeying a join or leave touches one leaf-to-root path, so broadcasts
//! carry `O(log n)` items — the property measured in experiment E4. A
//! whole churn *epoch* of joins and leaves goes through
//! [`Controller::apply_epoch`], which rekeys the **union** of the
//! affected paths exactly once (Wong–Gouda–Lam batched rekeying): a
//! window of `k` changes costs `O(k log n)` items total instead of `k`
//! separate broadcasts re-rekeying shared ancestors `k` times.
//!
//! Node keys live in a flat arena (`Vec<Option<Key>>`) indexed by heap
//! position, and every tree walk is iterative, so the controller scales
//! to million-leaf trees: no per-node hashing, no recursion, no pointer
//! chasing. Members store only their root path (indexed by depth) and
//! [`LkhMember::process`] decodes a batched broadcast in O(changes on
//! its path), not O(broadcast).

use crate::tree;
use crate::{check_leavers, BroadcastStats, CgkdError, Controller, Joined, MemberState, UserId};
use rand::RngCore;
use shs_crypto::{aead, Key};
use std::collections::HashMap;

/// One encrypted rekey item: the new key of `node`, encrypted under the
/// key of `under` (a child of `node`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RekeyItem {
    /// Tree node whose key is being replaced.
    pub node: u32,
    /// Child node under whose key the new key is encrypted.
    pub under: u32,
    /// AEAD ciphertext of the new key.
    pub ct: Vec<u8>,
}

/// A rekey broadcast: all items for one membership change (or one whole
/// batched epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LkhBroadcast {
    /// Epoch this broadcast moves the group *to*.
    pub epoch: u64,
    /// Encrypted rekey items, deepest node first: a key may be encrypted
    /// under a child key that is itself replaced in the same epoch, and
    /// the deepest-first order lets receivers decode in one pass.
    pub items: Vec<RekeyItem>,
}

/// The private welcome package for a joining member.
#[derive(Debug, Clone)]
pub struct LkhWelcome {
    /// Assigned identity.
    pub id: UserId,
    /// Assigned leaf node index.
    pub leaf: u32,
    /// The member's individual (leaf) key.
    pub leaf_key: Key,
    /// The epoch *before* the join rekey (the member then processes the
    /// join broadcast like everyone else).
    pub epoch: u64,
    /// Tree capacity (for path computation).
    pub capacity: u32,
}

/// The group controller's LKH state.
///
/// Node keys are stored in a flat arena indexed by heap position — node
/// `v`'s key is `keys[v]` — so a million-leaf tree is two contiguous
/// allocations, not a hash map per level.
pub struct LkhController {
    capacity: u32,
    /// Arena of node keys indexed by heap position (`1` is the root;
    /// index 0 is unused). `None` marks empty subtrees.
    keys: Vec<Option<Key>>,
    /// Number of members in each node's subtree.
    occupancy: Vec<u32>,
    leaf_of: HashMap<UserId, u32>,
    /// Leaves freed by evictions, reused LIFO before fresh ones.
    free: Vec<u32>,
    /// Next never-assigned leaf (`capacity..2*capacity` cursor).
    next_fresh: u32,
    group_key: Key,
    epoch: u64,
    next_id: u64,
}

impl std::fmt::Debug for LkhController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LkhController {{ capacity: {}, members: {}, epoch: {} }}",
            self.capacity,
            self.leaf_of.len(),
            self.epoch
        )
    }
}

/// Member-side LKH state: the keys along its leaf-to-root path, stored
/// as a depth-indexed arena (`path_keys[d]` is the key of the path node
/// at depth `d`; the last entry is the leaf key).
#[derive(Debug, Clone)]
pub struct LkhMember {
    id: UserId,
    leaf: u32,
    path_keys: Vec<Option<Key>>,
    group_key: Key,
    epoch: u64,
}

impl LkhController {
    /// Creates a controller for up to `capacity` members (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: u32, rng: &mut dyn RngCore) -> LkhController {
        let capacity = capacity.max(2).next_power_of_two();
        LkhController {
            capacity,
            keys: vec![None; (2 * capacity) as usize],
            occupancy: vec![0; (2 * capacity) as usize],
            leaf_of: HashMap::new(),
            free: Vec::new(),
            next_fresh: capacity,
            group_key: Key::random(rng),
            epoch: 0,
            next_id: 0,
        }
    }

    fn alloc_leaf(&mut self) -> Option<u32> {
        if let Some(leaf) = self.free.pop() {
            return Some(leaf);
        }
        if self.next_fresh < 2 * self.capacity {
            let leaf = self.next_fresh;
            self.next_fresh += 1;
            return Some(leaf);
        }
        None
    }

    /// Installs a member at `leaf` with a fresh leaf key; returns the key.
    fn occupy_leaf(&mut self, leaf: u32, rng: &mut dyn RngCore) -> Key {
        let leaf_key = Key::random(rng);
        self.keys[leaf as usize] = Some(leaf_key.clone());
        self.occupancy[leaf as usize] = 1;
        let mut v = tree::parent(leaf);
        while v >= 1 {
            self.occupancy[v as usize] += 1;
            v = tree::parent(v);
        }
        leaf_key
    }

    /// Clears `leaf` and decrements subtree occupancy along its path.
    fn vacate_leaf(&mut self, leaf: u32) {
        self.keys[leaf as usize] = None;
        self.occupancy[leaf as usize] = 0;
        let mut v = tree::parent(leaf);
        while v >= 1 {
            self.occupancy[v as usize] -= 1;
            v = tree::parent(v);
        }
        self.free.push(leaf);
    }

    /// Rekeys the union of the strict-ancestor paths of `affected`
    /// leaves, deepest node first, emitting one item per occupied child.
    /// Items for a node are encrypted under the *current* arena child
    /// keys — children deeper in the union have already been refreshed
    /// when their parent is processed, which is exactly the
    /// Wong–Gouda–Lam batched-rekey invariant.
    fn rekey_union(&mut self, affected: &[u32], rng: &mut dyn RngCore) -> Vec<RekeyItem> {
        // Union of strict ancestors, deepest first (heap index order is
        // monotone in depth).
        let mut nodes: Vec<u32> = Vec::new();
        for &leaf in affected {
            let mut v = tree::parent(leaf);
            while v >= 1 {
                nodes.push(v);
                v = tree::parent(v);
            }
        }
        nodes.sort_unstable_by(|a, b| b.cmp(a));
        nodes.dedup();

        let mut items = Vec::new();
        for v in nodes {
            if self.occupancy[v as usize] == 0 {
                self.keys[v as usize] = None;
                continue;
            }
            let new_key = if v == 1 {
                let k = Key::random(rng);
                self.group_key = k.clone();
                k
            } else {
                Key::random(rng)
            };
            let (l, r) = tree::children(v);
            for c in [l, r] {
                if self.occupancy[c as usize] > 0 {
                    if let Some(child_key) = &self.keys[c as usize] {
                        let aad = format!("lkh-rekey:{}:{}:{}", self.epoch + 1, v, c);
                        items.push(RekeyItem {
                            node: v,
                            under: c,
                            ct: aead::seal(child_key, new_key.as_bytes(), aad.as_bytes(), rng),
                        });
                    }
                }
            }
            self.keys[v as usize] = Some(new_key);
        }
        items
    }
}

impl Controller for LkhController {
    type Welcome = LkhWelcome;
    type Member = LkhMember;
    type Broadcast = LkhBroadcast;

    /// Freed leaves are reused by joins within the same window, so
    /// evict-then-rejoin in one window is well-defined. Capacity is the
    /// post-window membership.
    fn apply_epoch(
        &mut self,
        joins: usize,
        leaves: &[UserId],
        rng: &mut dyn RngCore,
    ) -> Result<(Joined<LkhWelcome>, LkhBroadcast), CgkdError> {
        self.check_window(joins, leaves)?;
        if joins == 0 && leaves.is_empty() {
            return Ok((
                Vec::new(),
                LkhBroadcast {
                    epoch: self.epoch,
                    items: Vec::new(),
                },
            ));
        }

        let mut affected: Vec<u32> = Vec::with_capacity(leaves.len() + joins);
        for id in leaves {
            if let Some(leaf) = self.leaf_of.remove(id) {
                self.vacate_leaf(leaf);
                affected.push(leaf);
            }
        }
        let mut joined = Vec::with_capacity(joins);
        for _ in 0..joins {
            let Some(leaf) = self.alloc_leaf() else {
                return Err(CgkdError::Full); // unreachable after the check
            };
            let id = UserId(self.next_id);
            self.next_id += 1;
            self.leaf_of.insert(id, leaf);
            let leaf_key = self.occupy_leaf(leaf, rng);
            affected.push(leaf);
            joined.push((
                id,
                LkhWelcome {
                    id,
                    leaf,
                    leaf_key,
                    epoch: self.epoch,
                    capacity: self.capacity,
                },
            ));
        }
        affected.sort_unstable();
        affected.dedup();
        let items = self.rekey_union(&affected, rng);
        if self.leaf_of.is_empty() {
            // Group emptied: nobody left to key; refresh the stored key
            // so the old one is never reused.
            self.group_key = Key::random(rng);
        }
        self.epoch += 1;
        Ok((
            joined,
            LkhBroadcast {
                epoch: self.epoch,
                items,
            },
        ))
    }

    fn check_window(&self, joins: usize, leaves: &[UserId]) -> Result<(), CgkdError> {
        check_leavers(leaves, |id| self.leaf_of.contains_key(id))?;
        if self.leaf_of.len() - leaves.len() + joins > self.capacity as usize {
            return Err(CgkdError::Full);
        }
        Ok(())
    }

    fn member_from_welcome(&self, welcome: LkhWelcome) -> LkhMember {
        let d = tree::depth(welcome.leaf) as usize;
        let mut path_keys = vec![None; d + 1];
        path_keys[d] = Some(welcome.leaf_key.clone());
        LkhMember {
            id: welcome.id,
            leaf: welcome.leaf,
            path_keys,
            // Placeholder until the join broadcast is processed.
            group_key: welcome.leaf_key,
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
        let mut ids: Vec<UserId> = self.leaf_of.keys().copied().collect();
        ids.sort();
        ids
    }

    fn stats(broadcast: &LkhBroadcast) -> BroadcastStats {
        BroadcastStats {
            items: broadcast.items.len(),
            bytes: broadcast.items.iter().map(|i| i.ct.len() + 8).sum(),
        }
    }
}

impl MemberState for LkhMember {
    type Broadcast = LkhBroadcast;

    fn process(&mut self, broadcast: &LkhBroadcast) -> Result<(), CgkdError> {
        if broadcast.epoch != self.epoch + 1 {
            return Err(CgkdError::EpochMismatch);
        }
        // Of a batched broadcast's items, at most 2·depth sit on our
        // path (one per occupied child of each ancestor): collect those,
        // order deepest first, decode in a single pass. O(changes), not
        // O(items²) fixpointing.
        let mut mine: Vec<&RekeyItem> = broadcast
            .items
            .iter()
            .filter(|it| it.node != self.leaf && tree::is_ancestor_or_self(it.node, self.leaf))
            .collect();
        let touches_us = !mine.is_empty();
        mine.sort_unstable_by_key(|it| std::cmp::Reverse(it.node));

        let mut staged: Vec<Option<Key>> = vec![None; self.path_keys.len()];
        for item in mine {
            let nd = tree::depth(item.node) as usize;
            if staged[nd].is_some() {
                continue; // this node's new key is already decoded
            }
            if !tree::is_ancestor_or_self(item.under, self.leaf) {
                continue; // encrypted to the sibling subtree
            }
            let ud = tree::depth(item.under) as usize;
            let under_key = match staged[ud].as_ref().or(self.path_keys[ud].as_ref()) {
                Some(k) => k.clone(),
                None => continue,
            };
            let aad = format!("lkh-rekey:{}:{}:{}", broadcast.epoch, item.node, item.under);
            if let Ok(pt) = aead::open(&under_key, &item.ct, aad.as_bytes()) {
                if pt.len() != 32 {
                    continue;
                }
                let mut kb = [0u8; 32];
                kb.copy_from_slice(&pt);
                staged[nd] = Some(Key::from_bytes(kb));
            }
        }
        // A broadcast that touches our path must yield the new root key;
        // one that doesn't touch it at all leaves the epoch bump only.
        if touches_us {
            let Some(root) = staged[0].clone() else {
                return Err(CgkdError::CannotDecrypt);
            };
            self.group_key = root;
            for (d, learned) in staged.into_iter().enumerate() {
                if learned.is_some() {
                    self.path_keys[d] = learned;
                }
            }
        }
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
        rand::rngs::StdRng::seed_from_u64(70)
    }

    /// Admits `n` members, processing every broadcast at every member.
    fn build(n: usize, rng: &mut dyn RngCore) -> (LkhController, Vec<LkhMember>) {
        let mut gc = LkhController::new(16, rng);
        let mut members: Vec<LkhMember> = Vec::new();
        for _ in 0..n {
            let (_, welcome, broadcast) = join(&mut gc, rng).unwrap();
            let mut joiner = gc.member_from_welcome(welcome);
            for m in members.iter_mut() {
                m.process(&broadcast).unwrap();
            }
            joiner.process(&broadcast).unwrap();
            members.push(joiner);
        }
        (gc, members)
    }

    #[test]
    fn all_members_agree_on_group_key() {
        let mut r = rng();
        let (gc, members) = build(7, &mut r);
        for m in &members {
            assert_eq!(m.group_key(), gc.group_key(), "{}", m.id());
            assert_eq!(m.epoch(), gc.epoch());
        }
    }

    #[test]
    fn join_changes_group_key() {
        let mut r = rng();
        let mut gc = LkhController::new(8, &mut r);
        let (_, w1, b1) = join(&mut gc, &mut r).unwrap();
        let mut m1 = gc.member_from_welcome(w1);
        m1.process(&b1).unwrap();
        let key_before = gc.group_key().clone();
        let (_, _w2, b2) = join(&mut gc, &mut r).unwrap();
        assert_ne!(gc.group_key(), &key_before, "backward secrecy: join rekeys");
        m1.process(&b2).unwrap();
        assert_eq!(m1.group_key(), gc.group_key());
    }

    #[test]
    fn evicted_member_cannot_follow() {
        let mut r = rng();
        let (mut gc, mut members) = build(4, &mut r);
        let victim_id = members[1].id();
        let broadcast = leave(&mut gc, victim_id, &mut r).unwrap();
        for (i, m) in members.iter_mut().enumerate() {
            if i == 1 {
                // The evicted member cannot decrypt the new root key.
                assert_eq!(m.process(&broadcast), Err(CgkdError::CannotDecrypt));
            } else {
                m.process(&broadcast).unwrap();
                assert_eq!(m.group_key(), gc.group_key());
            }
        }
    }

    #[test]
    fn eviction_changes_group_key() {
        let mut r = rng();
        let (mut gc, members) = build(3, &mut r);
        let before = gc.group_key().clone();
        leave(&mut gc, members[0].id(), &mut r).unwrap();
        assert_ne!(gc.group_key(), &before, "forward secrecy: leave rekeys");
    }

    #[test]
    fn epoch_order_enforced() {
        let mut r = rng();
        let mut gc = LkhController::new(8, &mut r);
        let (_, w1, b1) = join(&mut gc, &mut r).unwrap();
        let mut m1 = gc.member_from_welcome(w1);
        m1.process(&b1).unwrap();
        let (_, _, b2) = join(&mut gc, &mut r).unwrap();
        let (_, _, b3) = join(&mut gc, &mut r).unwrap();
        // Skipping b2 fails.
        assert_eq!(m1.process(&b3), Err(CgkdError::EpochMismatch));
        m1.process(&b2).unwrap();
        m1.process(&b3).unwrap();
        assert_eq!(m1.group_key(), gc.group_key());
    }

    #[test]
    fn capacity_enforced() {
        let mut r = rng();
        let mut gc = LkhController::new(2, &mut r);
        join(&mut gc, &mut r).unwrap();
        join(&mut gc, &mut r).unwrap();
        assert!(matches!(join(&mut gc, &mut r), Err(CgkdError::Full)));
        // Eviction frees a slot.
        let id = gc.members()[0];
        leave(&mut gc, id, &mut r).unwrap();
        join(&mut gc, &mut r).unwrap();
    }

    #[test]
    fn unknown_member_eviction() {
        let mut r = rng();
        let mut gc = LkhController::new(4, &mut r);
        assert_eq!(
            leave(&mut gc, UserId(99), &mut r).err(),
            Some(CgkdError::UnknownMember)
        );
    }

    #[test]
    fn rekey_cost_is_logarithmic() {
        let mut r = rng();
        let mut gc = LkhController::new(64, &mut r);
        let mut last = None;
        for _ in 0..64 {
            let (_, _, b) = join(&mut gc, &mut r).unwrap();
            last = Some(b);
        }
        // log2(64) levels, at most 2 items each.
        let stats = LkhController::stats(last.as_ref().unwrap());
        assert!(stats.items <= 2 * 7, "items = {}", stats.items);
        assert!(stats.items >= 6, "a full tree touches every level");
    }

    #[test]
    fn churn_sequence_stays_consistent() {
        let mut r = rng();
        let (mut gc, mut members) = build(8, &mut r);
        // Evict three members, then re-admit two, processing everywhere.
        for _ in 0..3 {
            let victim = members[0].id();
            let b = leave(&mut gc, victim, &mut r).unwrap();
            members.remove(0);
            for m in members.iter_mut() {
                m.process(&b).unwrap();
            }
        }
        for _ in 0..2 {
            let (_, w, b) = join(&mut gc, &mut r).unwrap();
            let mut joiner = gc.member_from_welcome(w);
            for m in members.iter_mut() {
                m.process(&b).unwrap();
            }
            joiner.process(&b).unwrap();
            members.push(joiner);
        }
        for m in &members {
            assert_eq!(m.group_key(), gc.group_key());
        }
        assert_eq!(gc.members().len(), 7);
    }

    #[test]
    fn emptied_group_changes_key() {
        let mut r = rng();
        let (mut gc, members) = build(1, &mut r);
        let before = gc.group_key().clone();
        leave(&mut gc, members[0].id(), &mut r).unwrap();
        assert_ne!(gc.group_key(), &before);
        assert!(gc.members().is_empty());
    }

    #[test]
    fn batched_epoch_is_one_broadcast() {
        let mut r = rng();
        let (mut gc, mut members) = build(8, &mut r);
        let victims = [members[0].id(), members[3].id()];
        let (joined, b) = gc.apply_epoch(3, &victims, &mut r).unwrap();
        assert_eq!(joined.len(), 3);
        assert_eq!(b.epoch, gc.epoch());
        // Survivors follow with one process() call; victims cannot.
        let mut survivors = Vec::new();
        for m in members.drain(..) {
            let mut m = m;
            if victims.contains(&m.id()) {
                assert_eq!(m.process(&b), Err(CgkdError::CannotDecrypt));
            } else {
                m.process(&b).unwrap();
                assert_eq!(m.group_key(), gc.group_key());
                survivors.push(m);
            }
        }
        // Joiners bootstrap from welcome + the same broadcast.
        for (_, w) in joined {
            let mut j = gc.member_from_welcome(w);
            j.process(&b).unwrap();
            assert_eq!(j.group_key(), gc.group_key());
        }
        assert_eq!(gc.members().len(), 9);
    }

    #[test]
    fn batched_epoch_compresses_shared_paths() {
        let mut r = rng();
        let mut gc = LkhController::new(64, &mut r);
        let (joined, b) = gc.apply_epoch(64, &[], &mut r).unwrap();
        assert_eq!(joined.len(), 64);
        // A full 64-leaf build in one epoch: the union of all paths is
        // every internal node, 2 items each = 126 items, versus
        // 64 separate admits which emit ~64·log items.
        let stats = LkhController::stats(&b);
        assert_eq!(stats.items, 126);
    }

    #[test]
    fn batched_epoch_validates_atomically() {
        let mut r = rng();
        let (mut gc, members) = build(4, &mut r);
        let epoch_before = gc.epoch();
        // Unknown leaver: nothing changes.
        assert_eq!(
            gc.apply_epoch(1, &[UserId(999)], &mut r).err(),
            Some(CgkdError::UnknownMember)
        );
        // Duplicate leaver: nothing changes.
        let dup = [members[0].id(), members[0].id()];
        assert_eq!(
            gc.apply_epoch(0, &dup, &mut r).err(),
            Some(CgkdError::UnknownMember)
        );
        // Over capacity (16): nothing changes.
        assert_eq!(gc.apply_epoch(13, &[], &mut r).err(), Some(CgkdError::Full));
        assert_eq!(gc.epoch(), epoch_before);
        assert_eq!(gc.members().len(), 4);
        // Exactly at capacity works, and an eviction makes room in the
        // same window (evict one + join 13 = 16).
        let (_, _) = gc.apply_epoch(13, &[members[1].id()], &mut r).unwrap();
        assert_eq!(gc.members().len(), 16);
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let mut r = rng();
        let (mut gc, _members) = build(3, &mut r);
        let epoch = gc.epoch();
        let key = gc.group_key().clone();
        let (joined, b) = gc.apply_epoch(0, &[], &mut r).unwrap();
        assert!(joined.is_empty());
        assert!(b.items.is_empty());
        assert_eq!(b.epoch, epoch);
        assert_eq!(gc.group_key(), &key);
    }
}
