//! The Subset-Difference (SD) broadcast-encryption method for *stateless
//! receivers* (Naor–Naor–Lotspiech \[26\]).
//!
//! The controller maintains a complete binary tree over the ID space. The
//! subset `S_{i,j}` contains every leaf below node `i` except those below
//! its descendant `j`; its key is derived GGM-style from a per-node label,
//! so a member stores only `O(log² n)` labels at provisioning time and
//! never processes rekey state: each broadcast carries the session key
//! encrypted under a *cover* of the non-revoked set.
//!
//! The cover-finding algorithm is the one from the NNL paper: repeatedly
//! merge the two Steiner-tree leaves with the deepest least common
//! ancestor, emitting at most two subsets per merge; a cover of at most
//! `2r - 1` subsets for `r` revocations.

use crate::tree::{ancestor_at, depth, is_ancestor_or_self, lca};
use crate::{check_leavers, BroadcastStats, CgkdError, Controller, Joined, MemberState, UserId};
use rand::RngCore;
use shs_crypto::{aead, hmac, Key};
use std::collections::{BTreeSet, HashMap};

/// GGM derivations from a label.
fn ggm_left(label: &[u8; 32]) -> [u8; 32] {
    hmac::mac(label, b"sd-ggm-left")
}
fn ggm_right(label: &[u8; 32]) -> [u8; 32] {
    hmac::mac(label, b"sd-ggm-right")
}
fn ggm_key(label: &[u8; 32]) -> Key {
    Key::from_bytes(hmac::mac(label, b"sd-ggm-key"))
}

/// A member's provisioned labels, stored as a flat depth-pair arena.
///
/// For a member at leaf depth `D`, the label `LABEL_i(s)` it holds is
/// uniquely named by `(depth(i), depth(s))` — `i` is the path ancestor
/// at its depth and `s` is the sibling of the path node at *its* depth —
/// so the `D(D+1)/2` labels live in a `(D+1)²` slot array with no
/// hashing, and lookup during broadcast decryption is two subtractions
/// and an index.
#[derive(Clone)]
pub struct LabelArena {
    depth: u32,
    slots: Vec<Option<[u8; 32]>>,
}

impl LabelArena {
    fn new(depth: u32) -> LabelArena {
        let side = depth as usize + 1;
        LabelArena {
            depth,
            slots: vec![None; side * side],
        }
    }

    #[inline]
    fn idx(&self, di: u32, ds: u32) -> usize {
        di as usize * (self.depth as usize + 1) + ds as usize
    }

    fn set(&mut self, di: u32, ds: u32, label: [u8; 32]) {
        let idx = self.idx(di, ds);
        self.slots[idx] = Some(label);
    }

    /// The label `LABEL_i(s)` for the ancestor at depth `di` and the
    /// path-sibling at depth `ds`, if provisioned.
    pub fn get(&self, di: u32, ds: u32) -> Option<&[u8; 32]> {
        if di > self.depth || ds > self.depth {
            return None;
        }
        self.slots[self.idx(di, ds)].as_ref()
    }

    /// Number of provisioned labels.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no labels are provisioned.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }
}

impl std::fmt::Debug for LabelArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Labels are key material: print the shape, never the contents.
        write!(
            f,
            "LabelArena {{ depth: {}, labels: {} }}",
            self.depth,
            self.len()
        )
    }
}

/// A subset in a broadcast cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subset {
    /// All leaves (used only when nobody is revoked).
    Full,
    /// `S_{i,j}`: leaves below `i` but not below `j`.
    Diff {
        /// Subtree root.
        i: u32,
        /// Excluded descendant.
        j: u32,
    },
}

/// One encrypted item of an SD broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdItem {
    /// Which subset's key encrypts this item.
    pub subset: Subset,
    /// AEAD ciphertext of the session key.
    pub ct: Vec<u8>,
}

/// An SD rekey broadcast: the session key under a cover of the non-revoked
/// set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdBroadcast {
    /// Epoch this broadcast establishes.
    pub epoch: u64,
    /// Cover items.
    pub items: Vec<SdItem>,
}

/// Provisioning package for a member: its leaf plus all `LABEL_i(s)` for
/// ancestors `i` and path-siblings `s`, and the full-tree key.
#[derive(Debug, Clone)]
pub struct SdWelcome {
    /// Assigned identity.
    pub id: UserId,
    /// Assigned leaf node.
    pub leaf: u32,
    /// `LABEL_i(s)` for each ancestor `i` of the leaf and each sibling
    /// `s` of the path below `i`, keyed by depth pair.
    pub labels: LabelArena,
    /// Key used when nobody is revoked.
    pub full_key: Key,
    /// Epoch before the join broadcast.
    pub epoch: u64,
}

/// The SD controller.
pub struct SdController {
    capacity: u32,
    master: [u8; 32],
    leaf_of: HashMap<UserId, u32>,
    revoked_leaves: BTreeSet<u32>,
    next_leaf: u32,
    group_key: Key,
    epoch: u64,
    next_id: u64,
}

impl std::fmt::Debug for SdController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SdController {{ capacity: {}, members: {}, revoked: {}, epoch: {} }}",
            self.capacity,
            self.leaf_of.len(),
            self.revoked_leaves.len(),
            self.epoch
        )
    }
}

/// Member state (stateless receiver: labels never change).
#[derive(Debug, Clone)]
pub struct SdMember {
    id: UserId,
    leaf: u32,
    labels: LabelArena,
    full_key: Key,
    group_key: Key,
    epoch: u64,
}

impl SdController {
    /// Creates a controller over a tree with `capacity` leaves (rounded up
    /// to a power of two, minimum 2).
    pub fn new(capacity: u32, rng: &mut dyn RngCore) -> SdController {
        let capacity = capacity.max(2).next_power_of_two();
        let mut master = [0u8; 32];
        rng.fill_bytes(&mut master);
        SdController {
            capacity,
            master,
            leaf_of: HashMap::new(),
            revoked_leaves: BTreeSet::new(),
            next_leaf: capacity,
            group_key: Key::random(rng),
            epoch: 0,
            next_id: 0,
        }
    }

    /// The initial label of subtree root `i`.
    fn node_label(&self, i: u32) -> [u8; 32] {
        let mut data = b"sd-node-label".to_vec();
        data.extend_from_slice(&i.to_be_bytes());
        hmac::mac(&self.master, &data)
    }

    fn full_key(&self) -> Key {
        Key::from_bytes(hmac::mac(&self.master, b"sd-full-key"))
    }

    /// Derives `LABEL_i(j)` by walking the GGM tree from `i` down to `j`.
    fn label(&self, i: u32, j: u32) -> [u8; 32] {
        debug_assert!(is_ancestor_or_self(i, j));
        let mut label = self.node_label(i);
        for d in depth(i)..depth(j) {
            let next = ancestor_at(j, d + 1);
            label = if next.is_multiple_of(2) {
                ggm_left(&label)
            } else {
                ggm_right(&label)
            };
        }
        label
    }

    fn subset_key(&self, subset: Subset) -> Key {
        match subset {
            Subset::Full => self.full_key(),
            Subset::Diff { i, j } => ggm_key(&self.label(i, j)),
        }
    }

    /// NNL cover of all leaves except `revoked`, built iteratively in
    /// `O(r log r)` for `r` revocations.
    ///
    /// In a binary tree the Steiner branching nodes of the revoked set
    /// are exactly the LCAs of *adjacent* revoked leaves in sorted
    /// order, each appearing exactly once. Processing those merges
    /// deepest-first (the NNL "deepest LCA" rule) with a union-find
    /// tracking each merged component's chain top reproduces the NNL
    /// cover without the quadratic pair search of the naive algorithm:
    /// at most two subsets per merge, `≤ 2r - 1` total.
    fn cover(&self, revoked: &BTreeSet<u32>) -> Vec<Subset> {
        if revoked.is_empty() {
            return vec![Subset::Full];
        }
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let leaves: Vec<u32> = revoked.iter().copied().collect();
        let r = leaves.len();
        let mut cover = Vec::with_capacity(2 * r);
        // (branching node, index of the left neighbour), deepest first.
        let mut merges: Vec<(u32, u32)> = (0..r - 1)
            .map(|i| (lca(leaves[i], leaves[i + 1]), i as u32))
            .collect();
        merges.sort_unstable_by_key(|m| std::cmp::Reverse(depth(m.0)));
        let mut parent: Vec<u32> = (0..r as u32).collect();
        // Chain top of each component: everything below it is handled.
        let mut top: Vec<u32> = leaves;
        for (v, i) in merges {
            let a = find(&mut parent, i);
            let b = find(&mut parent, i + 1);
            for side in [a, b] {
                let t = top[side as usize];
                let c = ancestor_at(t, depth(v) + 1);
                if c != t {
                    cover.push(Subset::Diff { i: c, j: t });
                }
            }
            parent[a as usize] = b;
            top[b as usize] = v;
        }
        let t = top[find(&mut parent, 0) as usize];
        if t != 1 {
            cover.push(Subset::Diff { i: 1, j: t });
        }
        cover
    }

    /// Provisions the label arena for a member at `leaf` in `O(d²)` GGM
    /// steps: one descent per ancestor, emitting the off-path sibling
    /// label at every level instead of re-walking from the top for each
    /// `(i, s)` pair.
    fn provision(&self, leaf: u32) -> LabelArena {
        let d = depth(leaf);
        let mut arena = LabelArena::new(d);
        for di in 0..d {
            let i = ancestor_at(leaf, di);
            let mut cur = self.node_label(i);
            for dv in di + 1..=d {
                let on_path = ancestor_at(leaf, dv);
                // The descent follows the member's own path; the sibling
                // hanging off it at this depth gets its label emitted.
                let (lab_path, lab_sib) = if on_path.is_multiple_of(2) {
                    (ggm_left(&cur), ggm_right(&cur))
                } else {
                    (ggm_right(&cur), ggm_left(&cur))
                };
                arena.set(di, dv, lab_sib);
                cur = lab_path;
            }
        }
        arena
    }

    fn rekey(&mut self, rng: &mut dyn RngCore) -> SdBroadcast {
        self.group_key = Key::random(rng);
        self.epoch += 1;
        let items = self
            .cover(&self.revoked_leaves)
            .into_iter()
            .map(|subset| {
                let key = self.subset_key(subset);
                let aad = format!("sd-rekey:{}", self.epoch);
                SdItem {
                    subset,
                    ct: aead::seal(&key, self.group_key.as_bytes(), aad.as_bytes(), rng),
                }
            })
            .collect();
        SdBroadcast {
            epoch: self.epoch,
            items,
        }
    }

    /// Number of subsets a rekey would currently need (cover size) — used
    /// by the E4 experiment without re-encrypting.
    pub fn cover_size(&self) -> usize {
        self.cover(&self.revoked_leaves).len()
    }
}

impl Controller for SdController {
    type Welcome = SdWelcome;
    type Member = SdMember;
    type Broadcast = SdBroadcast;

    /// SD never reuses leaf positions: every join takes a fresh leaf, so
    /// an evict-then-rejoin in one window lands the rejoiner on a new
    /// leaf, and capacity counts every leaf ever assigned. The window's
    /// one broadcast covers the non-revoked set.
    fn apply_epoch(
        &mut self,
        joins: usize,
        leaves: &[UserId],
        rng: &mut dyn RngCore,
    ) -> Result<(Joined<SdWelcome>, SdBroadcast), CgkdError> {
        self.check_window(joins, leaves)?;
        if joins == 0 && leaves.is_empty() {
            return Ok((
                Vec::new(),
                SdBroadcast {
                    epoch: self.epoch,
                    items: Vec::new(),
                },
            ));
        }
        for id in leaves {
            if let Some(leaf) = self.leaf_of.remove(id) {
                self.revoked_leaves.insert(leaf);
            }
        }
        let mut joined = Vec::with_capacity(joins);
        for _ in 0..joins {
            let leaf = self.next_leaf;
            self.next_leaf += 1;
            let id = UserId(self.next_id);
            self.next_id += 1;
            self.leaf_of.insert(id, leaf);
            joined.push((
                id,
                SdWelcome {
                    id,
                    leaf,
                    labels: self.provision(leaf),
                    full_key: self.full_key(),
                    epoch: self.epoch,
                },
            ));
        }
        Ok((joined, self.rekey(rng)))
    }

    fn check_window(&self, joins: usize, leaves: &[UserId]) -> Result<(), CgkdError> {
        check_leavers(leaves, |id| self.leaf_of.contains_key(id))?;
        if self.next_leaf as u64 + joins as u64 > 2 * self.capacity as u64 {
            return Err(CgkdError::Full);
        }
        Ok(())
    }

    fn member_from_welcome(&self, welcome: SdWelcome) -> SdMember {
        SdMember {
            id: welcome.id,
            leaf: welcome.leaf,
            labels: welcome.labels,
            group_key: welcome.full_key.clone(),
            full_key: welcome.full_key,
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

    fn stats(broadcast: &SdBroadcast) -> BroadcastStats {
        BroadcastStats {
            items: broadcast.items.len(),
            bytes: broadcast.items.iter().map(|i| i.ct.len() + 8).sum(),
        }
    }
}

impl SdMember {
    /// Derives the key for `subset` if this member belongs to it.
    fn derive(&self, subset: Subset) -> Option<Key> {
        match subset {
            Subset::Full => Some(self.full_key.clone()),
            Subset::Diff { i, j } => {
                if !is_ancestor_or_self(i, self.leaf) || is_ancestor_or_self(j, self.leaf) {
                    return None; // not in this subset
                }
                // First node on the path i→j that is not an ancestor of us:
                // it is the sibling of our path at that depth.
                let mut s = None;
                for d in depth(i) + 1..=depth(j) {
                    let node = ancestor_at(j, d);
                    if !is_ancestor_or_self(node, self.leaf) {
                        s = Some(node);
                        break;
                    }
                }
                let s = s?;
                let mut label = *self.labels.get(depth(i), depth(s))?;
                for d in depth(s)..depth(j) {
                    let next = ancestor_at(j, d + 1);
                    label = if next.is_multiple_of(2) {
                        ggm_left(&label)
                    } else {
                        ggm_right(&label)
                    };
                }
                Some(ggm_key(&label))
            }
        }
    }
}

impl MemberState for SdMember {
    type Broadcast = SdBroadcast;

    fn process(&mut self, broadcast: &SdBroadcast) -> Result<(), CgkdError> {
        if broadcast.epoch <= self.epoch {
            return Err(CgkdError::EpochMismatch);
        }
        let aad = format!("sd-rekey:{}", broadcast.epoch);
        for item in &broadcast.items {
            let Some(key) = self.derive(item.subset) else {
                continue;
            };
            if let Ok(pt) = aead::open(&key, &item.ct, aad.as_bytes()) {
                if pt.len() == 32 {
                    let mut kb = [0u8; 32];
                    kb.copy_from_slice(&pt);
                    self.group_key = Key::from_bytes(kb);
                    // Stateless receivers may skip epochs freely.
                    self.epoch = broadcast.epoch;
                    return Ok(());
                }
            }
        }
        Err(CgkdError::CannotDecrypt)
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
        rand::rngs::StdRng::seed_from_u64(72)
    }

    #[test]
    fn tree_helpers() {
        assert_eq!(depth(1), 0);
        assert_eq!(depth(2), 1);
        assert_eq!(depth(7), 2);
        assert_eq!(lca(4, 5), 2);
        assert_eq!(lca(4, 6), 1);
        assert_eq!(lca(4, 4), 4);
        assert!(is_ancestor_or_self(1, 13));
        assert!(is_ancestor_or_self(3, 13));
        assert!(!is_ancestor_or_self(2, 13));
        assert_eq!(ancestor_at(13, 1), 3);
    }

    #[test]
    fn everyone_decrypts_when_nobody_revoked() {
        let mut r = rng();
        let mut gc = SdController::new(8, &mut r);
        let mut members = Vec::new();
        let mut last = None;
        for _ in 0..6 {
            let (_, w, b) = join(&mut gc, &mut r).unwrap();
            members.push(gc.member_from_welcome(w));
            last = Some(b);
        }
        // Stateless receivers only need the LATEST broadcast.
        let b = last.unwrap();
        for m in members.iter_mut() {
            m.process(&b).unwrap();
            assert_eq!(m.group_key(), gc.group_key());
        }
        assert_eq!(b.items.len(), 1, "no revocations: single Full item");
    }

    #[test]
    fn revoked_member_excluded_others_covered() {
        let mut r = rng();
        let mut gc = SdController::new(8, &mut r);
        let mut members = Vec::new();
        for _ in 0..8 {
            let (_, w, _) = join(&mut gc, &mut r).unwrap();
            members.push(gc.member_from_welcome(w));
        }
        // Revoke members 2 and 5.
        let b1 = leave(&mut gc, members[2].id(), &mut r).unwrap();
        let _ = b1;
        let b2 = leave(&mut gc, members[5].id(), &mut r).unwrap();
        for (i, m) in members.iter_mut().enumerate() {
            if i == 2 || i == 5 {
                assert_eq!(m.process(&b2), Err(CgkdError::CannotDecrypt), "member {i}");
            } else {
                m.process(&b2).unwrap();
                assert_eq!(m.group_key(), gc.group_key(), "member {i}");
            }
        }
    }

    #[test]
    fn cover_sizes_bounded() {
        let mut r = rng();
        let mut gc = SdController::new(64, &mut r);
        let mut ids = Vec::new();
        for _ in 0..64 {
            let (id, _, _) = join(&mut gc, &mut r).unwrap();
            ids.push(id);
        }
        assert_eq!(gc.cover_size(), 1);
        // Revoke a scattered set; cover stays ≤ 2r - 1.
        for (count, &id) in [ids[0], ids[13], ids[27], ids[40], ids[63]]
            .iter()
            .enumerate()
        {
            leave(&mut gc, id, &mut r).unwrap();
            let rlen = count + 1;
            assert!(
                gc.cover_size() <= 2 * rlen,
                "cover {} too big for {} revocations",
                gc.cover_size(),
                rlen
            );
        }
    }

    #[test]
    fn cover_partitions_correctly() {
        // Structural check: every non-revoked allocated leaf is in exactly
        // one subset; revoked leaves are in none.
        let mut r = rng();
        let mut gc = SdController::new(16, &mut r);
        let mut ids = Vec::new();
        for _ in 0..16 {
            let (id, _, _) = join(&mut gc, &mut r).unwrap();
            ids.push(id);
        }
        for &victim in &[ids[1], ids[6], ids[7], ids[12]] {
            leave(&mut gc, victim, &mut r).unwrap();
        }
        let cover = gc.cover(&gc.revoked_leaves);
        for leaf in 16u32..32 {
            let covering = cover
                .iter()
                .filter(|s| match **s {
                    Subset::Full => true,
                    Subset::Diff { i, j } => {
                        is_ancestor_or_self(i, leaf) && !is_ancestor_or_self(j, leaf)
                    }
                })
                .count();
            if gc.revoked_leaves.contains(&leaf) {
                assert_eq!(covering, 0, "revoked leaf {leaf} must not be covered");
            } else {
                assert_eq!(covering, 1, "leaf {leaf} must be covered exactly once");
            }
        }
    }

    #[test]
    fn stateless_members_skip_epochs() {
        let mut r = rng();
        let mut gc = SdController::new(8, &mut r);
        let (_, w, _) = join(&mut gc, &mut r).unwrap();
        let mut m = gc.member_from_welcome(w);
        // Generate several epochs without delivering them.
        let (_, _, _) = join(&mut gc, &mut r).unwrap();
        let (_, _, _) = join(&mut gc, &mut r).unwrap();
        let (id3, _, b) = join(&mut gc, &mut r).unwrap();
        let _ = id3;
        // Old member decrypts the latest broadcast directly.
        m.process(&b).unwrap();
        assert_eq!(m.group_key(), gc.group_key());
        // Replays of older epochs are rejected.
        assert_eq!(m.process(&b), Err(CgkdError::EpochMismatch));
    }

    #[test]
    fn label_storage_is_polylog() {
        let mut r = rng();
        let mut gc = SdController::new(1024, &mut r);
        let (_, w, _) = join(&mut gc, &mut r).unwrap();
        // depth d = 10: expect d(d+1)/2 = 55 labels.
        assert_eq!(w.labels.len(), 55);
    }

    #[test]
    fn cover_matches_on_adversarial_patterns() {
        // The union-find cover must partition correctly on clustered,
        // alternating, and boundary revocation patterns.
        let mut r = rng();
        let mut gc = SdController::new(32, &mut r);
        let mut ids = Vec::new();
        for _ in 0..32 {
            let (id, _, _) = join(&mut gc, &mut r).unwrap();
            ids.push(id);
        }
        for pattern in [
            vec![0usize, 1, 2, 3],           // one cluster
            vec![0, 2, 4, 6, 8, 10],         // alternating
            vec![0, 31],                     // extremes
            vec![15, 16],                    // adjacent across the midline
            (0..31).collect::<Vec<usize>>(), // all but one
        ] {
            let revoked: BTreeSet<u32> = pattern.iter().map(|&i| 32 + i as u32).collect();
            let cover = gc.cover(&revoked);
            assert!(cover.len() <= 2 * revoked.len(), "cover bound violated");
            for leaf in 32u32..64 {
                let covering = cover
                    .iter()
                    .filter(|s| match **s {
                        Subset::Full => true,
                        Subset::Diff { i, j } => {
                            is_ancestor_or_self(i, leaf) && !is_ancestor_or_self(j, leaf)
                        }
                    })
                    .count();
                let expect = usize::from(!revoked.contains(&leaf));
                assert_eq!(covering, expect, "leaf {leaf} in pattern {pattern:?}");
            }
        }
    }

    #[test]
    fn batched_epoch_is_one_broadcast() {
        let mut r = rng();
        let mut gc = SdController::new(16, &mut r);
        let mut members = Vec::new();
        for _ in 0..6 {
            let (_, w, _) = join(&mut gc, &mut r).unwrap();
            members.push(gc.member_from_welcome(w));
        }
        let victims = [members[1].id(), members[4].id()];
        let (joined, b) = gc.apply_epoch(2, &victims, &mut r).unwrap();
        assert_eq!(joined.len(), 2);
        for m in members.iter_mut() {
            if victims.contains(&m.id()) {
                assert_eq!(m.process(&b), Err(CgkdError::CannotDecrypt));
            } else {
                m.process(&b).unwrap();
                assert_eq!(m.group_key(), gc.group_key());
            }
        }
        for (_, w) in joined {
            let mut j = gc.member_from_welcome(w);
            j.process(&b).unwrap();
            assert_eq!(j.group_key(), gc.group_key());
        }
        assert_eq!(gc.members().len(), 6);
    }

    #[test]
    fn batched_epoch_validates_atomically() {
        let mut r = rng();
        let mut gc = SdController::new(4, &mut r);
        let (id0, _, _) = join(&mut gc, &mut r).unwrap();
        let epoch_before = gc.epoch();
        assert_eq!(
            gc.apply_epoch(0, &[UserId(77)], &mut r).err(),
            Some(CgkdError::UnknownMember)
        );
        assert_eq!(
            gc.apply_epoch(0, &[id0, id0], &mut r).err(),
            Some(CgkdError::UnknownMember)
        );
        // SD leaves are never reused: 1 allocated + 4 joins > 4 fresh.
        assert_eq!(gc.apply_epoch(4, &[], &mut r).err(), Some(CgkdError::Full));
        assert_eq!(gc.epoch(), epoch_before);
        assert_eq!(gc.members().len(), 1);
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let mut r = rng();
        let mut gc = SdController::new(8, &mut r);
        join(&mut gc, &mut r).unwrap();
        let epoch = gc.epoch();
        let key = gc.group_key().clone();
        let (joined, b) = gc.apply_epoch(0, &[], &mut r).unwrap();
        assert!(joined.is_empty());
        assert!(b.items.is_empty());
        assert_eq!(b.epoch, epoch);
        assert_eq!(gc.group_key(), &key);
    }
}
