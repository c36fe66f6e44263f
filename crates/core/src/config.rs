//! Group configuration: which GSIG instantiation, which parameter sizes,
//! which policy knobs.
//!
//! The three substrate selectors ([`SchemeKind`], [`CgkdChoice`],
//! [`DgkaChoice`]) are *data*, not dispatch: the only module allowed to
//! `match` on them is [`crate::factory`]. Everything else goes through
//! their `ALL` arrays or the boolean capability accessors.

use shs_groups::schnorr::SchnorrPreset;
use shs_gsig::params::GsigPreset;
use shs_net::DeliveryPolicy;

/// Which group-signature scheme instantiates the framework's GSIG slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// §8.1 as shipped: Kiayias–Yung signatures with per-signature random
    /// `T7`, verifier-local revocation via the member CRL. Unlinkability,
    /// traceability, revocation; no self-distinction.
    Scheme1,
    /// §8.2: Kiayias–Yung with the **common hashed `T7`** — adds
    /// self-distinction (Theorem 3).
    Scheme2SelfDistinct,
    /// §8.1 strictly by the letter: classic ACJT with full-anonymity
    /// (Theorem 1's full-unlinkability) but **no signature-level
    /// revocation** — the configuration the §3 revocation attack (E7b)
    /// targets.
    Scheme1Classic,
}

impl SchemeKind {
    /// Every GSIG instantiation. Iterate this (rather than matching) to
    /// enumerate the instantiation matrix.
    pub const ALL: [SchemeKind; 3] = [
        SchemeKind::Scheme1,
        SchemeKind::Scheme2SelfDistinct,
        SchemeKind::Scheme1Classic,
    ];

    /// Does this scheme enforce self-distinction?
    pub fn self_distinct(self) -> bool {
        self == SchemeKind::Scheme2SelfDistinct
    }

    /// Does this scheme support signature-level (VLR) revocation?
    pub fn supports_vlr(self) -> bool {
        self != SchemeKind::Scheme1Classic
    }
}

/// Which CGKD scheme backs the group (the **C** of GCD is pluggable,
/// §5: "any centralized group key distribution scheme satisfying the
/// functionality and security requirements ... can be integrated").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CgkdChoice {
    /// Logical Key Hierarchy (Wong–Gouda–Lam): stateful members,
    /// `O(log n)` rekeying. The default.
    Lkh,
    /// Subset-Difference (Naor–Naor–Lotspiech): stateless receivers that
    /// may skip epochs; broadcasts sized by the revoked set.
    SubsetDifference,
    /// The flat star baseline: one individual key per member, `O(n)`
    /// rekeying. The naive scheme the tree methods improve on (E4).
    Star,
}

impl CgkdChoice {
    /// Every CGKD backend.
    pub const ALL: [CgkdChoice; 3] = [
        CgkdChoice::Lkh,
        CgkdChoice::SubsetDifference,
        CgkdChoice::Star,
    ];
}

/// Configuration of one group (one `GA`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConfig {
    /// GSIG parameter preset.
    pub gsig_preset: GsigPreset,
    /// System-wide Schnorr parameters (DGKA + tracing encryption).
    pub schnorr_preset: SchnorrPreset,
    /// GSIG instantiation.
    pub scheme: SchemeKind,
    /// CGKD backend.
    pub cgkd: CgkdChoice,
    /// CGKD capacity (members).
    pub capacity: u32,
}

impl GroupConfig {
    /// Fast test-sized configuration for a scheme.
    pub fn test(scheme: SchemeKind) -> GroupConfig {
        GroupConfig {
            gsig_preset: GsigPreset::Test,
            schnorr_preset: SchnorrPreset::Test,
            scheme,
            cgkd: CgkdChoice::Lkh,
            capacity: 64,
        }
    }

    /// Test configuration on an explicit CGKD backend.
    pub fn test_with_cgkd(scheme: SchemeKind, cgkd: CgkdChoice) -> GroupConfig {
        GroupConfig {
            cgkd,
            ..GroupConfig::test(scheme)
        }
    }
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig::test(SchemeKind::Scheme2SelfDistinct)
    }
}

/// Which phases of `GCD.Handshake` run (§7 remark: the protocol is
/// tailorable; traceability can be dropped by stopping after Phase II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePolicy {
    /// All three phases (traceable).
    Full,
    /// Phases I + II only (no `(θ, δ)` published; untraceable by choice).
    PreliminaryOnly,
}

/// Which DGKA protocol runs Phase I (the framework is a compiler: any
/// secure group key agreement slots in, §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DgkaChoice {
    /// Burmester–Desmedt \[11\]: two broadcast rounds, constant
    /// exponentiations per party. The default.
    BurmesterDesmedt,
    /// GDH.2 (Steiner–Tsudik–Waidner \[30\]): an `m`-round upflow chain.
    /// Non-active slots transmit cover traffic each round so the wire
    /// shape stays independent of the participant set.
    Gdh2,
    /// Katz–Yung compiled Burmester–Desmedt \[21\]: a nonce round plus the
    /// two BD rounds, every message signed over the session context.
    /// Rejects Phase-I MITM immediately (signature failure) instead of at
    /// the Phase-II MACs.
    AuthenticatedBd,
}

impl DgkaChoice {
    /// Every DGKA protocol.
    pub const ALL: [DgkaChoice; 3] = [
        DgkaChoice::BurmesterDesmedt,
        DgkaChoice::Gdh2,
        DgkaChoice::AuthenticatedBd,
    ];
}

/// Round budget of a session on a possibly-lossy medium.
///
/// The simulated media are clocked by broadcast exchanges, so the budget
/// is denominated in exchanges rather than wall time: it is the timeout.
/// The protocol's *base* exchanges always run (they also carry every
/// slot's cover traffic, so skipping one would change the wire shape);
/// the budget bounds the **extra** retransmission exchanges the driver
/// may spend recovering lost or mangled messages. A session therefore
/// always terminates within `base + min(max_exchanges, labels ×
/// retries_per_round)` exchanges, with slots that could not recover
/// reporting a structured abort instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionBudget {
    /// Hard cap on total exchanges (base + retransmissions); once
    /// reached, no further retransmissions are attempted.
    pub max_exchanges: u32,
    /// Retransmissions allowed per round label before the driver gives
    /// up on the still-missing messages and degrades (smaller `Δ`,
    /// partial success, or a per-slot abort). The retry schedule is
    /// linear — one re-exchange per attempt — because the medium's clock
    /// is the exchange counter, which is also exactly what a
    /// `Delay { rounds }` fault counts.
    pub retries_per_round: u32,
}

impl Default for SessionBudget {
    fn default() -> Self {
        SessionBudget {
            max_exchanges: 32,
            retries_per_round: 2,
        }
    }
}

/// Options of one handshake session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeOptions {
    /// Phase policy.
    pub policy: TracePolicy,
    /// Allow partially-successful handshakes (§7 extension): sub-groups of
    /// co-members complete even in mixed sessions.
    pub partial_success: bool,
    /// Delivery model of the anonymous medium.
    pub delivery: DeliveryPolicy,
    /// Which key-agreement protocol runs Phase I.
    pub dgka: DgkaChoice,
    /// Retry/timeout budget on lossy media.
    pub budget: SessionBudget,
    /// Verify co-members' Phase-III signatures on a scoped worker pool
    /// (one job per slot). Results are merged in slot order, so the
    /// transcript, outcomes and per-slot costs are identical either way
    /// (every slot pays its own CRL scan); this only trades wall-clock
    /// time. Disable to pin the engine to one thread (e.g. under a
    /// deterministic profiler).
    pub parallel_verify: bool,
}

impl Default for HandshakeOptions {
    fn default() -> Self {
        HandshakeOptions {
            policy: TracePolicy::Full,
            partial_success: true,
            delivery: DeliveryPolicy::Synchronous,
            dgka: DgkaChoice::BurmesterDesmedt,
            budget: SessionBudget::default(),
            parallel_verify: true,
        }
    }
}

impl HandshakeOptions {
    /// Default options with a specific DGKA protocol.
    pub fn with_dgka(dgka: DgkaChoice) -> HandshakeOptions {
        HandshakeOptions {
            dgka,
            ..HandshakeOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_flags() {
        assert!(SchemeKind::Scheme2SelfDistinct.self_distinct());
        assert!(!SchemeKind::Scheme1.self_distinct());
        assert!(SchemeKind::Scheme1.supports_vlr());
        assert!(!SchemeKind::Scheme1Classic.supports_vlr());
    }

    #[test]
    fn defaults() {
        let c = GroupConfig::default();
        assert_eq!(c.scheme, SchemeKind::Scheme2SelfDistinct);
        let o = HandshakeOptions::default();
        assert_eq!(o.policy, TracePolicy::Full);
        assert!(o.partial_success);
    }
}
