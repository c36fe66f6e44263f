//! Handshake transcripts and tracing outcomes.

/// The `{(θ_i, δ_i)}` record of one handshake's Phase III, as observable
/// on the anonymous channel (this is exactly what `GCD.TraceUser` takes as
/// input).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HandshakeTranscript {
    /// The DGKA session id binding the transcript.
    pub sid: Vec<u8>,
    /// One entry per anonymous slot, in slot order.
    pub entries: Vec<TranscriptEntry>,
}

/// One slot's Phase III publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// `θ_i = SENC(k'_i, σ_i)` — or decoy bytes.
    pub theta: Vec<u8>,
    /// `δ_i = ENC(pk_T, k'_i)` serialized — or decoy bytes.
    pub delta: Vec<u8>,
}

/// Result of tracing one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOutcome {
    /// The anonymous slot in the session.
    pub slot: usize,
    /// The identified member, or why identification failed.
    pub result: Result<shs_gsig::ky::MemberId, TraceError>,
}

/// Why a slot could not be traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// `δ` did not parse as a ciphertext.
    MalformedDelta,
    /// `δ` failed Cramer–Shoup decryption (decoy, other group, or
    /// tampered).
    UndecryptableDelta,
    /// `θ` failed authenticated decryption under the recovered `k'`.
    UndecryptableTheta,
    /// The recovered signature bytes did not parse.
    MalformedSignature,
    /// `GSIG.Open` failed (invalid signature or unknown certificate).
    OpenFailed,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::MalformedDelta => write!(f, "delta does not parse"),
            TraceError::UndecryptableDelta => write!(f, "delta does not decrypt under sk_T"),
            TraceError::UndecryptableTheta => {
                write!(f, "theta does not decrypt under recovered k'")
            }
            TraceError::MalformedSignature => write!(f, "recovered signature bytes malformed"),
            TraceError::OpenFailed => write!(f, "GSIG.Open failed on recovered signature"),
        }
    }
}

impl std::error::Error for TraceError {}
