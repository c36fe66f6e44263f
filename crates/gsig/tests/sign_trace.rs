//! A signature's limb-operation trace does not depend on the key's
//! history: the first signature under a freshly set-up key runs the same
//! limb operations as the next one with the same randomness. A key whose
//! tables were built on first use would make its first signature (and
//! the first with a negative blind on each base) visibly more expensive
//! than the rest, telling an observer which signature was the group's
//! first.

use shs_bigint::trace::{self, OpTrace};
use shs_crypto::drbg::HmacDrbg;
use shs_gsig::acjt;
use shs_gsig::fixtures;
use shs_gsig::ky::{self, SignBasis};
use shs_gsig::params::{GsigParams, GsigPreset};

/// Signs twice with one seed and returns both traces.
fn twice<S: PartialEq + std::fmt::Debug>(sign: impl Fn(&mut HmacDrbg) -> S) -> [OpTrace; 2] {
    let run = || trace::capture(|| sign(&mut HmacDrbg::from_seed(b"sign-trace")));
    let ((first, a), (second, b)) = (run(), run());
    assert_eq!(a, b, "one seed, one signature");
    assert!(
        first.limb_mul > 0,
        "nothing traced (needs shs-bigint/trace-ops)"
    );
    [first, second]
}

#[test]
fn the_first_ky_signature_of_a_fresh_key_runs_the_trace_of_the_next() {
    let (rsa, secret) = fixtures::test_rsa_setting().clone();
    let params = GsigParams::preset(GsigPreset::Test);
    let mut rng = HmacDrbg::from_seed(b"sign-trace-ky");
    let mut gm = ky::GroupManager::setup_with_rsa(params, rsa, secret, &mut rng);
    let pk = gm.public_key().clone();
    let (join, req) = ky::start_join(&pk, &mut rng);
    let resp = gm.admit(&req, &mut rng).expect("join");
    let key = ky::finish_join(&pk, join, &resp).expect("finish join");
    for basis in [SignBasis::Random, SignBasis::Common(b"session")] {
        let [first, second] = twice(|rng| ky::sign(&pk, &key, b"m", basis, rng));
        assert_eq!(first, second, "{basis:?}: the first signature differs");
    }
}

#[test]
fn the_first_acjt_signature_of_a_fresh_key_runs_the_trace_of_the_next() {
    let (rsa, secret) = fixtures::test_rsa_setting().clone();
    let params = GsigParams::preset(GsigPreset::Test);
    let mut rng = HmacDrbg::from_seed(b"sign-trace-acjt");
    let mut gm = acjt::GroupManager::setup_with_rsa(params, rsa, secret, &mut rng);
    let pk = gm.public_key().clone();
    let (join, req) = acjt::start_join(&pk, &mut rng);
    let resp = gm.admit(&req, &mut rng).expect("join");
    let key = acjt::finish_join(&pk, join, &resp).expect("finish join");
    let [first, second] = twice(|rng| acjt::sign(&pk, &key, b"m", rng));
    assert_eq!(first, second, "the first signature differs");
}
