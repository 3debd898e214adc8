//! First-weight post-processing: scaling, integer rounding and the Dijkstra
//! tolerances of §V.G ("Noninteger Link Weights").
//!
//! Routing protocols like OSPF and IS-IS carry link weights in a finite
//! integer field. The paper converts the optimal (real-valued) weights via
//!
//! ```text
//! w'_e = round( w_e · max_e s_e )
//! ```
//!
//! which guarantees the link with maximum spare capacity gets weight 1
//! (for the β = 1, q = 1 objective, where `w = 1/s`). Because rounding
//! perturbs path costs, equal-cost detection must use a tolerance:
//! the paper specifies **0.3** for noninteger (scaled) weights and **1**
//! for integer weights. OSPFv2 carries a link's metric in 16 bits
//! (RFC 2328, §A.4.2), so [`integerize`] refuses a weight above
//! [`OSPF_MAX_METRIC`] instead of emitting one no router can advertise.

use crate::{Objective, SpefError};

/// Dijkstra equal-cost tolerance for *scaled noninteger* weights (§V.G).
pub const NONINTEGER_DIJKSTRA_TOLERANCE: f64 = 0.3;

/// Dijkstra equal-cost tolerance for *integer* weights (§V.G).
pub const INTEGER_DIJKSTRA_TOLERANCE: f64 = 1.0;

/// The largest link metric an OSPFv2 router-LSA carries: its metric field
/// is 16 bits (RFC 2328, §A.4.2).
pub const OSPF_MAX_METRIC: f64 = 65_535.0;

/// Computes the optimal first weights `w_e = V'_e(s_e)` from a spare-
/// capacity vector (Eq. 6b). Only valid for β > 0, where no optimal spare
/// capacity is zero (Theorem 4.1's uniqueness case); for β = 0 the weights
/// come from the LP duals instead (see [`crate::te`]).
///
/// # Errors
///
/// Returns [`SpefError::InvalidInput`] if β = 0, if lengths mismatch, or if
/// some spare capacity is not strictly positive.
pub fn first_weights(objective: &Objective, spare: &[f64]) -> Result<Vec<f64>, SpefError> {
    if objective.beta() == 0.0 {
        return Err(SpefError::InvalidInput(
            "beta = 0 weights are LP duals, not marginal utilities".to_string(),
        ));
    }
    if spare.len() != objective.link_count() {
        return Err(SpefError::InvalidInput(format!(
            "spare vector has length {}, objective covers {} links",
            spare.len(),
            objective.link_count()
        )));
    }
    if let Some((e, &s)) = spare.iter().enumerate().find(|(_, &s)| s <= 0.0) {
        return Err(SpefError::InvalidInput(format!(
            "spare capacity of edge e{e} is {s}; weights are undefined on saturated links"
        )));
    }
    Ok(spare
        .iter()
        .enumerate()
        .map(|(e, &s)| objective.marginal_utility(e.into(), s))
        .collect())
}

/// Scales weights by `max_e s_e` (the paper's normalisation before
/// rounding). Under β = 1, q = 1 this maps the weight of the
/// maximum-spare link to exactly 1.
///
/// # Errors
///
/// Returns [`SpefError::InvalidInput`] if the slices have different
/// lengths, if some spare capacity is NaN (naming the first such edge), or
/// if `spare` has no positive entry.
pub fn scale_weights(weights: &[f64], spare: &[f64]) -> Result<Vec<f64>, SpefError> {
    if weights.len() != spare.len() {
        return Err(SpefError::InvalidInput(format!(
            "weights ({}) and spare ({}) lengths differ",
            weights.len(),
            spare.len()
        )));
    }
    if let Some(e) = spare.iter().position(|s| s.is_nan()) {
        return Err(SpefError::InvalidInput(format!(
            "spare capacity of edge e{e} is NaN"
        )));
    }
    let s_max = spare.iter().cloned().fold(0.0, f64::max);
    if s_max <= 0.0 {
        return Err(SpefError::InvalidInput(
            "no link has positive spare capacity".to_string(),
        ));
    }
    Ok(weights.iter().map(|w| w * s_max).collect())
}

/// §V.G integerisation: `w'_e = round(w_e · max_e s_e)`, floored at 1 so
/// every weight stays a positive protocol-representable integer: one in
/// `[1, OSPF_MAX_METRIC]`.
///
/// # Errors
///
/// Same conditions as [`scale_weights`], and [`SpefError::InvalidInput`]
/// naming the first edge whose weight is NaN or whose integer weight
/// exceeds [`OSPF_MAX_METRIC`] (a link whose spare capacity is below
/// `1 / 65 535` of the largest, for the β = 1, q = 1 objective).
pub fn integerize(weights: &[f64], spare: &[f64]) -> Result<Vec<f64>, SpefError> {
    let mut ints = scale_weights(weights, spare)?;
    for (e, w) in ints.iter_mut().enumerate() {
        // Checked before rounding: `f64::max` would turn NaN into 1.
        if w.is_nan() {
            return Err(SpefError::InvalidInput(format!(
                "first weight of edge e{e} is NaN"
            )));
        }
        *w = w.round().max(1.0);
        if *w > OSPF_MAX_METRIC {
            return Err(SpefError::InvalidInput(format!(
                "integer weight of edge e{e} is {w}, above OSPF's 16-bit metric limit {OSPF_MAX_METRIC}"
            )));
        }
    }
    Ok(ints)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_one_weights_are_reciprocal_spare() {
        let obj = Objective::proportional(3);
        let w = first_weights(&obj, &[0.5, 2.0, 1.0]).unwrap();
        assert_eq!(w, vec![2.0, 0.5, 1.0]);
    }

    #[test]
    fn max_spare_link_scales_to_one_for_beta_one() {
        let obj = Objective::proportional(3);
        let spare = [0.25, 4.0, 1.0];
        let w = first_weights(&obj, &spare).unwrap();
        let scaled = scale_weights(&w, &spare).unwrap();
        // w = 1/s, so w_e · s_max = s_max / s_e: the max-spare link gets 1.
        assert_eq!(scaled[1], 1.0);
        assert_eq!(scaled[0], 16.0);
        assert_eq!(scaled[2], 4.0);
    }

    #[test]
    fn integerize_rounds_and_floors() {
        let weights = [0.3, 1.2, 2.6];
        let spare = [1.0, 0.5, 0.25];
        // s_max = 1: scaled = (0.3, 1.2, 2.6) -> rounded (0, 1, 3) ->
        // floored (1, 1, 3).
        let w = integerize(&weights, &spare).unwrap();
        assert_eq!(w, vec![1.0, 1.0, 3.0]);
    }

    #[test]
    fn integerize_refuses_weights_past_the_16_bit_metric() {
        let obj = Objective::proportional(3);
        // w = 1/s and s_max = 1, so the integer weights are 1/s: edge e1's
        // spare of 1/65 535 gives the largest metric OSPF carries.
        let at_limit = [1.0, 1.0 / 65_535.0, 0.5];
        let w = first_weights(&obj, &at_limit).unwrap();
        assert_eq!(integerize(&w, &at_limit).unwrap(), vec![1.0, 65_535.0, 2.0]);
        // A spare ratio of 1e-5 scales e1's weight to 100 000.
        let past = [1.0, 1e-5, 0.5];
        let w = first_weights(&obj, &past).unwrap();
        let err = integerize(&w, &past).unwrap_err();
        let SpefError::InvalidInput(msg) = err else {
            panic!("expected InvalidInput, got {err:?}");
        };
        assert!(msg.contains("edge e1") && msg.contains("100000"), "{msg}");
    }

    #[test]
    fn integerize_refuses_a_nan_weight() {
        let err = integerize(&[1.0, f64::NAN, 2.0], &[1.0, 0.5, 0.25]).unwrap_err();
        let SpefError::InvalidInput(msg) = err else {
            panic!("expected InvalidInput, got {err:?}");
        };
        assert!(msg.contains("edge e1") && msg.contains("NaN"), "{msg}");
    }

    #[test]
    fn scale_weights_and_integerize_refuse_a_nan_spare() {
        let weights = [1.0, 2.0, 3.0];
        let spare = [1.0, 0.5, f64::NAN];
        for err in [
            scale_weights(&weights, &spare).unwrap_err(),
            integerize(&weights, &spare).unwrap_err(),
        ] {
            let SpefError::InvalidInput(msg) = err else {
                panic!("expected InvalidInput, got {err:?}");
            };
            assert!(msg.contains("edge e2") && msg.contains("NaN"), "{msg}");
        }
    }

    #[test]
    fn integerization_preserves_weight_ordering_up_to_rounding() {
        let obj = Objective::proportional(4);
        let spare = [0.1, 0.4, 1.0, 2.0];
        let w = first_weights(&obj, &spare).unwrap();
        let wi = integerize(&w, &spare).unwrap();
        for k in 1..4 {
            assert!(wi[k - 1] >= wi[k]);
        }
        // TABLE-I-like magnitudes: 20, 5, 2, 1.
        assert_eq!(wi, vec![20.0, 5.0, 2.0, 1.0]);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let obj = Objective::proportional(2);
        assert!(first_weights(&obj, &[1.0]).is_err());
        assert!(first_weights(&obj, &[1.0, 0.0]).is_err());
        let obj0 = Objective::min_hop(2);
        assert!(first_weights(&obj0, &[1.0, 1.0]).is_err());
        assert!(scale_weights(&[1.0], &[1.0, 2.0]).is_err());
        assert!(scale_weights(&[1.0, 1.0], &[0.0, 0.0]).is_err());
    }

    #[test]
    fn tolerances_match_paper() {
        assert_eq!(NONINTEGER_DIJKSTRA_TOLERANCE, 0.3);
        assert_eq!(INTEGER_DIJKSTRA_TOLERANCE, 1.0);
    }
}
