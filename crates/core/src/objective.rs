//! The generic (q, β) proportional load-balance objective (§II.B / §III.B).
//!
//! The paper's Theorem 3.3 characterises (q, β) proportional load balance
//! as utility maximisation with the per-link spare-capacity utility
//!
//! ```text
//! V_ij(s) = q_ij · log s                 if β = 1
//! V_ij(s) = q_ij · s^(1−β) / (1−β)       if β ≠ 1
//! ```
//!
//! Special members of the family (Examples 1–3 and Remark 2):
//!
//! * **β = 0, q = 1** — minimum-hop routing (linear utility),
//! * **β = 1** — proportional load balance / minimum average M/M/1 delay,
//!   with optimal weights `w = 1/(c−f)`,
//! * **q = c, β = 2** — minimises total M/M/1 queueing delay, weights
//!   `w = c/(c−f)²`,
//! * **β → ∞** — min-max load balance (minimises MLU).

use serde::{Deserialize, Serialize};
use spef_graph::EdgeId;

/// A (q, β) proportional load-balance objective over `m` links.
///
/// # Example
///
/// ```
/// use spef_core::Objective;
///
/// let obj = Objective::proportional(4); // β = 1, q = 1
/// assert_eq!(obj.beta(), 1.0);
/// // V(s) = log s, V'(s) = 1/s, V'⁻¹(w) = 1/w:
/// assert_eq!(obj.utility(0.into(), 1.0), 0.0);
/// assert_eq!(obj.marginal_utility(0.into(), 0.5), 2.0);
/// assert_eq!(obj.inverse_marginal(0.into(), 4.0), 0.25);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    q: Vec<f64>,
    beta: f64,
}

impl Objective {
    /// Creates an objective with uniform `q = 1` over `links` links and the
    /// given β.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative or not finite.
    pub fn uniform(beta: f64, links: usize) -> Self {
        Self::with_weights(vec![1.0; links], beta)
    }

    /// Creates an objective with per-link weights `q` and parameter β.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative/not finite or any `q` is non-positive
    /// or not finite. (The paper allows `q_ij = 0`; we require strictly
    /// positive `q` so that first weights `w = V'(s)` stay positive, which
    /// Theorem 3.1 presumes.)
    pub fn with_weights(q: Vec<f64>, beta: f64) -> Self {
        assert!(
            beta.is_finite() && beta >= 0.0,
            "beta must be finite and >= 0"
        );
        assert!(
            q.iter().all(|&x| x.is_finite() && x > 0.0),
            "q weights must be finite and positive"
        );
        Objective { q, beta }
    }

    /// The proportional load balance objective: β = 1, q = 1
    /// (Example 1; the objective the paper's evaluation uses for SPEF).
    pub fn proportional(links: usize) -> Self {
        Self::uniform(1.0, links)
    }

    /// The minimum-hop objective: β = 0, q = 1 (Example 3 with d = 1).
    pub fn min_hop(links: usize) -> Self {
        Self::uniform(0.0, links)
    }

    /// The total M/M/1 queueing-delay objective: q = c, β = 2 (Example 2).
    pub fn mm1_delay(capacities: &[f64]) -> Self {
        Self::with_weights(capacities.to_vec(), 2.0)
    }

    /// The β parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of links this objective is defined over.
    pub fn link_count(&self) -> usize {
        self.q.len()
    }

    /// The `q` weight of link `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn q(&self, e: EdgeId) -> f64 {
        self.q[e.index()]
    }

    /// Link utility `V_e(s)` of spare capacity `s` (Eq. 11).
    ///
    /// Returns `-∞` for `s ≤ 0` when β ≥ 1 (log/inverse-power barrier).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn utility(&self, e: EdgeId, s: f64) -> f64 {
        self.utility_at(e.index(), s)
    }

    /// [`utility`](Self::utility) by raw link index, for the solvers'
    /// per-link loops: they skip building an [`EdgeId`] and its range
    /// check.
    pub(crate) fn utility_at(&self, e: usize, s: f64) -> f64 {
        let q = self.q[e];
        let b = self.beta;
        if (b - 1.0).abs() < 1e-12 {
            if s <= 0.0 {
                f64::NEG_INFINITY
            } else {
                q * s.ln()
            }
        } else if b < 1.0 {
            // s^(1-β)/(1-β) with 1-β in (0, 1]: finite at 0.
            if s <= 0.0 {
                0.0
            } else {
                q * s.powf(1.0 - b) / (1.0 - b)
            }
        } else {
            // β > 1: negative power, barrier at 0.
            if s <= 0.0 {
                f64::NEG_INFINITY
            } else {
                q * s.powf(1.0 - b) / (1.0 - b)
            }
        }
    }

    /// Marginal utility `V'_e(s) = q / s^β` — the optimal first weight of a
    /// link with spare capacity `s` (Eq. 6b).
    ///
    /// Returns `+∞` for `s ≤ 0` when β > 0.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn marginal_utility(&self, e: EdgeId, s: f64) -> f64 {
        self.marginal_utility_at(e.index(), s)
    }

    /// [`marginal_utility`](Self::marginal_utility) by raw link index.
    pub(crate) fn marginal_utility_at(&self, e: usize, s: f64) -> f64 {
        let q = self.q[e];
        if self.beta == 0.0 {
            return q;
        }
        if s <= 0.0 {
            f64::INFINITY
        } else if self.beta == 1.0 {
            // powf(s, 1.0) is exactly s (IEEE 754 pow special case), so this
            // fast path is bit-identical — and it keeps libm's powf out of
            // the solvers' innermost line-search loops for the common
            // proportional (β = 1) objective.
            q / s
        } else {
            q / s.powf(self.beta)
        }
    }

    /// Second derivative `V''_e(s) = −βq / s^(β+1)` (used by line searches).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn second_derivative(&self, e: EdgeId, s: f64) -> f64 {
        self.second_derivative_at(e.index(), s)
    }

    /// [`second_derivative`](Self::second_derivative) by raw link index.
    pub(crate) fn second_derivative_at(&self, e: usize, s: f64) -> f64 {
        let q = self.q[e];
        if self.beta == 0.0 {
            return 0.0;
        }
        if s <= 0.0 {
            f64::NEG_INFINITY
        } else {
            -self.beta * q / s.powf(self.beta + 1.0)
        }
    }

    /// Inverse marginal utility `(V'_e)⁻¹(w) = (q/w)^(1/β)` — the unique
    /// spare capacity at which link `e`'s marginal utility equals `w`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range, if `w ≤ 0`, or if β = 0 (the linear
    /// objective has no inverse; use [`link_optimal_spare`] instead).
    ///
    /// [`link_optimal_spare`]: Self::link_optimal_spare
    pub fn inverse_marginal(&self, e: EdgeId, w: f64) -> f64 {
        assert!(w > 0.0, "weight must be positive, got {w}");
        assert!(
            self.beta > 0.0,
            "inverse marginal utility is undefined for beta = 0"
        );
        let q = self.q[e.index()];
        if self.beta == 1.0 {
            // Exact: powf(x, 1.0) = x.
            q / w
        } else {
            (q / w).powf(1.0 / self.beta)
        }
    }

    /// Solves the per-link problem `Link_e(V_e; w)` of Eq. (7):
    /// `max V_e(s) − w·s  s.t.  0 ≤ s ≤ cap`.
    ///
    /// This is the closed-form step of Algorithm 1. For β > 0 the solution
    /// is `min(cap, (q/w)^(1/β))`; for β = 0 it is `cap` when `w ≤ q`
    /// (every unit of spare capacity is profitable) and `0` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `w < 0`.
    pub fn link_optimal_spare(&self, e: EdgeId, w: f64, cap: f64) -> f64 {
        assert!(w >= 0.0, "weight must be non-negative, got {w}");
        let q = self.q[e.index()];
        if self.beta == 0.0 {
            return if w <= q { cap } else { 0.0 };
        }
        if w == 0.0 {
            return cap; // marginal utility is always positive
        }
        self.inverse_marginal(e, w).min(cap)
    }

    /// Aggregate utility `Σ_e V_e(s_e)` of a spare-capacity vector.
    ///
    /// # Panics
    ///
    /// Panics if `spare.len() != self.link_count()`.
    pub fn aggregate_utility(&self, spare: &[f64]) -> f64 {
        assert_eq!(spare.len(), self.q.len(), "spare vector length");
        spare
            .iter()
            .enumerate()
            .map(|(i, &s)| self.utility_at(i, s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: EdgeId = EdgeId::new(0);

    #[test]
    fn beta_one_is_log_utility() {
        let obj = Objective::proportional(1);
        assert_eq!(obj.utility(E, 1.0), 0.0);
        assert!((obj.utility(E, std::f64::consts::E) - 1.0).abs() < 1e-12);
        assert_eq!(obj.utility(E, 0.0), f64::NEG_INFINITY);
        assert_eq!(obj.marginal_utility(E, 2.0), 0.5);
        assert_eq!(obj.inverse_marginal(E, 0.5), 2.0);
    }

    #[test]
    fn beta_zero_is_linear() {
        let obj = Objective::min_hop(1);
        assert_eq!(obj.utility(E, 3.0), 3.0);
        assert_eq!(obj.marginal_utility(E, 0.1), 1.0);
        assert_eq!(obj.marginal_utility(E, 100.0), 1.0);
        // Link subproblem: all spare if cheap, none if expensive.
        assert_eq!(obj.link_optimal_spare(E, 0.5, 7.0), 7.0);
        assert_eq!(obj.link_optimal_spare(E, 1.5, 7.0), 0.0);
    }

    #[test]
    fn beta_two_matches_example2() {
        // q = c = 4, β = 2: V(s) = -4/s, V'(s) = 4/s², so a link with
        // f = 2 (s = 2) has weight c/(c-f)² = 1.
        let obj = Objective::mm1_delay(&[4.0]);
        assert!((obj.utility(E, 2.0) - (-2.0)).abs() < 1e-12);
        assert!((obj.marginal_utility(E, 2.0) - 1.0).abs() < 1e-12);
        assert!((obj.inverse_marginal(E, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_is_derivative_numerically() {
        for beta in [0.5, 1.0, 2.0, 5.0] {
            let obj = Objective::with_weights(vec![1.7], beta);
            for s in [0.3, 1.0, 2.5] {
                let h = 1e-6;
                let numeric = (obj.utility(E, s + h) - obj.utility(E, s - h)) / (2.0 * h);
                let analytic = obj.marginal_utility(E, s);
                assert!(
                    (numeric - analytic).abs() < 1e-4 * analytic.abs().max(1.0),
                    "beta={beta} s={s}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn inverse_marginal_inverts() {
        for beta in [0.5, 1.0, 3.0] {
            let obj = Objective::with_weights(vec![2.0], beta);
            for s in [0.2, 1.0, 4.0] {
                let w = obj.marginal_utility(E, s);
                assert!((obj.inverse_marginal(E, w) - s).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn link_subproblem_caps_at_capacity() {
        let obj = Objective::proportional(1);
        // V'(s) = 1/s = w at s = 1/w = 10; capacity 3 binds.
        assert_eq!(obj.link_optimal_spare(E, 0.1, 3.0), 3.0);
        // Interior optimum.
        assert_eq!(obj.link_optimal_spare(E, 1.0, 3.0), 1.0);
        // Zero weight: take everything.
        assert_eq!(obj.link_optimal_spare(E, 0.0, 3.0), 3.0);
    }

    #[test]
    fn concavity_forces_load_balance() {
        // V(s1) + V(s2) is maximised at equal split for concave V.
        for beta in [0.5, 1.0, 2.0] {
            let obj = Objective::uniform(beta, 2);
            let balanced = obj.aggregate_utility(&[1.0, 1.0]);
            let skewed = obj.aggregate_utility(&[1.5, 0.5]);
            assert!(balanced > skewed, "beta={beta}");
        }
    }

    #[test]
    fn utility_increases_with_beta_sensitivity() {
        // As β grows, the penalty for a small spare capacity grows much
        // faster (min-max behaviour in the limit).
        let small = 0.1;
        let o1 = Objective::uniform(1.0, 1);
        let o5 = Objective::uniform(5.0, 1);
        let ratio1 = o1.marginal_utility(E, small) / o1.marginal_utility(E, 1.0);
        let ratio5 = o5.marginal_utility(E, small) / o5.marginal_utility(E, 1.0);
        assert!(ratio5 > ratio1 * 100.0);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn negative_beta_rejected() {
        Objective::uniform(-1.0, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_q_rejected() {
        Objective::with_weights(vec![0.0], 1.0);
    }

    #[test]
    fn beta_below_one_finite_at_zero() {
        let obj = Objective::uniform(0.5, 1);
        assert_eq!(obj.utility(E, 0.0), 0.0);
        assert!(obj.utility(E, 1.0) > 0.0);
        assert_eq!(obj.marginal_utility(E, 0.0), f64::INFINITY);
    }
}
