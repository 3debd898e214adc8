//! The weight-search scaffolding shared by the Fortz–Thorup and robust
//! baselines: their rounded-InvCap start point and their first-improvement
//! scan.

use rand::rngs::StdRng;
use rand::Rng;
use spef_core::SpefError;
use spef_topology::Network;

use crate::ospf;

/// Fisher–Yates shuffle (the offline `rand` has no `SliceRandom` for this
/// version's API surface): the scan's seeded link order.
fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
}

/// InvCap weights rounded to integers in `1..=max_weight`: the first start
/// point of both weight searches.
pub(crate) fn rounded_invcap(network: &Network, max_weight: u32) -> Vec<f64> {
    ospf::invcap_weights(network)
        .iter()
        .map(|w| w.round().clamp(1.0, max_weight as f64))
        .collect()
}

/// A first-improvement scan over integer weights with an evaluation
/// budget that any number of scans (one per start point) share.
///
/// One [`run`](Self::run) rescans the links in seeded-random order, tries
/// every candidate weight `1..=max_weight` per link and keeps the first
/// candidate that lowers the cost by more than `1e-9`. It stops when a
/// full rescan improves nothing or the budget runs out. The trajectory is
/// a pure function of the start point, the RNG state and the cost values:
/// two cost functions that agree bit for bit walk the same path.
pub(crate) struct WeightScan {
    max_weight: u32,
    max_evaluations: usize,
    /// Cost evaluations so far, over every run.
    pub(crate) evaluations: usize,
    /// The cost of every accepted improvement, in order.
    pub(crate) trace: Vec<f64>,
}

impl WeightScan {
    /// A scan with nothing spent yet.
    pub(crate) fn new(max_weight: u32, max_evaluations: usize) -> WeightScan {
        WeightScan {
            max_weight,
            max_evaluations,
            evaluations: 0,
            trace: Vec::new(),
        }
    }

    /// `true` once the evaluation budget is spent.
    pub(crate) fn exhausted(&self) -> bool {
        self.evaluations >= self.max_evaluations
    }

    /// Scans from the start point in `weights`, leaving the end point
    /// there. `cost_of` returns a candidate's cost and an extra value the
    /// caller wants back for the end point; the start point's evaluation
    /// is counted too. Returns the end point's cost and extra value.
    ///
    /// # Errors
    ///
    /// The first error `cost_of` returns.
    pub(crate) fn run<X>(
        &mut self,
        weights: &mut [f64],
        rng: &mut StdRng,
        mut cost_of: impl FnMut(&[f64]) -> Result<(f64, X), SpefError>,
    ) -> Result<(f64, X), SpefError> {
        let (mut cost, mut extra) = cost_of(weights)?;
        self.evaluations += 1;
        let mut improved = true;
        while improved && !self.exhausted() {
            improved = false;
            let mut order: Vec<usize> = (0..weights.len()).collect();
            shuffle(&mut order, rng);
            'links: for e in order {
                let original = weights[e];
                for cand in 1..=self.max_weight {
                    let cand = cand as f64;
                    if cand == original {
                        continue;
                    }
                    weights[e] = cand;
                    let (c_new, x_new) = cost_of(weights)?;
                    self.evaluations += 1;
                    if c_new < cost - 1e-9 {
                        cost = c_new;
                        extra = x_new;
                        improved = true;
                        self.trace.push(cost);
                        continue 'links; // keep the improvement, next link
                    }
                    weights[e] = original;
                    if self.exhausted() {
                        break 'links;
                    }
                }
            }
        }
        Ok((cost, extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shuffle_is_a_permutation_and_seed_deterministic() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b: Vec<usize> = (0..50).collect();
        shuffle(&mut a, &mut StdRng::seed_from_u64(9));
        shuffle(&mut b, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted, "50 elements seeded at 9 should move");
    }
}
