//! Demand scaling utilities: the paper "create\[s\] different test cases by
//! uniformly increasing the traffic demands until the maximal link
//! utilization almost reaches 100% with SPEF".

use spef_core::{
    ConvergenceCriteria, FrankWolfeConfig, Objective, SpefError, TeInstance, TeSolver,
};
use spef_topology::{Network, TrafficMatrix};

/// Finds (by bisection) the largest network load at which the traffic
/// matrix shape remains routable — the optimal MLU stays below 1. The
/// returned load is within `rel_tol` of the true feasibility boundary.
///
/// # Errors
///
/// Propagates solver errors other than infeasibility; returns
/// [`SpefError::Infeasible`] if even `lo_load` cannot be routed.
pub fn max_feasible_load(
    network: &Network,
    shape: &TrafficMatrix,
    rel_tol: f64,
) -> Result<f64, SpefError> {
    let obj = Objective::proportional(network.link_count());
    let fw = FrankWolfeConfig {
        convergence: ConvergenceCriteria::with_tolerance(300, 1e-6),
    };
    let feasible = |load: f64| -> Result<bool, SpefError> {
        let tm = shape.scaled_to_network_load(network, load);
        match fw.solve(TeInstance::new(network, &tm, &obj)) {
            Ok(_) => Ok(true),
            Err(SpefError::Infeasible) => Ok(false),
            Err(e) => Err(e),
        }
    };

    let mut lo = 1e-3;
    if !feasible(lo)? {
        return Err(SpefError::Infeasible);
    }
    let mut hi = lo;
    while feasible(hi)? {
        lo = hi;
        hi *= 2.0;
        if hi > 1.0 {
            break; // network load can never exceed 1 by definition of load
        }
    }
    while (hi - lo) / lo > rel_tol {
        let mid = 0.5 * (lo + hi);
        if feasible(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Builds an increasing series of `n` load points spanning
/// `[lo_frac, hi_frac] × max_feasible_load` — the x-axes of Fig. 10/13.
///
/// # Errors
///
/// Propagates [`max_feasible_load`] errors.
pub fn load_series(
    network: &Network,
    shape: &TrafficMatrix,
    n: usize,
    lo_frac: f64,
    hi_frac: f64,
) -> Result<Vec<f64>, SpefError> {
    assert!(n >= 2, "need at least two load points");
    assert!(0.0 < lo_frac && lo_frac < hi_frac && hi_frac <= 1.0);
    let lmax = max_feasible_load(network, shape, 0.02)?;
    Ok((0..n)
        .map(|i| {
            let f = lo_frac + (hi_frac - lo_frac) * i as f64 / (n - 1) as f64;
            lmax * f
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::standard;

    #[test]
    fn fig1_boundary_matches_cut_capacity() {
        // Fig. 1: demand shape (1→3: 1, 3→4: 0.9). The 3→4 link caps the
        // scale at factor 1/0.9 (its capacity is 1), i.e. total demand
        // 1.9/0.9 and network load (1.9/0.9)/6.
        let net = standard::fig1();
        let shape = standard::fig1_demands();
        let lmax = max_feasible_load(&net, &shape, 0.01).unwrap();
        let expected = (1.9 / 0.9) / 6.0;
        assert!(
            (lmax - expected).abs() < 0.05 * expected,
            "lmax {lmax} vs {expected}"
        );
    }

    #[test]
    fn load_series_is_increasing_and_feasible_shaped() {
        let net = standard::fig4();
        let shape = standard::fig4_demands();
        let series = load_series(&net, &shape, 5, 0.5, 0.95).unwrap();
        assert_eq!(series.len(), 5);
        for w in series.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Top of the series stays strictly inside the feasible region.
        let tm = shape.scaled_to_network_load(&net, *series.last().unwrap());
        let obj = Objective::proportional(net.link_count());
        assert!(FrankWolfeConfig::fast()
            .solve(TeInstance::new(&net, &tm, &obj))
            .is_ok());
    }
}
