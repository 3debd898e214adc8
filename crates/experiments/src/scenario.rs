//! Declarative scenario descriptions for the sweep harness.
//!
//! A [`Scenario`] pins down everything needed to reproduce one SPEF run —
//! topology, traffic model and seed, load scale, (q, β) objective, solver —
//! as plain serializable data, so a batch of results can name exactly what
//! produced each number. [`ScenarioGrid`] builds the cartesian product the
//! paper-style evaluations sweep over (topology × seed × load × β × solver).

use serde::{Deserialize, Serialize};
use serde::{Error as SerdeError, Value};
use spef_core::{
    ConvergenceCriteria, DualDecompConfig, FrankWolfeConfig, NemConfig, Objective, SpefConfig,
    TeSolverKind,
};
use spef_netsim::SimConfig;
use spef_topology::{gen, standard, Network, TrafficMatrix};

/// Which evaluation network a scenario runs on.
///
/// The named variants are the paper's networks (§V.B TABLE III plus the two
/// pedagogical examples) and the tiered scaling ladder;
/// [`TopologySpec::Random`] exposes the random generator directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// Fig. 1's 4-node example.
    Fig1,
    /// Fig. 4's 7-node, 13-link example.
    Fig4,
    /// The Abilene backbone (11 nodes, 28 links).
    Abilene,
    /// The CERNET2 backbone (20 nodes, 44 links).
    Cernet2,
    /// TABLE III's Hier50a (seeded 2-level GT-ITM-style hierarchy).
    Hier50a,
    /// TABLE III's Hier50b.
    Hier50b,
    /// TABLE III's Rand50a (seeded random network).
    Rand50a,
    /// TABLE III's Rand50b.
    Rand50b,
    /// TABLE III's Rand100.
    Rand100,
    /// A seeded 200-node 3-tier ISP-like network (8 cores × 4 aggregation
    /// × 5 edge routers) — the smallest rung of the scaling family.
    Hier200,
    /// A seeded 500-node 3-tier network (10 cores × 7 aggregation × 6
    /// edge routers).
    Hier500,
    /// A seeded 1000-node 3-tier network (10 cores × 9 aggregation × 10
    /// edge routers) — the thousand-node rung of the scaling family.
    Hier1000,
    /// A connected random network with exactly `links` directed links.
    Random {
        /// Node count.
        nodes: usize,
        /// Directed link count (must be even and connectable).
        links: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Materializes the network.
    pub fn build(&self) -> Network {
        match self {
            TopologySpec::Fig1 => standard::fig1(),
            TopologySpec::Fig4 => standard::fig4(),
            TopologySpec::Abilene => standard::abilene(),
            TopologySpec::Cernet2 => standard::cernet2(),
            TopologySpec::Hier50a => gen::hierarchical_network("Hier50a", 5, 10, 222, 0xA11CE),
            TopologySpec::Hier50b => gen::hierarchical_network("Hier50b", 5, 10, 152, 0xB0B),
            TopologySpec::Rand50a => gen::random_network("Rand50a", 50, 242, 0xC0FFEE),
            TopologySpec::Rand50b => gen::random_network("Rand50b", 50, 230, 0xD1CE),
            TopologySpec::Rand100 => gen::random_network("Rand100", 100, 392, 0xFEED),
            TopologySpec::Hier200 => gen::tiered_network("Tier200", 8, 4, 5, 0x7E2),
            TopologySpec::Hier500 => gen::tiered_network("Tier500", 10, 7, 6, 0x7E5),
            TopologySpec::Hier1000 => gen::tiered_network("Tier1000", 10, 9, 10, 0x7EA),
            TopologySpec::Random { nodes, links, seed } => {
                gen::random_network(&format!("Rand{nodes}"), *nodes, *links, *seed)
            }
        }
    }

    /// A short stable identifier used in scenario ids and CLI flags.
    pub fn id(&self) -> String {
        match self {
            TopologySpec::Fig1 => "fig1".into(),
            TopologySpec::Fig4 => "fig4".into(),
            TopologySpec::Abilene => "abilene".into(),
            TopologySpec::Cernet2 => "cernet2".into(),
            TopologySpec::Hier50a => "hier50a".into(),
            TopologySpec::Hier50b => "hier50b".into(),
            TopologySpec::Rand50a => "rand50a".into(),
            TopologySpec::Rand50b => "rand50b".into(),
            TopologySpec::Rand100 => "rand100".into(),
            TopologySpec::Hier200 => "hier200".into(),
            TopologySpec::Hier500 => "hier500".into(),
            TopologySpec::Hier1000 => "hier1000".into(),
            TopologySpec::Random { nodes, links, seed } => {
                format!("random-n{nodes}-m{links}-s{seed}")
            }
        }
    }

    /// Parses a CLI topology name (the named variants only).
    ///
    /// # Errors
    ///
    /// Returns a message listing the known names on failure.
    pub fn parse(name: &str) -> Result<TopologySpec, String> {
        match name {
            "fig1" => Ok(TopologySpec::Fig1),
            "fig4" => Ok(TopologySpec::Fig4),
            "abilene" => Ok(TopologySpec::Abilene),
            "cernet2" => Ok(TopologySpec::Cernet2),
            "hier50a" => Ok(TopologySpec::Hier50a),
            "hier50b" => Ok(TopologySpec::Hier50b),
            "rand50a" => Ok(TopologySpec::Rand50a),
            "rand50b" => Ok(TopologySpec::Rand50b),
            "rand100" => Ok(TopologySpec::Rand100),
            "hier200" => Ok(TopologySpec::Hier200),
            "hier500" => Ok(TopologySpec::Hier500),
            "hier1000" => Ok(TopologySpec::Hier1000),
            other => Err(format!(
                "unknown topology {other:?}; known: fig1, fig4, abilene, cernet2, \
                 hier50a, hier50b, rand50a, rand50b, rand100, hier200, hier500, \
                 hier1000"
            )),
        }
    }
}

// The offline serde derive handles fieldless enums only, so the
// data-carrying variant is encoded by hand: named networks serialize as
// their id string, `Random` as a single-key `random` object.
impl Serialize for TopologySpec {
    fn to_value(&self) -> Value {
        match self {
            TopologySpec::Random { nodes, links, seed } => Value::Object(vec![(
                "random".to_string(),
                Value::Object(vec![
                    ("nodes".to_string(), nodes.to_value()),
                    ("links".to_string(), links.to_value()),
                    ("seed".to_string(), seed.to_value()),
                ]),
            )]),
            named => Value::String(named.id()),
        }
    }
}

impl Deserialize for TopologySpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        if let Some(name) = value.as_str() {
            return TopologySpec::parse(name).map_err(SerdeError::custom);
        }
        let field = |outer: &Value, key: &str| -> Result<usize, SerdeError> {
            outer
                .get_field(key)
                .ok_or_else(|| SerdeError::custom(format!("missing field `{key}`")))
                .and_then(usize::from_value)
        };
        if let Some(body) = value.get_field("random") {
            return Ok(TopologySpec::Random {
                nodes: field(body, "nodes")?,
                links: field(body, "links")?,
                seed: u64::from_value(
                    body.get_field("seed")
                        .ok_or_else(|| SerdeError::custom("missing field `seed`"))?,
                )?,
            });
        }
        Err(SerdeError::custom(format!(
            "invalid topology spec: {value:?}"
        )))
    }
}

/// Which demand model generates the traffic matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// The Fortz–Thorup demand model (used for Abilene and the synthetic
    /// networks in §V.B).
    FortzThorup,
    /// The gravity model with σ = 1 (the stand-in for the paper's
    /// NetFlow-derived CERNET2 demands).
    Gravity,
}

/// Traffic matrix recipe: model, seed and target network load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Demand model.
    pub model: TrafficModel,
    /// Demand-generator seed.
    pub seed: u64,
    /// Target network load the matrix is scaled to (total demand ÷ total
    /// capacity, as in `TrafficMatrix::scaled_to_network_load`).
    pub load: f64,
}

impl TrafficSpec {
    /// Materializes the traffic matrix for `network`.
    pub fn build(&self, network: &Network) -> TrafficMatrix {
        let tm = match self.model {
            TrafficModel::FortzThorup => TrafficMatrix::fortz_thorup(network, self.seed),
            TrafficModel::Gravity => TrafficMatrix::gravity(network, 1.0, self.seed),
        };
        tm.scaled_to_network_load(network, self.load)
    }

    /// A short stable identifier used in scenario ids.
    pub fn id(&self) -> String {
        let model = match self.model {
            TrafficModel::FortzThorup => "ft",
            TrafficModel::Gravity => "grav",
        };
        // Round-trip float spelling: distinct loads always produce
        // distinct ids (ids are the join key of batch reports).
        format!("{model}-s{}-l{}", self.seed, id_float(self.load))
    }
}

/// Spells a float for a scenario id or key: the shortest round-trip `{}`
/// spelling when it is at most 24 characters, the longest `{:e}` spelling
/// of any `f64` (`-2.2250738585072014e-308`), else `{:e}`. Both spellings
/// round-trip exactly, so distinct values keep distinct ids; every value a
/// committed baseline uses keeps its `{}` spelling, and a huge or tiny one
/// (`1e300`) no longer spells out hundreds of digits.
fn id_float(x: f64) -> String {
    let plain = x.to_string();
    if plain.len() <= 24 {
        plain
    } else {
        format!("{x:e}")
    }
}

/// The (q, β) proportional load-balance objective of Eq. (4), with uniform
/// per-link weight `q`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveSpec {
    /// Uniform per-link objective weight (the paper's evaluations use 1).
    pub q: f64,
    /// The load-balance exponent β (β = 1 is proportional balance, β = 0
    /// the linear objective, large β approaches min-max).
    pub beta: f64,
}

impl ObjectiveSpec {
    /// Materializes the objective for a network with `links` links.
    pub fn build(&self, links: usize) -> Objective {
        Objective::with_weights(vec![self.q; links], self.beta)
    }
}

/// Which solver pipeline computes the routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverSpec {
    /// Frank–Wolfe at paper-fidelity budgets (the reference).
    FrankWolfe,
    /// Frank–Wolfe at reduced budgets (`FrankWolfeConfig::fast`) — the CI
    /// and smoke-sweep setting.
    FrankWolfeFast,
    /// Frank–Wolfe with *pinned* iteration counts (12 TE, 40 NEM): runs
    /// exactly that many iterations, with no tolerance stop. The `scale`
    /// family's setting — thousand-node sweeps finish in seconds.
    FrankWolfePinned,
    /// The paper's Algorithm 1 (distributed dual decomposition).
    DualDecomposition,
    /// The Fortz–Thorup OSPF weight local search
    /// ([`spef_baselines::FtOutcome`]) at a fixed sweep budget (weights
    /// 1..=20, 1000 evaluations, 1 restart, seed 0xF7). It produces an
    /// even-ECMP routing, not a SPEF pipeline, so the harness dispatches
    /// it directly — [`SolverSpec::build`] panics for this variant.
    FortzThorup,
}

impl SolverSpec {
    /// Materializes the full SPEF pipeline configuration.
    ///
    /// # Panics
    ///
    /// Panics for [`SolverSpec::FortzThorup`], which runs the
    /// `spef-baselines` weight search instead of a SPEF pipeline; the
    /// harness dispatches it before ever building a config.
    pub fn build(&self) -> SpefConfig {
        match self {
            SolverSpec::FortzThorup => {
                panic!("FortzThorup has no SpefConfig; the sweep harness dispatches it directly")
            }
            SolverSpec::FrankWolfe => SpefConfig::default(),
            SolverSpec::FrankWolfeFast => SpefConfig {
                solver: TeSolverKind::FrankWolfe(FrankWolfeConfig::fast()),
                nem: NemConfig {
                    convergence: ConvergenceCriteria::budget(1000),
                    ..NemConfig::default()
                },
                ..SpefConfig::default()
            },
            SolverSpec::FrankWolfePinned => SpefConfig {
                solver: TeSolverKind::FrankWolfe(FrankWolfeConfig {
                    convergence: ConvergenceCriteria::pinned(12),
                }),
                nem: NemConfig {
                    convergence: ConvergenceCriteria::pinned(40),
                    ..NemConfig::default()
                },
                ..SpefConfig::default()
            },
            SolverSpec::DualDecomposition => SpefConfig {
                solver: TeSolverKind::DualDecomposition(DualDecompConfig::default()),
                ..SpefConfig::default()
            },
        }
    }

    /// A short stable identifier used in scenario ids and CLI flags.
    pub fn id(&self) -> &'static str {
        match self {
            SolverSpec::FrankWolfe => "fw",
            SolverSpec::FrankWolfeFast => "fw-fast",
            SolverSpec::FrankWolfePinned => "fw-pinned",
            SolverSpec::DualDecomposition => "dd",
            SolverSpec::FortzThorup => "ft",
        }
    }

    /// Parses a CLI solver name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the known names on failure.
    pub fn parse(name: &str) -> Result<SolverSpec, String> {
        match name {
            "fw" => Ok(SolverSpec::FrankWolfe),
            "fw-fast" => Ok(SolverSpec::FrankWolfeFast),
            "fw-pinned" => Ok(SolverSpec::FrankWolfePinned),
            "dd" => Ok(SolverSpec::DualDecomposition),
            "ft" => Ok(SolverSpec::FortzThorup),
            other => Err(format!(
                "unknown solver {other:?}; known: fw, fw-fast, fw-pinned, dd, ft"
            )),
        }
    }
}

/// Packet-level simulation stage riding on a scenario: after the SPEF
/// pipeline solves the routing, the resulting FIB is driven through the
/// `spef-netsim` discrete-event simulator for `duration` simulated
/// seconds — the §V.D (Fig. 11) workload as a sweepable scenario family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSpec {
    /// Simulated seconds.
    pub duration: f64,
    /// Simulated seconds excluded from load/delay statistics.
    pub warmup: f64,
    /// Converts both capacity and demand units to bits/s (the sweep keeps
    /// the two symmetric; 1e6 = "one capacity unit is 1 Mb/s").
    pub unit_bps: f64,
    /// Simulator RNG seed (arrivals + forwarding choices).
    pub seed: u64,
}

impl SimSpec {
    /// Materializes the simulator configuration: the spec's fields, with
    /// [`SimConfig::default`] for the rest.
    pub fn config(&self) -> SimConfig {
        SimConfig {
            duration: self.duration,
            warmup: self.warmup,
            capacity_to_bps: self.unit_bps,
            demand_to_bps: self.unit_bps,
            seed: self.seed,
            ..SimConfig::default()
        }
    }

    /// A short stable identifier used in scenario ids.
    pub fn id(&self) -> String {
        format!(
            "sim-d{}w{}u{}s{}",
            id_float(self.duration),
            id_float(self.warmup),
            id_float(self.unit_bps),
            self.seed
        )
    }
}

/// Single-circuit failure stage riding on a scenario: after the SPEF
/// pipeline solves the intact topology, the duplex circuit with index
/// `circuit` (in [`Network::duplex_circuits`] order) is failed and the
/// scenario reports the OSPF / stale-SPEF / re-optimised-SPEF MLU triple,
/// the robust-weight worst case, and the weight-reconfiguration transient
/// — the §VI failure study as a sweepable, regression-gated family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureSpec {
    /// Index of the failed duplex circuit in
    /// [`Network::duplex_circuits`] order.
    pub circuit: u64,
    /// Candidate budget of the robust weight search
    /// ([`spef_baselines::RobustConfig::max_evaluations`]).
    pub robust_evals: u64,
    /// Scan-order seed of the robust weight search.
    pub robust_seed: u64,
}

impl FailureSpec {
    /// A short stable identifier used in scenario ids.
    pub fn id(&self) -> String {
        format!(
            "fail-c{}e{}s{}",
            self.circuit, self.robust_evals, self.robust_seed
        )
    }
}

/// One fully pinned-down run of the SPEF pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable human-readable id (topology + traffic + objective + solver,
    /// plus the sim stage when present).
    pub id: String,
    /// Network to route on.
    pub topology: TopologySpec,
    /// Demand recipe (model, seed, load scale).
    pub traffic: TrafficSpec,
    /// The (q, β) objective.
    pub objective: ObjectiveSpec,
    /// Solver pipeline.
    pub solver: SolverSpec,
    /// Optional packet-level simulation stage over the solved FIB.
    pub sim: Option<SimSpec>,
    /// Optional single-circuit failure stage after the intact solve.
    pub failure: Option<FailureSpec>,
    /// Scale-ablation stage: when set, the harness records deterministic
    /// size metrics (node/link/destination counts, FIB entries) and the
    /// peak routing-arena bytes after the solve.
    pub scale: bool,
}

impl Scenario {
    /// Creates a scenario with its canonical id (no simulation stage).
    pub fn new(
        topology: TopologySpec,
        traffic: TrafficSpec,
        objective: ObjectiveSpec,
        solver: SolverSpec,
    ) -> Scenario {
        let id = format!(
            "{}+{}+q{}b{}+{}",
            topology.id(),
            traffic.id(),
            id_float(objective.q),
            id_float(objective.beta),
            solver.id()
        );
        Scenario {
            id,
            topology,
            traffic,
            objective,
            solver,
            sim: None,
            failure: None,
            scale: false,
        }
    }

    /// Attaches a packet-level simulation stage, extending the id (ids
    /// stay the unique join key of batch reports).
    pub fn with_sim(mut self, sim: SimSpec) -> Scenario {
        self.id = format!("{}+{}", self.id, sim.id());
        self.sim = Some(sim);
        self
    }

    /// Attaches a single-circuit failure stage, extending the id (ids
    /// stay the unique join key of batch reports).
    pub fn with_failure(mut self, failure: FailureSpec) -> Scenario {
        self.id = format!("{}+{}", self.id, failure.id());
        self.failure = Some(failure);
        self
    }

    /// Attaches the scale stage, extending the id (ids stay the
    /// unique join key of batch reports).
    pub fn with_scale(mut self) -> Scenario {
        self.id = format!("{}+scale", self.id);
        self.scale = true;
        self
    }

    /// The chain key: topology, demand model and seed, objective and
    /// solver, but **not** the load scale or the sim and failure stages.
    /// Scenarios sharing a chain key differ only by a uniform demand
    /// rescale (and possibly a sim or failure stage), so they route over
    /// the same topology and one [`spef_core::TeWorkspace`]'s arenas fit
    /// them all without reallocating.
    pub fn chain_key(&self) -> String {
        format!(
            "{}+{:?}-s{}+q{}b{}+{}",
            self.topology.id(),
            self.traffic.model,
            self.traffic.seed,
            id_float(self.objective.q),
            id_float(self.objective.beta),
            self.solver.id()
        )
    }

    /// The solve key: the chain key plus the load — two scenarios with
    /// equal solve keys run the *identical* SPEF pipeline instance (they
    /// can differ only in the attached sim or failure stage), so one
    /// intact solve serves both.
    pub fn solve_key(&self) -> String {
        format!("{}+l{}", self.chain_key(), id_float(self.traffic.load))
    }
}

// Hand-written (like `TopologySpec`) because the optional `sim`, `failure`
// and `scale` fields must be *omitted* when absent: pre-PR 4 baseline
// reports have no `sim` key, pre-PR 7 reports have no `failure` key,
// pre-PR 8 reports have no `scale` key, and all must keep parsing;
// stage-less scenarios must serialize byte-identically to the committed
// earlier baselines.
impl Serialize for Scenario {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), self.id.to_value()),
            ("topology".to_string(), self.topology.to_value()),
            ("traffic".to_string(), self.traffic.to_value()),
            ("objective".to_string(), self.objective.to_value()),
            ("solver".to_string(), self.solver.to_value()),
        ];
        if let Some(sim) = &self.sim {
            fields.push(("sim".to_string(), sim.to_value()));
        }
        if let Some(failure) = &self.failure {
            fields.push(("failure".to_string(), failure.to_value()));
        }
        if self.scale {
            fields.push(("scale".to_string(), true.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Scenario {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let field = |key: &str| -> Result<&Value, SerdeError> {
            value
                .get_field(key)
                .ok_or_else(|| SerdeError::custom(format!("missing field `{key}` in Scenario")))
        };
        Ok(Scenario {
            id: String::from_value(field("id")?)?,
            topology: TopologySpec::from_value(field("topology")?)?,
            traffic: TrafficSpec::from_value(field("traffic")?)?,
            objective: ObjectiveSpec::from_value(field("objective")?)?,
            solver: SolverSpec::from_value(field("solver")?)?,
            sim: match value.get_field("sim") {
                None => None,
                Some(v) => Option::<SimSpec>::from_value(v)?,
            },
            failure: match value.get_field("failure") {
                None => None,
                Some(v) => Option::<FailureSpec>::from_value(v)?,
            },
            scale: match value.get_field("scale") {
                None => false,
                Some(v) => bool::from_value(v)?,
            },
        })
    }
}

/// Cartesian-product builder for scenario batches:
/// topologies × traffic seeds × loads × βs × solvers.
///
/// Traffic seeds are mixed with the grid's `base_seed`, so two grids with
/// different base seeds explore disjoint demand draws while each grid stays
/// fully deterministic.
///
/// # Example
///
/// ```
/// use spef_experiments::{ScenarioGrid, TopologySpec};
///
/// let scenarios = ScenarioGrid::new()
///     .topologies([TopologySpec::Fig1, TopologySpec::Abilene])
///     .seeds([1, 2])
///     .loads([0.15])
///     .betas([1.0])
///     .build();
/// assert_eq!(scenarios.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    topologies: Vec<TopologySpec>,
    traffic_model: TrafficModel,
    seeds: Vec<u64>,
    loads: Vec<f64>,
    q: f64,
    betas: Vec<f64>,
    solvers: Vec<SolverSpec>,
    base_seed: u64,
    /// Simulated durations (seconds) of the packet-level stage; empty
    /// means no simulation.
    sim_durations: Vec<f64>,
    sim_warmup_frac: f64,
    sim_unit_bps: f64,
    sim_seed: u64,
    /// Failed duplex-circuit indices of the failure stage; empty means no
    /// failure stage.
    failure_circuits: Vec<u64>,
    robust_evals: u64,
    robust_seed: u64,
    /// Whether every scenario carries the scale stage.
    scale: bool,
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        ScenarioGrid {
            topologies: vec![
                TopologySpec::Fig1,
                TopologySpec::Fig4,
                TopologySpec::Abilene,
            ],
            traffic_model: TrafficModel::FortzThorup,
            seeds: vec![1, 2],
            // Loads every default topology can route with headroom (Abilene
            // under Fortz-Thorup demands already reaches MLU ~0.86 at 0.15).
            loads: vec![0.1, 0.15],
            q: 1.0,
            betas: vec![1.0],
            solvers: vec![SolverSpec::FrankWolfeFast],
            base_seed: 0,
            sim_durations: Vec::new(),
            sim_warmup_frac: 0.1,
            sim_unit_bps: 1e6,
            sim_seed: 0x5117,
            failure_circuits: Vec::new(),
            robust_evals: 150,
            robust_seed: 0x0b57,
            scale: false,
        }
    }
}

impl ScenarioGrid {
    /// Starts from the default smoke grid (fig1/fig4/abilene × 2 seeds ×
    /// loads {0.1, 0.15} × β = 1 × fast Frank–Wolfe, no simulation).
    pub fn new() -> Self {
        Self::default()
    }

    /// The `sim` scenario family: the Fig. 11 networks (Fig. 4, Abilene,
    /// CERNET2) × loads {0.04, 0.08} × simulated durations {5 s, 20 s}
    /// under fast Frank–Wolfe — the packet-level workload as a sweepable,
    /// regression-gated grid. Load 0.08 puts CERNET2 near MLU 1, so the
    /// family spans clean delivery through near-saturation (the diverse
    /// load regimes the TE-comparison literature insists on).
    pub fn sim_family() -> Self {
        ScenarioGrid::new()
            .topologies([
                TopologySpec::Fig4,
                TopologySpec::Abilene,
                TopologySpec::Cernet2,
            ])
            .seeds([1])
            .loads([0.04, 0.08])
            .betas([1.0])
            .solvers([SolverSpec::FrankWolfeFast])
            .sim_durations([5.0, 20.0])
    }

    /// The `te` scenario family: the PR 2 regression grid — every built-in
    /// topology (Fig. 1, Fig. 4, Abilene, CERNET2) × seeds {1, 2, 3} ×
    /// load 0.15 — under fast Frank–Wolfe plus (since PR 9) the
    /// Fortz–Thorup weight search, no simulation stage. The CERNET2
    /// scenarios are intentionally infeasible at this load; their failures
    /// (solver infeasibility for Frank–Wolfe, an overloaded best routing
    /// for Fortz–Thorup) are part of the committed baseline and pin the
    /// failure-reporting path.
    pub fn te_family() -> Self {
        ScenarioGrid::new()
            .topologies([
                TopologySpec::Fig1,
                TopologySpec::Fig4,
                TopologySpec::Abilene,
                TopologySpec::Cernet2,
            ])
            .seeds([1, 2, 3])
            .loads([0.15])
            .betas([1.0])
            .solvers([SolverSpec::FrankWolfeFast, SolverSpec::FortzThorup])
    }

    /// The `failure` scenario family: Abilene (the one built-in backbone
    /// whose links are all duplex and bridge-free) × loads {0.04, 0.08} ×
    /// four failed circuits spread across the ring, under fast
    /// Frank–Wolfe. Each scenario reports the OSPF / SPEF-stale /
    /// SPEF-reopt MLU triple after the failure, the robust-weight worst
    /// case, and the weight-reconfiguration transient. Loads sit well
    /// inside every single-circuit feasibility boundary, so the family is
    /// failure-free and fully deterministic — the PR 7 regression grid.
    pub fn failure_family() -> Self {
        ScenarioGrid::new()
            .topologies([TopologySpec::Abilene])
            .seeds([1])
            .loads([0.04, 0.08])
            .betas([1.0])
            .solvers([SolverSpec::FrankWolfeFast])
            .failure_circuits([0, 3, 7, 11])
    }

    /// The `scale` scenario family: the tiered 200/500/1000-node networks
    /// plus a 200-node random control, at a low load every rung routes
    /// with headroom, under pinned Frank–Wolfe (results are a pure
    /// function of the instance — independent of sweep order and
    /// workspace history). Each scenario carries the scale stage,
    /// so the report pins node/link/destination counts and the SPEF and
    /// OSPF FIB entry totals while peak arena bytes stay outside the diff.
    pub fn scale_family() -> Self {
        ScenarioGrid::new()
            .topologies([
                TopologySpec::Hier200,
                TopologySpec::Hier500,
                TopologySpec::Hier1000,
                TopologySpec::Random {
                    nodes: 200,
                    links: 800,
                    seed: 0x5CA1E,
                },
            ])
            .seeds([1])
            .loads([0.04])
            .betas([1.0])
            .solvers([SolverSpec::FrankWolfePinned])
            .scale_stage(true)
    }

    /// Sets the topologies to sweep.
    pub fn topologies(mut self, topologies: impl IntoIterator<Item = TopologySpec>) -> Self {
        self.topologies = topologies.into_iter().collect();
        self
    }

    /// Sets the demand model (applied to every scenario).
    pub fn traffic_model(mut self, model: TrafficModel) -> Self {
        self.traffic_model = model;
        self
    }

    /// Sets the traffic seeds to sweep.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the network loads to sweep.
    pub fn loads(mut self, loads: impl IntoIterator<Item = f64>) -> Self {
        self.loads = loads.into_iter().collect();
        self
    }

    /// Sets the uniform objective weight q (applied to every scenario).
    pub fn q(mut self, q: f64) -> Self {
        self.q = q;
        self
    }

    /// Sets the β values to sweep.
    pub fn betas(mut self, betas: impl IntoIterator<Item = f64>) -> Self {
        self.betas = betas.into_iter().collect();
        self
    }

    /// Sets the solvers to sweep.
    pub fn solvers(mut self, solvers: impl IntoIterator<Item = SolverSpec>) -> Self {
        self.solvers = solvers.into_iter().collect();
        self
    }

    /// Sets the base seed mixed into every scenario's traffic seed.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Attaches a packet-level simulation stage to every scenario, one per
    /// duration (an extra grid dimension). An empty list removes the
    /// stage.
    pub fn sim_durations(mut self, durations: impl IntoIterator<Item = f64>) -> Self {
        self.sim_durations = durations.into_iter().collect();
        self
    }

    /// Sets the warmup fraction of each simulated duration (default 0.1).
    pub fn sim_warmup_frac(mut self, frac: f64) -> Self {
        self.sim_warmup_frac = frac;
        self
    }

    /// Sets the unit→bits/s conversion of the sim stage (default 1e6).
    pub fn sim_unit_bps(mut self, unit_bps: f64) -> Self {
        self.sim_unit_bps = unit_bps;
        self
    }

    /// Sets the simulator RNG seed (default 0x5117, the fig11 seed).
    pub fn sim_seed(mut self, seed: u64) -> Self {
        self.sim_seed = seed;
        self
    }

    /// Attaches a single-circuit failure stage to every scenario, one per
    /// circuit index (an extra grid dimension). An empty list removes the
    /// stage.
    pub fn failure_circuits(mut self, circuits: impl IntoIterator<Item = u64>) -> Self {
        self.failure_circuits = circuits.into_iter().collect();
        self
    }

    /// Sets the robust weight search's candidate budget (default 150).
    pub fn robust_evals(mut self, evals: u64) -> Self {
        self.robust_evals = evals;
        self
    }

    /// Sets the robust weight search's scan-order seed (default 0x0b57).
    pub fn robust_seed(mut self, seed: u64) -> Self {
        self.robust_seed = seed;
        self
    }

    /// Attaches (or removes) the scale stage on every scenario.
    pub fn scale_stage(mut self, scale: bool) -> Self {
        self.scale = scale;
        self
    }

    /// Derives the per-scenario traffic seed from the base seed and the
    /// grid seed (SplitMix64 finalizer, so nearby seeds decorrelate).
    fn scenario_seed(&self, seed: u64) -> u64 {
        if self.base_seed == 0 {
            return seed; // Grids without a base seed use their seeds as-is.
        }
        let mut z = self
            .base_seed
            .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Expands the grid into the full cartesian product, in deterministic
    /// order (topology-major, failure-circuit-minor).
    pub fn build(&self) -> Vec<Scenario> {
        let mut scenarios = Vec::new();
        let mut push = |base: Scenario| {
            let base = if self.scale { base.with_scale() } else { base };
            if self.failure_circuits.is_empty() {
                scenarios.push(base);
            } else {
                for &circuit in &self.failure_circuits {
                    scenarios.push(base.clone().with_failure(FailureSpec {
                        circuit,
                        robust_evals: self.robust_evals,
                        robust_seed: self.robust_seed,
                    }));
                }
            }
        };
        for topology in &self.topologies {
            for &seed in &self.seeds {
                for &load in &self.loads {
                    for &beta in &self.betas {
                        for &solver in &self.solvers {
                            let base = Scenario::new(
                                topology.clone(),
                                TrafficSpec {
                                    model: self.traffic_model,
                                    seed: self.scenario_seed(seed),
                                    load,
                                },
                                ObjectiveSpec { q: self.q, beta },
                                solver,
                            );
                            if self.sim_durations.is_empty() {
                                push(base);
                            } else {
                                for &duration in &self.sim_durations {
                                    push(base.clone().with_sim(SimSpec {
                                        duration,
                                        warmup: duration * self.sim_warmup_frac,
                                        unit_bps: self.sim_unit_bps,
                                        seed: self.sim_seed,
                                    }));
                                }
                            }
                        }
                    }
                }
            }
        }
        scenarios
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_a_cartesian_product_in_stable_order() {
        let grid = ScenarioGrid::new()
            .topologies([TopologySpec::Fig1, TopologySpec::Fig4])
            .seeds([1, 2, 3])
            .loads([0.1])
            .betas([0.0, 1.0])
            .solvers([SolverSpec::FrankWolfeFast]);
        let scenarios = grid.build();
        assert_eq!(scenarios.len(), 12); // 2 topologies x 3 seeds x 1 load x 2 betas
        assert_eq!(scenarios, grid.build(), "expansion is deterministic");
        assert!(scenarios[0].id.starts_with("fig1+ft-s1"));
    }

    #[test]
    fn scenario_ids_are_unique() {
        let scenarios = ScenarioGrid::new().build();
        let mut ids: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), scenarios.len());
    }

    #[test]
    fn base_seed_decorrelates_but_stays_deterministic() {
        let a = ScenarioGrid::new().base_seed(7).build();
        let b = ScenarioGrid::new().base_seed(7).build();
        let c = ScenarioGrid::new().base_seed(8).build();
        assert_eq!(a, b);
        assert_ne!(a[0].traffic.seed, c[0].traffic.seed);
    }

    #[test]
    fn topology_spec_roundtrips_through_serde() {
        for spec in [
            TopologySpec::Abilene,
            TopologySpec::Random {
                nodes: 30,
                links: 120,
                seed: 9,
            },
        ] {
            let v = spec.to_value();
            assert_eq!(TopologySpec::from_value(&v).unwrap(), spec);
        }
    }

    #[test]
    fn named_topologies_materialize() {
        assert_eq!(TopologySpec::Fig4.build().node_count(), 7);
        assert_eq!(TopologySpec::Abilene.build().link_count(), 28);
    }

    #[test]
    fn sim_durations_add_a_grid_dimension_with_unique_ids() {
        let grid = ScenarioGrid::new()
            .topologies([TopologySpec::Fig4])
            .seeds([1])
            .loads([0.1])
            .sim_durations([5.0, 20.0]);
        let scenarios = grid.build();
        assert_eq!(scenarios.len(), 2);
        assert!(scenarios.iter().all(|s| s.sim.is_some()));
        assert_ne!(scenarios[0].id, scenarios[1].id);
        assert!(scenarios[0].id.contains("+sim-d5"));
        let sim = scenarios[1].sim.as_ref().unwrap();
        assert_eq!(sim.duration, 20.0);
        assert!((sim.warmup - 2.0).abs() < 1e-12, "default 10% warmup");

        // Clearing the durations removes the stage again.
        let plain = grid.sim_durations([]).build();
        assert_eq!(plain.len(), 1);
        assert!(plain[0].sim.is_none());
    }

    /// `repro sweep --topologies fig4 --seeds 1 --loads 0.05 --solvers
    /// fw-fast --sim-durations 1e300 --sim-warmup-frac 0.5` once named its
    /// scenario with two 300-digit numbers. Huge and tiny values now spell
    /// as `{:e}`, which round-trips, while ordinary ones keep `{}`.
    #[test]
    fn ids_spell_huge_floats_compactly() {
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig4])
            .seeds([1])
            .loads([0.05])
            .solvers([SolverSpec::FrankWolfeFast])
            .sim_durations([1e300])
            .sim_warmup_frac(0.5)
            .build();
        let id = &scenarios[0].id;
        let longest_digit_run = id
            .split(|c: char| !c.is_ascii_digit())
            .map(str::len)
            .max()
            .unwrap_or(0);
        assert!(longest_digit_run <= 24, "{id}");
        assert!(id.ends_with("+sim-d1e300w5e299u1000000s20759"), "{id}");

        for x in [1e300, 5e-300, -f64::MIN_POSITIVE, f64::MAX, 0.15, 1e6] {
            let spelled = id_float(x);
            assert!(spelled.len() <= 24, "{spelled}");
            assert_eq!(spelled.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
        assert_eq!(id_float(0.15), "0.15");
        assert_eq!(id_float(1e6), "1000000");
        assert_eq!(id_float(1e300), "1e300");
    }

    #[test]
    fn sim_family_is_the_fig11_networks_under_diverse_loads() {
        let scenarios = ScenarioGrid::sim_family().build();
        // 3 topologies × 2 loads × 2 durations.
        assert_eq!(scenarios.len(), 12);
        assert!(scenarios.iter().all(|s| s.sim.is_some()));
        let mut ids: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn scenario_with_sim_roundtrips_and_simless_json_stays_identical() {
        let base = Scenario::new(
            TopologySpec::Fig4,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 1,
                load: 0.1,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        );
        // Sim-less scenarios serialize without a `sim` key at all — the
        // committed pre-PR 4 baselines' byte format.
        let v = base.to_value();
        assert!(v.get_field("sim").is_none());
        assert_eq!(Scenario::from_value(&v).unwrap(), base);

        let simful = base.with_sim(SimSpec {
            duration: 5.0,
            warmup: 0.5,
            unit_bps: 1e6,
            seed: 0x5117,
        });
        let back = Scenario::from_value(&simful.to_value()).unwrap();
        assert_eq!(back, simful);
        assert!(back.id.ends_with("+sim-d5w0.5u1000000s20759"));
    }

    #[test]
    fn failure_circuits_add_a_grid_dimension_with_unique_ids() {
        let grid = ScenarioGrid::new()
            .topologies([TopologySpec::Abilene])
            .seeds([1])
            .loads([0.05])
            .failure_circuits([0, 3]);
        let scenarios = grid.build();
        assert_eq!(scenarios.len(), 2);
        assert!(scenarios.iter().all(|s| s.failure.is_some()));
        assert_ne!(scenarios[0].id, scenarios[1].id);
        assert!(scenarios[0].id.ends_with("+fail-c0e150s2903"));
        // The failed circuit is not part of the solve key: every circuit
        // at one load shares the intact pipeline solve.
        assert_eq!(scenarios[0].solve_key(), scenarios[1].solve_key());

        // Clearing the circuits removes the stage again.
        let plain = grid.failure_circuits([]).build();
        assert_eq!(plain.len(), 1);
        assert!(plain[0].failure.is_none());
    }

    #[test]
    fn te_family_carries_frank_wolfe_and_ft_rows() {
        let scenarios = ScenarioGrid::te_family().build();
        // 4 topologies × 3 seeds × 1 load × 2 solvers.
        assert_eq!(scenarios.len(), 24);
        for pair in scenarios.chunks(2) {
            assert_eq!(pair[0].solver, SolverSpec::FrankWolfeFast);
            assert_eq!(pair[1].solver, SolverSpec::FortzThorup);
            assert!(pair[1].id.ends_with("+ft"));
        }
    }

    #[test]
    #[should_panic(expected = "FortzThorup has no SpefConfig")]
    fn ft_solver_spec_has_no_spef_config() {
        let _ = SolverSpec::FortzThorup.build();
    }

    #[test]
    fn failure_family_is_abilene_under_two_loads() {
        let scenarios = ScenarioGrid::failure_family().build();
        // 1 topology × 2 loads × 4 circuits.
        assert_eq!(scenarios.len(), 8);
        assert!(scenarios.iter().all(|s| s.failure.is_some()));
        let mut ids: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        // All circuits must exist on Abilene (14 duplex circuits).
        let circuits = TopologySpec::Abilene.build().duplex_circuits();
        assert!(scenarios
            .iter()
            .all(|s| (s.failure.as_ref().unwrap().circuit as usize) < circuits.len()));
    }

    #[test]
    fn scenario_with_failure_roundtrips_and_stageless_json_stays_identical() {
        let base = Scenario::new(
            TopologySpec::Abilene,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 1,
                load: 0.05,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        );
        // Failure-less scenarios serialize without a `failure` key at all —
        // the committed pre-PR 7 baselines' byte format.
        let v = base.to_value();
        assert!(v.get_field("failure").is_none());
        assert_eq!(Scenario::from_value(&v).unwrap(), base);

        let failing = base.with_failure(FailureSpec {
            circuit: 7,
            robust_evals: 150,
            robust_seed: 0x0b57,
        });
        let back = Scenario::from_value(&failing.to_value()).unwrap();
        assert_eq!(back, failing);
        assert!(back.id.ends_with("+fail-c7e150s2903"));
    }

    #[test]
    fn scale_family_is_the_tiered_ladder() {
        let scenarios = ScenarioGrid::scale_family().build();
        assert_eq!(scenarios.len(), 4);
        assert!(scenarios.iter().all(|s| s.scale));
        assert!(scenarios.iter().all(|s| s.id.ends_with("+scale")));
        assert!(scenarios[0].id.starts_with("hier200+"));
        assert!(scenarios
            .iter()
            .all(|s| s.solver == SolverSpec::FrankWolfePinned));
        // The thousand-node rung really is a thousand nodes.
        assert_eq!(TopologySpec::Hier1000.build().node_count(), 1000);
    }

    #[test]
    fn scenario_with_scale_roundtrips_and_stageless_json_stays_identical() {
        let base = Scenario::new(
            TopologySpec::Hier200,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 1,
                load: 0.04,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfePinned,
        );
        // Scale-less scenarios serialize without a `scale` key at all —
        // the committed pre-PR 8 baselines' byte format.
        let v = base.to_value();
        assert!(v.get_field("scale").is_none());
        assert_eq!(Scenario::from_value(&v).unwrap(), base);

        let scaled = base.with_scale();
        let back = Scenario::from_value(&scaled.to_value()).unwrap();
        assert_eq!(back, scaled);
        assert!(back.id.ends_with("+fw-pinned+scale"));
    }

    #[test]
    fn sim_spec_config_maps_units_and_seed() {
        let spec = SimSpec {
            duration: 7.0,
            warmup: 0.7,
            unit_bps: 1e9,
            seed: 42,
        };
        let cfg = spec.config();
        assert_eq!(cfg.duration, 7.0);
        assert_eq!(cfg.warmup, 0.7);
        assert_eq!(cfg.capacity_to_bps, 1e9);
        assert_eq!(cfg.demand_to_bps, 1e9);
        assert_eq!(cfg.seed, 42);
    }
}
