//! Two-phase simplex on a flat, single-allocation tableau arena, with dual
//! extraction and a reusable workspace.
//!
//! Solves `min/max c'x` subject to `Ax {≤, =, ≥} b`, `x ≥ 0`.
//!
//! The solver returns both the primal solution and the **dual values** of
//! every constraint. Duals follow the Lagrangian convention for a
//! *minimisation* problem `L(x, y) = c'x − Σ_i y_i (a_i'x − b_i)`:
//!
//! * `y_i ≤ 0` for `≤` constraints,
//! * `y_i ≥ 0` for `≥` constraints,
//! * `y_i` free for `=` constraints,
//! * reduced costs `c − A'y ≥ 0`, with equality on the support of `x*`,
//! * strong duality `c'x* = b'y*`.
//!
//! For maximisation problems the duals are reported for the equivalent
//! negated minimisation, then negated back, so that `y_i ≥ 0` for binding
//! `≤` rows — the familiar "shadow price" convention.
//!
//! This is exactly what the TE experiments need: in the β = 0 load-balance
//! LP the optimal first weight of link `(i,j)` is
//! `w_ij = q_ij − y_capacity(i,j)` (Example 3 / TABLE I of the paper).
//!
//! Pivoting uses Dantzig's rule with an automatic switch to Bland's rule
//! after a stall threshold, which guarantees termination.
//!
//! # Engine layout
//!
//! All solver state lives in a [`SimplexWorkspace`]:
//!
//! * the tableau is one row-major `Vec<f64>` arena of `(m + 1) × stride`
//!   entries (`stride = cols + 1`); the trailing entry of each row is the
//!   rhs and the last row is the reduced-cost (objective) row;
//! * a pivot borrows the pivot row against the other rows with
//!   `split_at_mut` and caches the entering column in a scratch buffer, so
//!   the steady-state pivot path performs **zero heap allocations** (the
//!   legacy engine cloned a full row per pivot);
//! * a pivot **eliminates only over the pivot row's nonzero columns**: it
//!   records them into a workspace buffer in the same pass that scales the
//!   row, then updates each row with a nonzero entering-column factor at
//!   those columns only. The min-MLU and β = 0 LPs stay sparse while they
//!   pivot (on Abilene and CERNET2, 5–8 % of a pivot row's ~1 100 columns
//!   are nonzero), so this skips most of a full-row update's arithmetic;
//! * the arena is reserved with checked size arithmetic and
//!   `try_reserve_exact`: a tableau the allocator refuses is a
//!   [`SimplexError::TooLarge`], not an aborted process;
//! * structural columns that are identically zero in every constraint are
//!   **pruned** before the arena is built (a zero column can never enter
//!   the basis; if its minimisation cost is negative the program is
//!   unbounded, otherwise its optimal value is 0), which shrinks the
//!   per-pivot row stride on sparse models;
//! * [`LinearProgram::solve_with`] reuses a workspace's allocations across
//!   solves. The workspace holds arenas only: every solve rebuilds the
//!   tableau and runs both phases, so its answer does not depend on what
//!   the workspace solved before.
//!
//! `solve` and `solve_with` run the exact cold pivot sequence of the legacy
//! dense engine. For finite tableaux their solutions are also the same bit
//! for bit: skipping a zero pivot-row column changes other entries only in
//! the sign of a zero, which no pivoting decision can see, and `extract`
//! maps every zero (and all noise below 1e-11) to `+0.0`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a'x ≤ b`
    Le,
    /// `a'x = b`
    Eq,
    /// `a'x ≥ b`
    Ge,
}

/// Errors returned by [`LinearProgram::solve`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimplexError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// A coefficient, bound, or objective entry was NaN/infinite, or a
    /// variable index was out of range.
    InvalidModel(String),
    /// The dense tableau of `rows × cols` entries overflows `usize` or
    /// cannot be allocated.
    TooLarge {
        /// Tableau rows: the constraints plus the objective row.
        rows: usize,
        /// Tableau columns: the structural, slack and artificial columns
        /// plus the rhs.
        cols: usize,
    },
}

impl fmt::Display for SimplexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimplexError::Infeasible => write!(f, "linear program is infeasible"),
            SimplexError::Unbounded => write!(f, "linear program is unbounded"),
            SimplexError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            SimplexError::TooLarge { rows, cols } => {
                write!(f, "a {rows} × {cols} simplex tableau cannot be allocated")
            }
        }
    }
}

impl std::error::Error for SimplexError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sense {
    Minimize,
    Maximize,
}

#[derive(Debug, Clone)]
struct Row {
    coeffs: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
}

impl Row {
    /// The relation after rhs-sign normalisation (rows with a negative rhs
    /// are negated so every tableau rhs is non-negative).
    fn normalized_relation(&self) -> Relation {
        if self.rhs < 0.0 {
            match self.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            }
        } else {
            self.relation
        }
    }
}

/// Monotone source of program identity tokens; lets a [`Solution`] detect
/// a [`ConstraintId`] minted by a different program.
static NEXT_PROGRAM_TOKEN: AtomicU64 = AtomicU64::new(1);

/// A linear program over non-negative variables.
///
/// Build with [`LinearProgram::minimize`] or [`LinearProgram::maximize`],
/// set objective coefficients, add constraint rows, then [`solve`]
/// (or [`solve_with`] to reuse a [`SimplexWorkspace`]).
///
/// [`solve`]: LinearProgram::solve
/// [`solve_with`]: LinearProgram::solve_with
///
/// # Example
///
/// ```
/// use spef_lp::simplex::{LinearProgram, Relation};
///
/// # fn main() -> Result<(), spef_lp::simplex::SimplexError> {
/// // min x0 + 2 x1  s.t.  x0 + x1 >= 3,  x1 <= 1
/// let mut lp = LinearProgram::minimize(2);
/// lp.set_objective(0, 1.0);
/// lp.set_objective(1, 2.0);
/// let supply = lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 3.0);
/// lp.add_constraint(&[(1, 1.0)], Relation::Le, 1.0);
/// let sol = lp.solve()?;
/// assert!((sol.objective() - 3.0).abs() < 1e-9); // x = (3, 0)
/// assert!((sol.dual(supply) - 1.0).abs() < 1e-9); // marginal cost of supply
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinearProgram {
    sense: Sense,
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
    token: u64,
}

/// Identifier of a constraint row, used to query duals from a [`Solution`].
///
/// An id is tagged with the identity of the program that minted it, so
/// handing it to a [`Solution`] of a *different* program is a deterministic
/// panic instead of a silently wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId {
    index: usize,
    program: u64,
}

/// An optimal solution of a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct Solution {
    objective: f64,
    x: Vec<f64>,
    duals: Vec<f64>,
    program: u64,
}

/// Value equality over the numeric solution (objective, `x`, duals). The
/// owning-program tag is deliberately excluded so that numerically
/// identical solutions of independently built but identical programs still
/// compare equal.
impl PartialEq for Solution {
    fn eq(&self, other: &Self) -> bool {
        self.objective == other.objective && self.x == other.x && self.duals == other.duals
    }
}

impl Solution {
    /// Optimal objective value (in the original min/max sense).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Optimal value of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn value(&self, var: usize) -> f64 {
        self.x[var]
    }

    /// All variable values, indexed by variable.
    pub fn values(&self) -> &[f64] {
        &self.x
    }

    /// Dual value (shadow price) of constraint `c`.
    ///
    /// See the module docs for sign conventions.
    ///
    /// # Panics
    ///
    /// Panics if `c` refers to a constraint of a different program (the id
    /// carries its owning program's identity), or if `c` was added after
    /// this solution was computed.
    pub fn dual(&self, c: ConstraintId) -> f64 {
        assert_eq!(
            c.program, self.program,
            "ConstraintId belongs to a different LinearProgram"
        );
        self.duals[c.index]
    }

    /// All constraint duals, in order of `add_constraint` calls.
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }
}

const EPS: f64 = 1e-9;
const PIVOT_EPS: f64 = 1e-7;

impl LinearProgram {
    fn new(sense: Sense, num_vars: usize) -> Self {
        LinearProgram {
            sense,
            num_vars,
            objective: vec![0.0; num_vars],
            rows: Vec::new(),
            token: NEXT_PROGRAM_TOKEN.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Creates a minimisation problem over `num_vars` non-negative
    /// variables, all objective coefficients initially zero.
    pub fn minimize(num_vars: usize) -> Self {
        LinearProgram::new(Sense::Minimize, num_vars)
    }

    /// Creates a maximisation problem over `num_vars` non-negative
    /// variables, all objective coefficients initially zero.
    pub fn maximize(num_vars: usize) -> Self {
        LinearProgram::new(Sense::Maximize, num_vars)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        self.objective[var] = coeff;
    }

    /// Adds the constraint `Σ coeffs[k].1 · x_{coeffs[k].0}  relation  rhs`
    /// and returns its id. Repeated variable indices are summed.
    pub fn add_constraint(
        &mut self,
        coeffs: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> ConstraintId {
        let id = ConstraintId {
            index: self.rows.len(),
            program: self.token,
        };
        self.rows.push(Row {
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        });
        id
    }

    fn validate(&self) -> Result<(), SimplexError> {
        for (i, &c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(SimplexError::InvalidModel(format!(
                    "objective coefficient of x{i} is {c}"
                )));
            }
        }
        for (r, row) in self.rows.iter().enumerate() {
            if !row.rhs.is_finite() {
                return Err(SimplexError::InvalidModel(format!(
                    "rhs of constraint {r} is {}",
                    row.rhs
                )));
            }
            for &(v, a) in &row.coeffs {
                if v >= self.num_vars {
                    return Err(SimplexError::InvalidModel(format!(
                        "constraint {r} references variable x{v} but the program has {} variables",
                        self.num_vars
                    )));
                }
                if !a.is_finite() {
                    return Err(SimplexError::InvalidModel(format!(
                        "constraint {r} has coefficient {a} on x{v}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Solves the program with a fresh workspace.
    ///
    /// # Errors
    ///
    /// * [`SimplexError::Infeasible`] if no `x ≥ 0` satisfies the rows,
    /// * [`SimplexError::Unbounded`] if the objective is unbounded,
    /// * [`SimplexError::InvalidModel`] for NaN/infinite input or variable
    ///   indices out of range,
    /// * [`SimplexError::TooLarge`] if the dense tableau cannot be
    ///   allocated (the process does not abort).
    pub fn solve(&self) -> Result<Solution, SimplexError> {
        self.solve_with(&mut SimplexWorkspace::new())
    }

    /// Solves the program, reusing `ws`'s allocations.
    ///
    /// The pivot sequence (and hence the solution) is identical to
    /// [`solve`](LinearProgram::solve) whatever `ws` solved before; the
    /// only difference is that the tableau arena and all bookkeeping
    /// buffers are recycled, so repeated solves allocate nothing beyond the
    /// returned [`Solution`] once the workspace has grown to the largest
    /// problem size seen.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](LinearProgram::solve).
    pub fn solve_with(&self, ws: &mut SimplexWorkspace) -> Result<Solution, SimplexError> {
        self.validate()?;
        ws.prepare(self)?;
        ws.phase1()?;
        if ws.pruned_negative_cost {
            return Err(SimplexError::Unbounded);
        }
        ws.phase2()?;
        Ok(ws.extract(self))
    }
}

/// Reusable scratch state of the flat-arena simplex engine.
///
/// Owns every allocation the solver needs: the row-major tableau arena, the
/// basis bookkeeping and the cached entering-column buffer. See the module
/// docs for the layout.
///
/// A workspace holds arenas only and may be reused freely across programs
/// of different shapes; buffers grow to the largest problem seen and are
/// then recycled, and no state carries from one solve to the next.
#[derive(Debug, Clone, Default)]
pub struct SimplexWorkspace {
    /// `(m + 1) × stride` row-major arena; entry `[i * stride + cols]` is
    /// row `i`'s rhs and row `m` is the reduced-cost (objective) row.
    t: Vec<f64>,
    stride: usize,
    m: usize,
    cols: usize,
    /// Basic column of each constraint row.
    basis: Vec<usize>,
    /// For each original row: (added column index, +1.0 for slack/artificial
    /// or −1.0 for surplus) used to read off the dual.
    dual_col: Vec<(usize, f64)>,
    /// Rows that turned out linearly dependent (dual = 0, never pivoted).
    row_active: Vec<bool>,
    /// First artificial column (all columns ≥ this are artificial).
    art_start: usize,
    /// Minimisation costs of the active structural columns.
    costs: Vec<f64>,
    /// Number of structural columns kept after zero-column pruning.
    n_active: usize,
    /// Variable → arena column (`usize::MAX` for pruned columns).
    col_of_var: Vec<usize>,
    /// Arena structural column → variable.
    var_of_col: Vec<usize>,
    /// Cached entering column: per-row factors of the current pivot.
    col_buf: Vec<f64>,
    /// Columns where the current pivot row is nonzero, capacity `stride`.
    nz_cols: Vec<usize>,
    /// Whether each variable has a nonzero coefficient anywhere.
    col_used: Vec<bool>,
    /// A pruned column has a negative minimisation cost (⇒ unbounded once
    /// feasibility is established).
    pruned_negative_cost: bool,
}

impl SimplexWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        SimplexWorkspace::default()
    }

    /// Builds the initial tableau for `lp` into the arena, recycling every
    /// buffer: zero-column pruning, rhs-sign normalisation, slack/surplus
    /// and artificial columns, and the initial basis.
    ///
    /// Fails with [`SimplexError::TooLarge`] when the arena's size overflows
    /// or the allocator refuses it.
    fn prepare(&mut self, lp: &LinearProgram) -> Result<(), SimplexError> {
        let m = lp.rows.len();
        let n = lp.num_vars;
        self.m = m;

        // Pass 1: which structural columns carry any nonzero coefficient.
        // (A column whose entries cancel *exactly* within every row is kept:
        // it accumulates to all-zero in the arena and — like in the legacy
        // dense engine — can never be pivoted on, so keeping it only costs
        // one column of width.)
        self.col_used.clear();
        self.col_used.resize(n, false);
        for row in &lp.rows {
            for &(v, a) in &row.coeffs {
                if a != 0.0 {
                    self.col_used[v] = true;
                }
            }
        }

        // Column compaction: pruned columns get no arena slot.
        self.col_of_var.clear();
        self.col_of_var.resize(n, usize::MAX);
        self.var_of_col.clear();
        for v in 0..n {
            if self.col_used[v] {
                self.col_of_var[v] = self.var_of_col.len();
                self.var_of_col.push(v);
            }
        }
        let n_active = self.var_of_col.len();
        self.n_active = n_active;

        // Minimisation costs of the active columns; a pruned column with a
        // negative cost makes a feasible program unbounded (the variable
        // can grow without touching any constraint).
        self.costs.clear();
        match lp.sense {
            Sense::Minimize => self
                .costs
                .extend(self.var_of_col.iter().map(|&v| lp.objective[v])),
            Sense::Maximize => self
                .costs
                .extend(self.var_of_col.iter().map(|&v| -lp.objective[v])),
        }
        let sense_sign = if lp.sense == Sense::Maximize {
            -1.0
        } else {
            1.0
        };
        self.pruned_negative_cost = (0..n)
            .filter(|&v| !self.col_used[v])
            .any(|v| sense_sign * lp.objective[v] < -EPS);

        let n_slack = lp
            .rows
            .iter()
            .filter(|r| matches!(r.relation, Relation::Le | Relation::Ge))
            .count();
        let n_art = lp
            .rows
            .iter()
            .filter(|r| matches!(r.normalized_relation(), Relation::Ge | Relation::Eq))
            .count();
        let cols = n_active + n_slack + n_art;
        self.cols = cols;
        self.art_start = n_active + n_slack;
        self.stride = cols + 1;

        self.t.clear();
        match (m + 1).checked_mul(self.stride) {
            Some(len) if self.t.try_reserve_exact(len).is_ok() => self.t.resize(len, 0.0),
            _ => {
                return Err(SimplexError::TooLarge {
                    rows: m + 1,
                    cols: self.stride,
                });
            }
        }
        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        self.dual_col.clear();
        self.dual_col.resize(m, (usize::MAX, 1.0));
        self.row_active.clear();
        self.row_active.resize(m, true);
        self.col_buf.clear();
        self.col_buf.resize(m + 1, 0.0);
        self.nz_cols.clear();
        self.nz_cols.reserve(self.stride);

        for (i, row) in lp.rows.iter().enumerate() {
            let flip = row.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            let base = i * self.stride;
            for &(v, a) in &row.coeffs {
                let c = self.col_of_var[v];
                if c != usize::MAX {
                    self.t[base + c] += sign * a;
                }
            }
            self.t[base + cols] = if flip { -row.rhs } else { row.rhs };
        }

        let mut next_slack = n_active;
        let mut next_art = self.art_start;
        for (i, row) in lp.rows.iter().enumerate() {
            let base = i * self.stride;
            match row.normalized_relation() {
                Relation::Le => {
                    self.t[base + next_slack] = 1.0;
                    self.basis[i] = next_slack;
                    self.dual_col[i] = (next_slack, 1.0);
                    next_slack += 1;
                }
                Relation::Ge => {
                    self.t[base + next_slack] = -1.0;
                    self.dual_col[i] = (next_art, 1.0);
                    next_slack += 1;
                    self.t[base + next_art] = 1.0;
                    self.basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    self.t[base + next_art] = 1.0;
                    self.basis[i] = next_art;
                    self.dual_col[i] = (next_art, 1.0);
                    next_art += 1;
                }
            }
        }
        Ok(())
    }

    /// Phase 1: minimise the sum of artificial variables.
    fn phase1(&mut self) -> Result<(), SimplexError> {
        if self.art_start == self.cols {
            return Ok(()); // no artificials needed
        }
        // Objective row: sum of artificial rows, negated into reduced costs.
        // cost of artificial = 1, others 0. Reduced cost row r_j = c_j - sum
        // of rows where the basic variable is artificial.
        let stride = self.stride;
        let obj_base = self.m * stride;
        for j in 0..stride {
            self.t[obj_base + j] = 0.0;
        }
        for j in self.art_start..self.cols {
            self.t[obj_base + j] = 1.0;
        }
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                let (rows, obj) = self.t.split_at_mut(obj_base);
                let src = &rows[i * stride..(i + 1) * stride];
                for (dst, s) in obj.iter_mut().zip(src) {
                    *dst -= *s;
                }
            }
        }
        self.iterate(self.cols)?;
        let infeas = -self.t[obj_base + self.cols];
        if infeas > 1e-7 {
            return Err(SimplexError::Infeasible);
        }
        // Drive remaining basic artificials out of the basis.
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                let base = i * stride;
                let pivot_col = (0..self.art_start).find(|&j| self.t[base + j].abs() > PIVOT_EPS);
                match pivot_col {
                    Some(j) => self.pivot(i, j),
                    None => {
                        // Redundant row: all-zero over structural+slack.
                        self.row_active[i] = false;
                    }
                }
            }
        }
        Ok(())
    }

    /// Phase 2: minimise the true costs, artificial columns barred.
    fn phase2(&mut self) -> Result<(), SimplexError> {
        let stride = self.stride;
        let obj_base = self.m * stride;
        for j in 0..stride {
            self.t[obj_base + j] = 0.0;
        }
        for (j, &c) in self.costs.iter().enumerate() {
            self.t[obj_base + j] = c;
        }
        // Zero out reduced costs of basic columns.
        for i in 0..self.m {
            if !self.row_active[i] {
                continue;
            }
            let b = self.basis[i];
            let cb = if b < self.n_active {
                self.costs[b]
            } else {
                0.0
            };
            if cb != 0.0 {
                let (rows, obj) = self.t.split_at_mut(obj_base);
                let src = &rows[i * stride..(i + 1) * stride];
                for (dst, s) in obj.iter_mut().zip(src) {
                    *dst -= cb * *s;
                }
            }
        }
        self.iterate(self.art_start)
    }

    /// Runs simplex iterations over columns `0..allowed_cols`.
    fn iterate(&mut self, allowed_cols: usize) -> Result<(), SimplexError> {
        let stride = self.stride;
        let obj_base = self.m * stride;
        // Dantzig's rule, with Bland's rule after a stall threshold to
        // guarantee termination under degeneracy.
        let bland_after = 50 * (self.m + self.cols) + 1000;
        let hard_cap = 400 * (self.m + self.cols) + 20_000;
        for iter in 0..hard_cap {
            let bland = iter >= bland_after;
            let obj = &self.t[obj_base..obj_base + allowed_cols];
            let entering = if bland {
                obj.iter().position(|&r| r < -EPS)
            } else {
                let mut best = None;
                let mut best_val = -EPS;
                for (j, &r) in obj.iter().enumerate() {
                    if r < best_val {
                        best_val = r;
                        best = Some(j);
                    }
                }
                best
            };
            let Some(j) = entering else {
                return Ok(()); // optimal
            };

            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.m {
                if !self.row_active[i] {
                    continue;
                }
                let base = i * stride;
                let a = self.t[base + j];
                if a > PIVOT_EPS {
                    let ratio = self.t[base + self.cols] / a;
                    let better = match leave {
                        None => true,
                        Some(li) => {
                            ratio < best_ratio - EPS
                                || (bland
                                    && (ratio - best_ratio).abs() <= EPS
                                    && self.basis[i] < self.basis[li])
                        }
                    };
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(i) = leave else {
                return Err(SimplexError::Unbounded);
            };
            self.pivot(i, j);
        }
        // The Bland fallback makes cycling impossible; running into the cap
        // indicates a numerical pathology, which we surface as a model error.
        Err(SimplexError::InvalidModel(
            "simplex iteration cap exceeded (numerically ill-conditioned input)".to_string(),
        ))
    }

    /// Allocation-free pivot: caches the entering column, scales the pivot
    /// row in place while recording its nonzero columns, and eliminates it
    /// from every other row (including the objective row) at those columns
    /// only, through a `split_at_mut` borrow.
    ///
    /// Skipping a column whose scaled pivot-row entry is `±0.0` changes the
    /// other rows' entries there at most in the sign of a zero, which no
    /// comparison in the engine can see and [`extract`](Self::extract)
    /// canonicalises; every nonzero entry goes through the same operations
    /// as a full-row update.
    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let stride = self.stride;
        let piv = self.t[pivot_row * stride + pivot_col];
        debug_assert!(piv.abs() > 0.0, "zero pivot");
        let inv = 1.0 / piv;
        // Cache the entering column once: the factors survive the in-place
        // row updates and the strided reads happen in a single pass.
        for i in 0..=self.m {
            self.col_buf[i] = self.t[i * stride + pivot_col];
        }
        let (head, rest) = self.t.split_at_mut(pivot_row * stride);
        let (prow, tail) = rest.split_at_mut(stride);
        self.nz_cols.clear();
        for (j, x) in prow.iter_mut().enumerate() {
            *x *= inv;
            if *x != 0.0 {
                self.nz_cols.push(j);
            }
        }
        prow[pivot_col] = 1.0;
        let rows = head
            .chunks_exact_mut(stride)
            .chain(tail.chunks_exact_mut(stride));
        let factors = self.col_buf[..pivot_row]
            .iter()
            .chain(&self.col_buf[pivot_row + 1..]);
        for (row, &factor) in rows.zip(factors) {
            if factor.abs() > 0.0 {
                for &j in &self.nz_cols {
                    row[j] -= factor * prow[j];
                }
                row[pivot_col] = 0.0;
            }
        }
        self.basis[pivot_row] = pivot_col;
    }

    fn extract(&self, lp: &LinearProgram) -> Solution {
        let stride = self.stride;
        let mut x = vec![0.0; lp.num_vars];
        for i in 0..self.m {
            if self.row_active[i] && self.basis[i] < self.n_active {
                x[self.var_of_col[self.basis[i]]] = self.t[i * stride + self.cols];
            }
        }
        let mut objective: f64 = x.iter().zip(&lp.objective).map(|(xi, ci)| xi * ci).sum();
        // Duals from the reduced costs of the per-row added columns:
        // r_added = c_added − y_i · coeff = −y_i · coeff (added costs are 0).
        let obj_base = self.m * stride;
        let mut duals = vec![0.0; self.m];
        for (i, dual) in duals.iter_mut().enumerate() {
            if !self.row_active[i] {
                continue;
            }
            let (col, coeff) = self.dual_col[i];
            let mut y = -self.t[obj_base + col] / coeff;
            // Rows whose rhs was negated have flipped duals.
            if lp.rows[i].rhs < 0.0 {
                y = -y;
            }
            *dual = y;
        }
        if lp.sense == Sense::Maximize {
            for y in &mut duals {
                *y = -*y;
            }
        }
        // Clean tiny numerical noise. This also maps `-0.0` to `+0.0`, which
        // makes the answer bit-identical to a full-row elimination: `pivot`
        // skips the pivot row's zero columns, which changes other rows only
        // in the sign of a zero.
        for v in x.iter_mut().chain(duals.iter_mut()) {
            if v.abs() < 1e-11 {
                *v = 0.0;
            }
        }
        if objective.abs() < 1e-11 {
            objective = 0.0;
        }
        Solution {
            objective,
            x,
            duals,
            program: lp.token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn textbook_max_le() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2, 6).
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 5.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        let c2 = lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        let c3 = lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 36.0);
        assert_close(sol.value(0), 2.0);
        assert_close(sol.value(1), 6.0);
        // Shadow prices (max convention, y >= 0): 0, 1.5, 1.
        assert_close(sol.dual(c2), 1.5);
        assert_close(sol.dual(c3), 1.0);
    }

    #[test]
    fn min_with_ge_rows_two_phase() {
        // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6 -> optimum 9 at (3, 1).
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, 2.0);
        lp.set_objective(1, 3.0);
        let c1 = lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
        let c2 = lp.add_constraint(&[(0, 1.0), (1, 3.0)], Relation::Ge, 6.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 9.0);
        assert_close(sol.value(0), 3.0);
        assert_close(sol.value(1), 1.0);
        // Strong duality: b'y = 4*y1 + 6*y2 = 9 with y = (1.5, 0.5).
        assert_close(sol.dual(c1), 1.5);
        assert_close(sol.dual(c2), 0.5);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x = 2, y = 1.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(0), 2.0);
        assert_close(sol.value(1), 1.0);
        assert_close(sol.objective(), 3.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::minimize(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve(), Err(SimplexError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(&[(0, -1.0)], Relation::Le, 1.0);
        assert_eq!(lp.solve(), Err(SimplexError::Unbounded));
    }

    #[test]
    fn negative_rhs_normalised() {
        // x >= 2 expressed as -x <= -2.
        let mut lp = LinearProgram::minimize(1);
        lp.set_objective(0, 1.0);
        let c = lp.add_constraint(&[(0, -1.0)], Relation::Le, -2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(0), 2.0);
        // Same marginal as `x >= 2`, whose dual in the min convention is +1,
        // seen through the negated row: -x <= -2 has y <= 0 and
        // c - A'y = 1 - (-1)(y) => y = -1.
        assert_close(sol.dual(c), -1.0);
    }

    #[test]
    fn redundant_rows_get_zero_dual() {
        // Same constraint twice.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 2.0);
        // One of the two identical rows carries the dual, the other is
        // redundant; their sum must equal the marginal cost 1.
        assert_close(sol.duals()[0] + sol.duals()[1], 1.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate example (Beale's cycling LP without Bland
        // safeguards). The solver must terminate and find -0.05.
        let mut lp = LinearProgram::minimize(4);
        for (i, c) in [-0.75, 150.0, -0.02, 6.0].iter().enumerate() {
            lp.set_objective(i, *c);
        }
        lp.add_constraint(
            &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(&[(2, 1.0)], Relation::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), -0.05);
    }

    #[test]
    fn free_of_constraints_zero_or_unbounded() {
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 0.0);

        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        assert_eq!(lp.solve(), Err(SimplexError::Unbounded));
    }

    #[test]
    fn complementary_slackness_holds() {
        let mut lp = LinearProgram::maximize(3);
        lp.set_objective(0, 5.0);
        lp.set_objective(1, 4.0);
        lp.set_objective(2, 3.0);
        let rows = [
            lp.add_constraint(&[(0, 2.0), (1, 3.0), (2, 1.0)], Relation::Le, 5.0),
            lp.add_constraint(&[(0, 4.0), (1, 1.0), (2, 2.0)], Relation::Le, 11.0),
            lp.add_constraint(&[(0, 3.0), (1, 4.0), (2, 2.0)], Relation::Le, 8.0),
        ];
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 13.0);
        // Strong duality.
        let dual_obj: f64 = [5.0, 11.0, 8.0]
            .iter()
            .zip(rows.iter())
            .map(|(b, &c)| b * sol.dual(c))
            .sum();
        assert_close(dual_obj, 13.0);
    }

    #[test]
    fn invalid_model_rejected() {
        let mut lp = LinearProgram::minimize(1);
        lp.set_objective(0, f64::NAN);
        assert!(matches!(lp.solve(), Err(SimplexError::InvalidModel(_))));

        let mut lp = LinearProgram::minimize(1);
        lp.add_constraint(&[(5, 1.0)], Relation::Le, 1.0);
        assert!(matches!(lp.solve(), Err(SimplexError::InvalidModel(_))));
    }

    #[test]
    fn min_cost_routing_shape() {
        // Tiny routing LP: one unit from s to t over two parallel "paths"
        // with costs 1 and 3, the cheap one capped at 0.4.
        // Variables: x0 = cheap path, x1 = expensive path.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 3.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        let cap = lp.add_constraint(&[(0, 1.0)], Relation::Le, 0.4);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(0), 0.4);
        assert_close(sol.value(1), 0.6);
        assert_close(sol.objective(), 0.4 + 1.8);
        // Capacity shadow price: relaxing the cap by 1 saves cost 2
        // (min convention: y <= 0).
        assert_close(sol.dual(cap), -2.0);
    }

    #[test]
    fn workspace_reuse_is_equivalent_across_shapes() {
        // One workspace solves programs of different shapes back to back;
        // each result must match a fresh-workspace solve exactly.
        let mut ws = SimplexWorkspace::new();

        let mut a = LinearProgram::maximize(2);
        a.set_objective(0, 3.0);
        a.set_objective(1, 5.0);
        a.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        a.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        a.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);

        let mut b = LinearProgram::minimize(3);
        b.set_objective(0, 2.0);
        b.set_objective(1, 3.0);
        b.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Ge, 4.0);
        b.add_constraint(&[(0, 1.0), (1, 3.0)], Relation::Eq, 6.0);

        for lp in [&a, &b, &a, &b] {
            let shared = lp.solve_with(&mut ws).unwrap();
            let fresh = lp.solve().unwrap();
            assert_eq!(shared, fresh);
        }
    }

    #[test]
    fn resolve_falls_back_on_structure_change() {
        let mut a = LinearProgram::minimize(2);
        a.set_objective(0, 1.0);
        a.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        let mut ws = SimplexWorkspace::new();
        assert_eq!(a.solve_with(&mut ws), a.solve());

        // Same variable count, different rows: the reused workspace must
        // carry nothing of `a` into the solve of `b`.
        let mut b = LinearProgram::minimize(2);
        b.set_objective(0, 2.0);
        b.set_objective(1, 1.0);
        b.add_constraint(&[(0, 1.0)], Relation::Le, 5.0);
        b.add_constraint(&[(1, 1.0)], Relation::Ge, 3.0);
        let reused = b.solve_with(&mut ws).unwrap();
        assert_eq!(reused, b.solve().unwrap());
    }

    #[test]
    fn zero_columns_are_pruned_not_mispriced() {
        // x1 and x3 never appear in a constraint (pruned); x2 has entries
        // that cancel exactly within one row (kept as an all-zero column
        // that can never be pivoted on). All must come back 0 with the
        // constrained optimum unchanged.
        let mut lp = LinearProgram::minimize(4);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 2.0);
        lp.set_objective(2, 0.5);
        lp.set_objective(3, 0.0);
        let c = lp.add_constraint(&[(0, 1.0), (2, 1.0), (2, -1.0)], Relation::Ge, 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective(), 3.0);
        assert_close(sol.value(0), 3.0);
        assert_close(sol.value(1), 0.0);
        assert_close(sol.value(2), 0.0);
        assert_close(sol.value(3), 0.0);
        assert_close(sol.dual(c), 1.0);
    }

    #[test]
    fn pruned_negative_cost_is_unbounded_only_when_feasible() {
        // A free negative-cost variable makes a feasible min unbounded...
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, -1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        assert_eq!(lp.solve(), Err(SimplexError::Unbounded));

        // ...but infeasibility still takes precedence.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(1, -1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve(), Err(SimplexError::Infeasible));
    }

    #[test]
    fn reuse_reports_infeasible_and_recovers() {
        let build = |rhs: f64| {
            let mut lp = LinearProgram::minimize(1);
            lp.set_objective(0, 1.0);
            lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
            lp.add_constraint(&[(0, 1.0)], Relation::Ge, rhs);
            lp
        };
        let mut ws = SimplexWorkspace::new();
        let first = build(0.5);
        assert_eq!(first.solve_with(&mut ws), first.solve());
        assert_eq!(
            build(2.0).solve_with(&mut ws),
            Err(SimplexError::Infeasible)
        );
        // A feasible follow-up solves as on a fresh workspace.
        let next = build(0.25);
        let sol = next.solve_with(&mut ws);
        assert_eq!(sol, next.solve());
        assert_close(sol.unwrap().objective(), 0.25);
    }

    #[test]
    fn oversized_tableau_is_an_error_and_the_workspace_recovers() {
        // 300 000 rows on one variable: a 300 001 × 300 002 arena of 720 GB,
        // far beyond a test host's memory, which Linux's default overcommit
        // heuristic refuses.
        let rows = 300_000;
        let mut huge = LinearProgram::maximize(1);
        huge.set_objective(0, 1.0);
        for i in 0..rows {
            huge.add_constraint(&[(0, 1.0)], Relation::Le, 1.0 + i as f64);
        }
        let mut ws = SimplexWorkspace::new();
        let err = SimplexError::TooLarge {
            rows: rows + 1,
            cols: rows + 2,
        };
        assert_eq!(huge.solve_with(&mut ws), Err(err));

        let mut small = LinearProgram::minimize(2);
        small.set_objective(0, 2.0);
        small.set_objective(1, 3.0);
        small.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
        small.add_constraint(&[(0, 1.0), (1, 3.0)], Relation::Ge, 6.0);
        assert_eq!(small.solve_with(&mut ws), small.solve());
    }

    #[test]
    #[should_panic(expected = "different LinearProgram")]
    fn foreign_constraint_id_panics() {
        let mut small = LinearProgram::minimize(1);
        small.set_objective(0, 1.0);
        let foreign = small.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);

        let mut big = LinearProgram::minimize(2);
        big.set_objective(0, 1.0);
        big.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        big.add_constraint(&[(1, 1.0)], Relation::Ge, 1.0);
        let sol = big.solve().unwrap();
        // `foreign.index` is in range for `big`, so without the program tag
        // this would silently return `big`'s first dual.
        let _ = sol.dual(foreign);
    }

    #[test]
    fn clones_share_program_identity() {
        let mut lp = LinearProgram::minimize(1);
        lp.set_objective(0, 1.0);
        let c = lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        let clone = lp.clone();
        let sol = clone.solve().unwrap();
        assert_close(sol.dual(c), 1.0);
    }
}
