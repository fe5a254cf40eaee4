//! Geometric multigrid hierarchy for the semi-implicit solver.
//!
//! # Why
//!
//! The backward-Euler substep solves `(C/h + G) T' = b`. Gauss–Seidel's
//! contraction on that system is governed by the ratio of the coupling
//! conductances to the capacitive diagonal; mesh refinement grows `G` and
//! shrinks `C`, so beyond a few tens of thousands of cells the sweeps stop
//! converging inside any reasonable budget (the 46k-cell bench rung pinned
//! at the 60-sweep cap). Multigrid restores mesh-size-robust convergence:
//! the sweeps only have to kill high-frequency error, and the smooth
//! remainder is solved on a hierarchy of coarser RC networks.
//!
//! # Coarsening
//!
//! Each level is built from the finer one by **composed pairwise
//! aggregation** along the strongest conductances: a greedy matching pass
//! pairs every cell with its strongest still-unmatched neighbour, and
//! [`MATCHING_PASSES`] such passes compose into aggregates of ~8 cells
//! that follow the mesher's tiling and the strongest couplings (a
//! structured semi-coarsening, discovered rather than hand-coded).
//!
//! With piecewise-constant restriction/prolongation the Galerkin coarse
//! operator of an RC network **is** the rediscretized coarse RC network:
//! coarse capacity = Σ fine capacities, coarse conductance between two
//! aggregates = Σ fine conductances crossing them, coarse convection =
//! Σ fine convection conductances (fine conductances interior to an
//! aggregate cancel out of the off-diagonals and the row sums alike). The
//! hierarchy's *topology* is therefore built once, and refreshing the
//! non-linear coefficients is a linear scatter-add pass per level.
//!
//! # Cycle
//!
//! Piecewise-constant aggregation systematically undersizes its coarse
//! corrections, so a stationary V/W-cycle over these spaces contracts
//! poorly (~0.7/cycle measured here). The fix is Krylov wrapping — the
//! K-cycle of Notay's aggregation-based multigrid: every coarse level's
//! solve is one cycle application (symmetric Gauss–Seidel smoothing around
//! the recursive correction, an exact dense Cholesky solve at the coarsest
//! ≤ [`COARSEST_MAX`] cells) re-scaled by an energy-norm line search, and
//! the fine level runs flexible CG with the cycle as its preconditioner.
//! The **fine** level stays in `solver.rs`, next to the CSR sweeps its
//! forward + backward Gauss–Seidel smoother shares with the plain path;
//! this module owns everything below it.

use crate::grid::{GridConfig, ThermalGrid};
use crate::props::{silicon_conductivity, COPPER_CONDUCTIVITY};
use std::sync::Arc;

/// Sentinel in `edge_map`: the finer edge lies inside one aggregate and
/// contributes to no coarse off-diagonal.
const INTERNAL: u32 = u32::MAX;

/// Coarse-level problems at or below this size are solved exactly by dense
/// Cholesky instead of growing the hierarchy further.
const COARSEST_MAX: usize = 80;

/// Hard ceiling on the coarsest level's size for the dense factorization.
/// Coarsening can stall above [`COARSEST_MAX`] on degenerate adjacency
/// (see [`MIN_COARSENING_RATIO`]); factoring a few hundred cells densely
/// is still fine, but a stall at many thousands must degrade to plain
/// Gauss–Seidel instead of an O(n³) factorization / O(n²) allocation.
const DENSE_MAX: usize = 512;

/// Coarsening must shrink a level to at most this fraction of its parent,
/// or the hierarchy stops there (a safety net for degenerate adjacency —
/// physical meshes coarsen by ~4× per level).
const MIN_COARSENING_RATIO: f64 = 0.75;

/// Pairwise-matching passes per level: three compose into aggregates of
/// ~8 cells. Calibrated on the 46k-cell bench rung: factor-8 coarsening
/// roughly halves the per-cycle coarse work of the classic factor-4
/// double-pairwise while the Krylov wrapping (see [`k_solve`]) absorbs the
/// slightly weaker per-cycle correction — the combination converges in the
/// same number of outer cycles at ~2/3 the cost.
const MATCHING_PASSES: usize = 3;

/// Gauss–Seidel sweeps before restricting a coarse level's residual.
const PRE_SWEEPS: usize = 1;

/// Gauss–Seidel sweeps after prolonging a coarse level's correction.
const POST_SWEEPS: usize = 1;

/// A weighted cell-adjacency graph, the input of one coarsening step.
struct Graph {
    n: usize,
    /// Undirected edges `(a, b)`.
    edges: Vec<(u32, u32)>,
    /// Conductance per edge (the matching strength).
    w: Vec<f64>,
}

/// The immutable topology of one coarse level: aggregation maps, CSR
/// adjacency, and the (static) aggregated capacities. Shared untouched
/// between every [`Multigrid`] instantiated from the same [`MgTopology`].
#[derive(Debug)]
pub(crate) struct LevelTopology {
    /// Cells at this level.
    n: usize,
    /// Finer-level cell → this level's aggregate.
    pub(crate) agg_of: Vec<u32>,
    /// Finer-level edge → this level's edge ([`INTERNAL`] when the fine
    /// edge lies inside one aggregate).
    edge_map: Vec<u32>,
    /// CSR adjacency: `offsets[i]..offsets[i+1]` spans `nbr`/`entry_edge`.
    offsets: Vec<u32>,
    nbr: Vec<u32>,
    entry_edge: Vec<u32>,
    /// Σ of the finer capacities per aggregate, J/K (static).
    pub(crate) capacity: Vec<f64>,
    /// Number of coarse edges at this level (sizes `LevelState::g_edge`).
    n_edges: usize,
}

impl LevelTopology {
    fn new(agg_of: Vec<u32>, edge_map: Vec<u32>, graph: &Graph, capacity: Vec<f64>) -> LevelTopology {
        let n = graph.n;
        let mut counts = vec![0u32; n + 1];
        for &(a, b) in &graph.edges {
            counts[a as usize + 1] += 1;
            counts[b as usize + 1] += 1;
        }
        let mut offsets = counts;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut nbr = vec![0u32; offsets[n] as usize];
        let mut entry_edge = vec![0u32; offsets[n] as usize];
        for (ei, &(a, b)) in graph.edges.iter().enumerate() {
            let (a, b) = (a as usize, b as usize);
            nbr[cursor[a] as usize] = b as u32;
            entry_edge[cursor[a] as usize] = ei as u32;
            cursor[a] += 1;
            nbr[cursor[b] as usize] = a as u32;
            entry_edge[cursor[b] as usize] = ei as u32;
            cursor[b] += 1;
        }
        LevelTopology { n, agg_of, edge_map, offsets, nbr, entry_edge, capacity, n_edges: graph.edges.len() }
    }
}

/// Per-run numeric state of one coarse level: refreshed conductances, the
/// per-`h` diagonals, and the cycle's iterate/scratch vectors.
#[derive(Clone, Debug)]
pub(crate) struct LevelState {
    /// Per-edge conductance, refreshed from the finer level.
    g_edge: Vec<f64>,
    /// Per-CSR-entry copy of `g_edge`.
    g_entry: Vec<f64>,
    /// Per-aggregate convection conductance, refreshed from the finer level.
    pub(crate) g_conv: Vec<f64>,
    /// `C/h + Σg + g_conv` per cell (valid for the hierarchy's `diag_h`).
    diag: Vec<f64>,
    /// Reciprocal of `diag`.
    inv_diag: Vec<f64>,
    /// This level's solution (the re-scaled cycle output).
    x: Vec<f64>,
    /// Right-hand side (the restricted residual from the finer level).
    b: Vec<f64>,
    /// Preconditioner output (one cycle applied to `b`).
    z: Vec<f64>,
    /// Cycle-internal residual scratch.
    r: Vec<f64>,
    /// `A·z` scratch for the line search.
    az: Vec<f64>,
}

impl LevelState {
    fn new(topo: &LevelTopology) -> LevelState {
        let n = topo.n;
        LevelState {
            g_edge: vec![0.0; topo.n_edges],
            g_entry: vec![0.0; topo.nbr.len()],
            g_conv: vec![0.0; n],
            diag: vec![0.0; n],
            inv_diag: vec![0.0; n],
            x: vec![0.0; n],
            b: vec![0.0; n],
            z: vec![0.0; n],
            r: vec![0.0; n],
            az: vec![0.0; n],
        }
    }

    /// `sweeps` natural-order Gauss–Seidel sweeps on `A z = b`.
    fn smooth_z(&mut self, t: &LevelTopology, sweeps: usize) {
        for _ in 0..sweeps {
            for i in 0..t.n {
                let mut num = self.b[i];
                for k in t.offsets[i] as usize..t.offsets[i + 1] as usize {
                    num += self.g_entry[k] * self.z[t.nbr[k] as usize];
                }
                self.z[i] = num * self.inv_diag[i];
            }
        }
    }

    /// `sweeps` *reverse*-order Gauss–Seidel sweeps on `A z = b`. A
    /// forward pre-sweep and a backward post-sweep make the level's cycle
    /// a symmetric operator (restriction is the transpose of
    /// prolongation, the coarsest solve is exact), which is what lets the
    /// outer conjugate-gradient acceleration work at full strength.
    fn smooth_z_rev(&mut self, t: &LevelTopology, sweeps: usize) {
        for _ in 0..sweeps {
            for i in (0..t.n).rev() {
                let mut num = self.b[i];
                for k in t.offsets[i] as usize..t.offsets[i + 1] as usize {
                    num += self.g_entry[k] * self.z[t.nbr[k] as usize];
                }
                self.z[i] = num * self.inv_diag[i];
            }
        }
    }

    /// `r = b - A z` (the cycle-internal residual).
    fn residual_z(&mut self, t: &LevelTopology) {
        for i in 0..t.n {
            let mut r = self.b[i] - self.diag[i] * self.z[i];
            for k in t.offsets[i] as usize..t.offsets[i + 1] as usize {
                r += self.g_entry[k] * self.z[t.nbr[k] as usize];
            }
            self.r[i] = r;
        }
    }

    /// `az = A z`, returning `(z·az, z·b)` for the line search in one pass.
    fn apply_z(&mut self, t: &LevelTopology) -> (f64, f64) {
        let mut z_az = 0.0;
        let mut z_b = 0.0;
        for i in 0..t.n {
            let mut s = self.diag[i] * self.z[i];
            for k in t.offsets[i] as usize..t.offsets[i + 1] as usize {
                s -= self.g_entry[k] * self.z[t.nbr[k] as usize];
            }
            self.az[i] = s;
            z_az += self.z[i] * s;
            z_b += self.z[i] * self.b[i];
        }
        (z_az, z_b)
    }
}

/// The shareable coarse-hierarchy artifact: every level's aggregation maps,
/// CSR adjacency, and aggregated capacities — everything about the
/// hierarchy that does not change as temperatures move. Build it once per
/// (mesh, operator) pair and hand an `Arc` of it to each
/// [`crate::ThermalModel`] via `ThermalModel::with_artifacts`; each model
/// then allocates only its own per-run [`LevelState`]s.
#[derive(Debug)]
pub struct MgTopology {
    /// Coarse levels, finest first. `levels[0].agg_of` maps **fine grid**
    /// cells; `levels[l].agg_of` maps `levels[l-1]` cells for `l > 0`.
    pub(crate) levels: Vec<LevelTopology>,
}

impl MgTopology {
    /// Builds the hierarchy topology from the grid's edges, using the
    /// given conductances as matching strengths. The weights only steer
    /// aggregation quality; correctness never depends on them.
    pub(crate) fn build(grid: &ThermalGrid, g_edge: &[f64]) -> MgTopology {
        let mut graph = Graph {
            n: grid.n_cells(),
            edges: grid.edges.iter().map(|e| (e.a as u32, e.b as u32)).collect(),
            w: g_edge.to_vec(),
        };
        let mut capacity: Vec<f64> = grid.capacity.clone();
        let mut levels = Vec::new();
        while graph.n > COARSEST_MAX {
            let Some((agg_of, coarse, edge_map)) = coarsen_level(&graph) else { break };
            let mut cap_c = vec![0.0; coarse.n];
            for (i, &a) in agg_of.iter().enumerate() {
                cap_c[a as usize] += capacity[i];
            }
            capacity = cap_c.clone();
            levels.push(LevelTopology::new(agg_of, edge_map, &coarse, cap_c));
            graph = coarse;
        }
        MgTopology { levels }
    }

    /// Builds the hierarchy a fresh model at ambient temperature would
    /// build lazily on its first multigrid substep: the matching strengths
    /// are the edge conductances evaluated at a uniform `cfg.ambient_k`
    /// field (a model's temperatures before its first substep), so a
    /// shared topology is identical to the per-model lazy build.
    #[must_use]
    pub fn for_grid(grid: &ThermalGrid, cfg: &GridConfig) -> MgTopology {
        let k_at_ambient = |cell: usize| {
            if grid.is_silicon(cell) {
                cfg.silicon_k_override.unwrap_or_else(|| silicon_conductivity(cfg.ambient_k))
            } else {
                COPPER_CONDUCTIVITY
            }
        };
        let g_edge: Vec<f64> = grid
            .edges
            .iter()
            .map(|e| 1.0 / (e.g_a / k_at_ambient(e.a) + e.g_b / k_at_ambient(e.b)))
            .collect();
        MgTopology::build(grid, &g_edge)
    }

    /// Whether the hierarchy is unusable — no coarse level at all (mesh
    /// too small to coarsen), or coarsening stalled while the coarsest
    /// level is still too large to factor densely. The solver falls back
    /// to plain Gauss–Seidel in either case.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        match self.levels.last() {
            None => true,
            Some(coarsest) => coarsest.n > DENSE_MAX,
        }
    }

    /// Number of coarse levels (excluding the fine grid).
    #[must_use]
    pub fn n_coarse_levels(&self) -> usize {
        self.levels.len()
    }
}

/// The coarse-level hierarchy plus the coarsest-level dense factorization:
/// an `Arc`-shared [`MgTopology`] and this solver instance's own per-level
/// numeric state.
#[derive(Clone, Debug)]
pub(crate) struct Multigrid {
    /// The shared immutable topology (aggregation maps, adjacency,
    /// capacities).
    topo: Arc<MgTopology>,
    /// Per-run numeric state, one entry per `topo.levels` entry.
    states: Vec<LevelState>,
    /// Lower-triangular Cholesky factor of the coarsest operator,
    /// row-major `n×n` (valid for `diag_h`).
    chol: Vec<f64>,
    /// Set when the fine conductances were refreshed after the last
    /// [`Multigrid::refresh_g`].
    pub(crate) stale_g: bool,
    /// Substep length the level diagonals (and `chol`) were built for
    /// (NaN = never).
    diag_h: f64,
}

impl Multigrid {
    /// Builds the hierarchy topology from the grid's edges (using the
    /// current conductances as matching strengths) and wraps it in a
    /// solver instance.
    pub(crate) fn build(grid: &ThermalGrid, g_edge: &[f64]) -> Multigrid {
        Multigrid::from_topology(Arc::new(MgTopology::build(grid, g_edge)))
    }

    /// Instantiates a solver on a shared topology: allocates this
    /// instance's per-level numeric state, everything else is the `Arc`.
    pub(crate) fn from_topology(topo: Arc<MgTopology>) -> Multigrid {
        let states = topo.levels.iter().map(LevelState::new).collect();
        Multigrid { topo, states, chol: Vec::new(), stale_g: true, diag_h: f64::NAN }
    }

    /// See [`MgTopology::is_degenerate`].
    pub(crate) fn is_degenerate(&self) -> bool {
        self.topo.is_degenerate()
    }

    /// Number of levels including the fine grid.
    pub(crate) fn n_levels(&self) -> usize {
        self.topo.levels.len() + 1
    }

    /// Propagates refreshed fine-grid conductances down the hierarchy
    /// (scatter-add per level) and invalidates the per-`h` diagonals.
    pub(crate) fn refresh_g(&mut self, fine_g_edge: &[f64], fine_g_conv: &[f64]) {
        for l in 0..self.states.len() {
            let topo = &self.topo.levels[l];
            let (done, rest) = self.states.split_at_mut(l);
            let (src_g, src_conv): (&[f64], &[f64]) = match done.last() {
                None => (fine_g_edge, fine_g_conv),
                Some(prev) => (&prev.g_edge, &prev.g_conv),
            };
            let lev = &mut rest[0];
            lev.g_edge.fill(0.0);
            for (e, &m) in topo.edge_map.iter().enumerate() {
                if m != INTERNAL {
                    lev.g_edge[m as usize] += src_g[e];
                }
            }
            for (k, g) in lev.g_entry.iter_mut().enumerate() {
                *g = lev.g_edge[topo.entry_edge[k] as usize];
            }
            lev.g_conv.fill(0.0);
            for (i, &a) in topo.agg_of.iter().enumerate() {
                lev.g_conv[a as usize] += src_conv[i];
            }
        }
        self.stale_g = false;
        self.diag_h = f64::NAN;
    }

    /// Whether the per-`h` diagonals and the coarsest factorization are
    /// valid for substep length `h`.
    pub(crate) fn diag_ready(&self, h: f64) -> bool {
        self.diag_h == h
    }

    /// Builds every level's `C/h`-augmented diagonal and factors the
    /// coarsest operator.
    pub(crate) fn build_diag(&mut self, h: f64) {
        for (topo, lev) in self.topo.levels.iter().zip(&mut self.states) {
            for i in 0..topo.n {
                let g_sum: f64 =
                    lev.g_entry[topo.offsets[i] as usize..topo.offsets[i + 1] as usize].iter().sum();
                let d = topo.capacity[i] / h + g_sum + lev.g_conv[i];
                lev.diag[i] = d;
                lev.inv_diag[i] = 1.0 / d;
            }
        }
        if let (Some(ct), Some(c)) = (self.topo.levels.last(), self.states.last()) {
            // Dense SPD assembly of the coarsest operator: diagonal plus
            // `-g` off-diagonals.
            let n = ct.n;
            let mut a = vec![0.0; n * n];
            for i in 0..n {
                a[i * n + i] = c.diag[i];
                for k in ct.offsets[i] as usize..ct.offsets[i + 1] as usize {
                    a[i * n + ct.nbr[k] as usize] = -c.g_entry[k];
                }
            }
            cholesky_in_place(&mut a, n);
            self.chol = a;
        }
        self.diag_h = h;
    }

    /// One coarse-grid correction of the fine iterate: restricts the fine
    /// residual `r`, solves the first coarse level by the K-cycle, and
    /// *assigns* the prolonged correction to `z` (the fine preconditioner
    /// starts from a zero guess, so no separate clear of `z` is needed).
    pub(crate) fn coarse_correction(&mut self, r: &[f64], z: &mut [f64]) {
        let t0 = &self.topo.levels[0];
        let l0 = &mut self.states[0];
        l0.b.fill(0.0);
        for (i, &ri) in r.iter().enumerate() {
            l0.b[t0.agg_of[i] as usize] += ri;
        }
        k_solve(&self.topo.levels, &mut self.states, &self.chol);
        let l0 = &self.states[0];
        for (i, t) in z.iter_mut().enumerate() {
            *t = l0.x[t0.agg_of[i] as usize];
        }
    }
}

/// Solves `levels[0]`'s system `A x ≈ b` (the K-cycle): exactly at the
/// coarsest level, otherwise by one cycle application re-scaled by an
/// energy-norm line search (a single flexible-CG step). The Krylov
/// re-scaling is what makes piecewise-constant aggregation competitive —
/// it stretches the systematically-undersized correction that a stationary
/// cycle would need many passes to accumulate.
fn k_solve(topo: &[LevelTopology], states: &mut [LevelState], chol: &[f64]) {
    if states.len() == 1 {
        let c = &mut states[0];
        cholesky_solve(chol, topo[0].n, &c.b, &mut c.x);
        return;
    }
    precond(topo, states, chol);
    let t = &topo[0];
    let cur = &mut states[0];
    let (z_az, z_b) = cur.apply_z(t);
    if z_az <= 0.0 {
        // Numerically degenerate (the correction vanished): take it as-is.
        cur.x.copy_from_slice(&cur.z);
        return;
    }
    let alpha = z_b / z_az;
    for i in 0..t.n {
        cur.x[i] = alpha * cur.z[i];
    }
}

/// One preconditioner application at `levels[0]`: `z ≈ A⁻¹ b` by
/// pre-smoothing, a recursive K-cycle correction, and post-smoothing.
fn precond(topo: &[LevelTopology], states: &mut [LevelState], chol: &[f64]) {
    let t = &topo[0];
    let (cur, rest) = states.split_at_mut(1);
    let cur = &mut cur[0];
    cur.z.fill(0.0);
    cur.smooth_z(t, PRE_SWEEPS);
    cur.residual_z(t);
    let next_topo = &topo[1];
    let next = &mut rest[0];
    next.b.fill(0.0);
    for (i, &ri) in cur.r.iter().enumerate() {
        next.b[next_topo.agg_of[i] as usize] += ri;
    }
    k_solve(&topo[1..], rest, chol);
    let next = &rest[0];
    for (i, z) in cur.z.iter_mut().enumerate() {
        *z += next.x[next_topo.agg_of[i] as usize];
    }
    cur.smooth_z_rev(t, POST_SWEEPS);
}

/// In-place dense Cholesky of the SPD matrix `a` (row-major `n×n`); the
/// lower triangle becomes `L` with `A = L·Lᵀ`.
fn cholesky_in_place(a: &mut [f64], n: usize) {
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        // The operator is strictly diagonally dominant with positive
        // diagonal, so d > 0 holds in exact arithmetic and comfortably in
        // floating point.
        let l_jj = d.sqrt();
        a[j * n + j] = l_jj;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / l_jj;
        }
    }
}

/// Solves `L·Lᵀ x = b` given the factor from [`cholesky_in_place`].
fn cholesky_solve(l: &[f64], n: usize, b: &[f64], x: &mut [f64]) {
    // Forward: L y = b (y stored in x).
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * x[k];
        }
        x[i] = s / l[i * n + i];
    }
    // Backward: Lᵀ x = y.
    for i in (0..n).rev() {
        let mut s = x[i];
        for k in i + 1..n {
            s -= l[k * n + i] * x[k];
        }
        x[i] = s / l[i * n + i];
    }
}

/// One greedy heavy-edge matching pass: every cell pairs with its strongest
/// still-unmatched neighbour (or stays a singleton). Returns the
/// fine-to-coarse map, the coarsened graph, and the fine-edge →
/// coarse-edge map.
fn coarsen_once(g: &Graph) -> (Vec<u32>, Graph, Vec<u32>) {
    // CSR adjacency of the pass's graph.
    let mut counts = vec![0u32; g.n + 1];
    for &(a, b) in &g.edges {
        counts[a as usize + 1] += 1;
        counts[b as usize + 1] += 1;
    }
    let mut offsets = counts;
    for i in 0..g.n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..g.n].to_vec();
    let mut nbr = vec![0u32; offsets[g.n] as usize];
    let mut entry_edge = vec![0u32; offsets[g.n] as usize];
    for (ei, &(a, b)) in g.edges.iter().enumerate() {
        let (a, b) = (a as usize, b as usize);
        nbr[cursor[a] as usize] = b as u32;
        entry_edge[cursor[a] as usize] = ei as u32;
        cursor[a] += 1;
        nbr[cursor[b] as usize] = a as u32;
        entry_edge[cursor[b] as usize] = ei as u32;
        cursor[b] += 1;
    }

    let mut agg = vec![u32::MAX; g.n];
    let mut next = 0u32;
    for i in 0..g.n {
        if agg[i] != u32::MAX {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for k in offsets[i] as usize..offsets[i + 1] as usize {
            let j = nbr[k];
            if agg[j as usize] == u32::MAX && j as usize != i {
                let w = g.w[entry_edge[k] as usize];
                if best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((j, w));
                }
            }
        }
        agg[i] = next;
        if let Some((j, _)) = best {
            agg[j as usize] = next;
        }
        next += 1;
    }
    let n_c = next as usize;

    // Coarse edges: fine edges crossing two aggregates, deduplicated by the
    // (min, max) aggregate pair via a sort.
    let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(g.edges.len());
    for (ei, &(a, b)) in g.edges.iter().enumerate() {
        let (ca, cb) = (agg[a as usize], agg[b as usize]);
        if ca != cb {
            let key = (u64::from(ca.min(cb)) << 32) | u64::from(ca.max(cb));
            keyed.push((key, ei as u32));
        }
    }
    keyed.sort_unstable();
    let mut edge_map = vec![INTERNAL; g.edges.len()];
    let mut edges_c: Vec<(u32, u32)> = Vec::new();
    let mut w_c: Vec<f64> = Vec::new();
    let mut last_key = u64::MAX;
    for &(key, ei) in &keyed {
        if key != last_key {
            edges_c.push(((key >> 32) as u32, (key & 0xffff_ffff) as u32));
            w_c.push(0.0);
            last_key = key;
        }
        let ci = edges_c.len() - 1;
        edge_map[ei as usize] = ci as u32;
        w_c[ci] += g.w[ei as usize];
    }

    (agg, Graph { n: n_c, edges: edges_c, w: w_c }, edge_map)
}

/// Double pairwise aggregation: two matching passes composed into aggregates
/// of ~4 cells (~4× coarsening per level). Returns `None` when the graph
/// refuses to coarsen (see [`MIN_COARSENING_RATIO`]).
fn coarsen_level(g: &Graph) -> Option<(Vec<u32>, Graph, Vec<u32>)> {
    let (mut agg, mut coarse, mut edge_map) = coarsen_once(g);
    for _ in 1..MATCHING_PASSES {
        let (agg2, c2, em2) = coarsen_once(&coarse);
        agg = agg.iter().map(|&a| agg2[a as usize]).collect();
        edge_map = edge_map
            .iter()
            .map(|&m| if m == INTERNAL { INTERNAL } else { em2[m as usize] })
            .collect();
        coarse = c2;
    }
    if coarse.n as f64 > MIN_COARSENING_RATIO * g.n as f64 {
        return None;
    }
    Some((agg, coarse, edge_map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::grid::GridConfig;

    fn graph_path(n: usize) -> Graph {
        Graph {
            n,
            edges: (0..n - 1).map(|i| (i as u32, i as u32 + 1)).collect(),
            w: vec![1.0; n - 1],
        }
    }

    #[test]
    fn pairwise_matching_halves_a_path() {
        let g = graph_path(16);
        let (agg, coarse, edge_map) = coarsen_once(&g);
        assert_eq!(coarse.n, 8, "perfect matching on an even path");
        // Every aggregate holds exactly two cells.
        let mut sizes = vec![0; coarse.n];
        for &a in &agg {
            sizes[a as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s == 2));
        // Alternate edges are internal; the rest map to distinct coarse
        // edges with the summed weight.
        let internal = edge_map.iter().filter(|&&m| m == INTERNAL).count();
        assert_eq!(internal, 8);
        assert_eq!(coarse.edges.len(), 7);
        assert!(coarse.w.iter().all(|&w| (w - 1.0).abs() < 1e-12));
    }

    #[test]
    fn composed_matching_coarsens_by_about_eight() {
        let g = graph_path(64);
        let (agg, coarse, _) = coarsen_level(&g).expect("a path coarsens");
        assert_eq!(coarse.n, 64 >> MATCHING_PASSES, "factor 2 per matching pass");
        assert_eq!(*agg.iter().max().unwrap() as usize + 1, coarse.n);
    }

    #[test]
    fn refuses_to_coarsen_an_edgeless_graph() {
        let g = Graph { n: 10, edges: Vec::new(), w: Vec::new() };
        assert!(coarsen_level(&g).is_none(), "singletons only: no progress");
    }

    #[test]
    fn cholesky_solves_a_small_spd_system() {
        // A = [[4,1,0],[1,3,1],[0,1,2]], b = A·[1,2,3].
        let mut a = vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0];
        let b = [6.0, 10.0, 8.0];
        cholesky_in_place(&mut a, 3);
        let mut x = [0.0; 3];
        cholesky_solve(&a, 3, &b, &mut x);
        for (got, expect) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - expect).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn hierarchy_conserves_capacity_and_convection() {
        let mut fp = Floorplan::new("mg", 4000.0, 4000.0);
        fp.add_component("hot", 500.0, 500.0, 1500.0, 1500.0, true);
        fp.add_component("cool", 2500.0, 2500.0, 1000.0, 1000.0, false);
        let cfg = GridConfig { hot_div: 8, default_div: 4, ..GridConfig::default() };
        let grid = ThermalGrid::build(&fp, &cfg).unwrap();
        // Plausible conductances: uniform weights are enough for topology.
        let g_edge = vec![1.0; grid.edges.len()];
        let mut g_conv = vec![0.0; grid.n_cells()];
        for &(cell, _, _) in &grid.convection {
            g_conv[cell] = 0.5;
        }
        let mut mg = Multigrid::build(&grid, &g_edge);
        assert!(!mg.is_degenerate());
        assert!(mg.n_levels() >= 2, "{} cells built {} levels", grid.n_cells(), mg.n_levels());
        mg.refresh_g(&g_edge, &g_conv);
        let fine_cap: f64 = grid.capacity.iter().sum();
        let fine_conv: f64 = g_conv.iter().sum();
        for (topo, lev) in mg.topo.levels.iter().zip(&mg.states) {
            let cap: f64 = topo.capacity.iter().sum();
            let conv: f64 = lev.g_conv.iter().sum();
            assert!((cap - fine_cap).abs() / fine_cap < 1e-12, "capacity conserved per level");
            assert!((conv - fine_conv).abs() / fine_conv < 1e-12, "convection conserved per level");
        }
        // Coarsest level small enough for the dense solve.
        assert!(mg.topo.levels.last().unwrap().n <= COARSEST_MAX);
        mg.build_diag(5e-4);
        assert!(mg.diag_ready(5e-4));
        assert!(!mg.chol.is_empty());
    }

    #[test]
    fn shared_topology_instances_are_independent_but_identical() {
        // Two solver instances on one Arc'd topology: same hierarchy shape,
        // separate numeric state; for_grid matches the lazy in-model build.
        let mut fp = Floorplan::new("shared", 4000.0, 4000.0);
        fp.add_component("hot", 500.0, 500.0, 2000.0, 2000.0, true);
        let cfg = GridConfig { hot_div: 10, default_div: 4, ..GridConfig::default() };
        let grid = ThermalGrid::build(&fp, &cfg).unwrap();
        let topo = Arc::new(MgTopology::for_grid(&grid, &cfg));
        assert!(!topo.is_degenerate());
        let mut a = Multigrid::from_topology(topo.clone());
        let b = Multigrid::from_topology(topo.clone());
        assert_eq!(a.n_levels(), b.n_levels());
        // Refreshing one instance leaves the other untouched.
        let g_edge = vec![2.0; grid.edges.len()];
        let g_conv = vec![0.0; grid.n_cells()];
        a.refresh_g(&g_edge, &g_conv);
        assert!(!a.stale_g);
        assert!(b.stale_g, "sibling instance state is independent");
        assert!(b.states[0].g_edge.iter().all(|&g| g == 0.0));
        // The ambient-weight builder reproduces what Multigrid::build would
        // do from the model's first refreshed conductances.
        let k = |cell: usize| {
            if grid.is_silicon(cell) { silicon_conductivity(cfg.ambient_k) } else { COPPER_CONDUCTIVITY }
        };
        let lazy_g: Vec<f64> =
            grid.edges.iter().map(|e| 1.0 / (e.g_a / k(e.a) + e.g_b / k(e.b))).collect();
        let lazy = Multigrid::build(&grid, &lazy_g);
        assert_eq!(lazy.n_levels(), a.n_levels());
        for (lt, st) in lazy.topo.levels.iter().zip(&topo.levels) {
            assert_eq!(lt.n, st.n);
            assert_eq!(lt.agg_of, st.agg_of, "identical aggregation under identical weights");
        }
    }
}
