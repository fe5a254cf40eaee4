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
//! The **fine** level's cycle stays in `solver.rs`, next to the fine
//! grid's arrays; this module owns everything below it.
//!
//! # Kernels
//!
//! Each level's rows are sorted and split at the diagonal
//! ([`crate::csr::SortedRows`]), and no pass walks a half-row whose sum an
//! earlier pass already formed. The pre-smoother starts from zero, so it
//! walks only lower halves, and its residual is exactly the upper-half sum.
//! The post-smoother's upper sums are those of its final iterate, so the
//! line search's `A·z` walks only lower halves. That is two and a half
//! row passes per level visit instead of four. Restriction and the
//! coefficient refresh gather each aggregate's (or coarse edge's) finer
//! members in ascending order, bit for bit the scatter-add they replace.

use crate::csr::{entries_dot, entries_dot_fresh_first, entries_dot_fresh_last, EdgeOrderRows, SortedRows};
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

/// A weighted cell-adjacency graph, the input of one coarsening step.
struct Graph {
    n: usize,
    /// Undirected edges `(a, b)`.
    edges: Vec<(u32, u32)>,
    /// Conductance per edge (the matching strength).
    w: Vec<f64>,
}

/// The inverse of a many-to-one map `of: finer index → group` in CSR form:
/// `members[offsets[a]..offsets[a + 1]]` lists the finer indices of group
/// `a`, ascending. Indices mapped to [`INTERNAL`] join no group.
#[derive(Debug)]
struct Groups {
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl Groups {
    /// Inverts `of` into `n` groups by a counting sort: scanning the finer
    /// indices in ascending order lists every group's members ascending.
    fn invert(of: &[u32], n: usize) -> Groups {
        let mut offsets = vec![0u32; n + 1];
        for &a in of.iter().filter(|&&a| a != INTERNAL) {
            offsets[a as usize + 1] += 1;
        }
        for a in 0..n {
            offsets[a + 1] += offsets[a];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut members = vec![0u32; offsets[n] as usize];
        for (i, &a) in of.iter().enumerate().filter(|&(_, &a)| a != INTERNAL) {
            members[cursor[a as usize] as usize] = i as u32;
            cursor[a as usize] += 1;
        }
        Groups { offsets, members }
    }

    /// Number of groups.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `dst[a] = Σ src[i]` over group `a`'s members in ascending order —
    /// bit for bit what an ascending scatter-add into a zeroed `dst` forms,
    /// without its store-to-load chain through `dst`.
    fn sum_into(&self, src: &[f64], dst: &mut [f64]) {
        let off = &self.offsets[..=dst.len()];
        for (a, d) in dst.iter_mut().enumerate() {
            let mut s = 0.0;
            for &i in &self.members[off[a] as usize..off[a + 1] as usize] {
                s += src[i as usize];
            }
            *d = s;
        }
    }
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
    /// Each aggregate's finer-level cells (the inverse of `agg_of`):
    /// restriction and the convection refresh sum over them.
    members: Groups,
    /// Each edge's finer-level edges — the inverse of the finer edge →
    /// coarse edge map, whose fine edges inside one aggregate join no
    /// coarse edge. The conductance refresh sums over them.
    edge_members: Groups,
    /// Sorted, split CSR adjacency; `rows.edge` indexes `g_edge`.
    rows: SortedRows,
    /// Σ of the finer capacities per aggregate, J/K (static).
    pub(crate) capacity: Vec<f64>,
}

impl LevelTopology {
    /// The level `graph` aggregated from a finer level by `agg_of` and
    /// `edge_map` (see [`coarsen_level`]), whose cells hold
    /// `finer_capacity`.
    fn new(agg_of: Vec<u32>, edge_map: &[u32], graph: &Graph, finer_capacity: &[f64]) -> LevelTopology {
        let n = graph.n;
        let members = Groups::invert(&agg_of, n);
        let mut capacity = vec![0.0; n];
        members.sum_into(finer_capacity, &mut capacity);
        LevelTopology {
            n,
            members,
            edge_members: Groups::invert(edge_map, graph.edges.len()),
            rows: SortedRows::build(n, graph.edges.iter().map(|&(a, b)| (a as usize, b as usize))),
            agg_of,
            capacity,
        }
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
    /// Upper-half row sums one pass hands to the next: the pre-smoother's
    /// residual, then the post-smoother's sums for the line search.
    upper: Vec<f64>,
}

impl LevelState {
    fn new(topo: &LevelTopology) -> LevelState {
        let n = topo.n;
        LevelState {
            g_edge: vec![0.0; topo.edge_members.len()],
            g_entry: vec![0.0; topo.rows.n_entries()],
            g_conv: vec![0.0; n],
            diag: vec![0.0; n],
            inv_diag: vec![0.0; n],
            x: vec![0.0; n],
            b: vec![0.0; n],
            z: vec![0.0; n],
            upper: vec![0.0; n],
        }
    }

    /// Pre-smoother: one forward Gauss–Seidel sweep on `A z = b` from a
    /// zero guess. When row `i` is updated only its lower half holds
    /// non-zero values, so only that half is walked. The sweep's residual
    /// `b − A z` is then exactly each row's upper-half sum (the diagonal
    /// term cancels `b` plus the lower sum), which a pass over the upper
    /// halves stores in `upper`.
    fn presmooth(&mut self, rows: &SortedRows) {
        let n = self.z.len();
        let (b, inv_diag, z) = (&self.b[..n], &self.inv_diag[..n], &mut self.z[..n]);
        let (off, split, g, nbr) = (&rows.offsets[..=n], &rows.split[..n], &self.g_entry[..], &rows.nbr[..]);
        for i in 0..n {
            let (lo, mid) = (off[i] as usize, split[i] as usize);
            let (low, fresh) = entries_dot_fresh_last(&g[lo..mid], &nbr[lo..mid], z);
            z[i] = (b[i] + low + fresh) * inv_diag[i];
        }
        for (i, r) in self.upper[..n].iter_mut().enumerate() {
            let (mid, hi) = (split[i] as usize, off[i + 1] as usize);
            *r = entries_dot(&g[mid..hi], &nbr[mid..hi], z);
        }
    }

    /// Post-smoother: one *reverse*-order Gauss–Seidel sweep on `A z = b`
    /// from the corrected iterate. A forward pre-sweep and a backward
    /// post-sweep make the level's cycle a symmetric operator (restriction
    /// is the transpose of prolongation, the coarsest solve is exact),
    /// which is what lets the outer conjugate-gradient acceleration work
    /// at full strength. Each row's upper half reads this sweep's values,
    /// which are final, so its sum is kept in `upper` for
    /// [`LevelState::line_search_dots`].
    fn postsmooth(&mut self, rows: &SortedRows) {
        let n = self.z.len();
        let (b, inv_diag, z) = (&self.b[..n], &self.inv_diag[..n], &mut self.z[..n]);
        let (off, split, g, nbr) = (&rows.offsets[..=n], &rows.split[..n], &self.g_entry[..], &rows.nbr[..]);
        let upper = &mut self.upper[..n];
        for i in (0..n).rev() {
            let (lo, mid, hi) = (off[i] as usize, split[i] as usize, off[i + 1] as usize);
            let low = entries_dot(&g[lo..mid], &nbr[lo..mid], z);
            let (up, fresh) = entries_dot_fresh_first(&g[mid..hi], &nbr[mid..hi], z);
            z[i] = (b[i] + low + up + fresh) * inv_diag[i];
            upper[i] = up + fresh;
        }
    }

    /// `(z·A z, z·b)` for the line search, in one pass over the lower
    /// halves: `(A z)_i = d_i z_i − lower_i − upper_i`, with the upper sums
    /// the post-smoother kept.
    fn line_search_dots(&self, rows: &SortedRows) -> (f64, f64) {
        let n = self.z.len();
        let (b, diag, z, upper) = (&self.b[..n], &self.diag[..n], &self.z[..n], &self.upper[..n]);
        let (off, split, g, nbr) = (&rows.offsets[..=n], &rows.split[..n], &self.g_entry[..], &rows.nbr[..]);
        let (mut z_az, mut z_b) = (0.0, 0.0);
        for i in 0..n {
            let (lo, mid) = (off[i] as usize, split[i] as usize);
            let az = diag[i] * z[i] - entries_dot(&g[lo..mid], &nbr[lo..mid], z) - upper[i];
            z_az += z[i] * az;
            z_b += z[i] * b[i];
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
        let mut levels: Vec<LevelTopology> = Vec::new();
        while graph.n > COARSEST_MAX {
            let Some((agg_of, coarse, edge_map)) = coarsen_level(&graph) else { break };
            let finer_capacity = levels.last().map_or(&grid.capacity[..], |l| &l.capacity[..]);
            levels.push(LevelTopology::new(agg_of, &edge_map, &coarse, finer_capacity));
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
    /// (one gather-sum per level) and invalidates the per-`h` diagonals.
    pub(crate) fn refresh_g(&mut self, fine_g_edge: &[f64], fine_g_conv: &[f64]) {
        for l in 0..self.states.len() {
            let topo = &self.topo.levels[l];
            let (done, rest) = self.states.split_at_mut(l);
            let (src_g, src_conv): (&[f64], &[f64]) = match done.last() {
                None => (fine_g_edge, fine_g_conv),
                Some(prev) => (&prev.g_edge, &prev.g_conv),
            };
            let lev = &mut rest[0];
            topo.edge_members.sum_into(src_g, &mut lev.g_edge);
            for (g, &e) in lev.g_entry.iter_mut().zip(&topo.rows.edge) {
                *g = lev.g_edge[e as usize];
            }
            topo.members.sum_into(src_conv, &mut lev.g_conv);
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
            let off = &topo.rows.offsets;
            for i in 0..topo.n {
                let g_sum: f64 = lev.g_entry[off[i] as usize..off[i + 1] as usize].iter().sum();
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
                for k in ct.rows.offsets[i] as usize..ct.rows.offsets[i + 1] as usize {
                    a[i * n + ct.rows.nbr[k] as usize] = -c.g_entry[k];
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
        t0.members.sum_into(r, &mut self.states[0].b);
        k_solve(&self.topo.levels, &mut self.states, &self.chol);
        let x = &self.states[0].x;
        for (z, &a) in z.iter_mut().zip(&t0.agg_of) {
            *z = x[a as usize];
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
    let cur = &mut states[0];
    let (z_az, z_b) = cur.line_search_dots(&topo[0].rows);
    if z_az <= 0.0 {
        // Numerically degenerate (the correction vanished): take it as-is.
        cur.x.copy_from_slice(&cur.z);
        return;
    }
    let alpha = z_b / z_az;
    for (x, &z) in cur.x.iter_mut().zip(&cur.z) {
        *x = alpha * z;
    }
}

/// One preconditioner application at `levels[0]`: `z ≈ A⁻¹ b` by one
/// pre-smoothing sweep from zero, a recursive K-cycle correction of its
/// residual, and one post-smoothing sweep.
fn precond(topo: &[LevelTopology], states: &mut [LevelState], chol: &[f64]) {
    let (cur, rest) = states.split_at_mut(1);
    let cur = &mut cur[0];
    cur.presmooth(&topo[0].rows);
    let next_topo = &topo[1];
    next_topo.members.sum_into(&cur.upper, &mut rest[0].b);
    k_solve(&topo[1..], rest, chol);
    let x = &rest[0].x;
    for (z, &a) in cur.z.iter_mut().zip(&next_topo.agg_of) {
        *z += x[a as usize];
    }
    cur.postsmooth(&topo[0].rows);
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
    // Edge-order adjacency: the matching breaks ties between equally
    // strong neighbours by it, so the aggregates do not depend on the
    // solver's sorted rows.
    let EdgeOrderRows { offsets, nbr, edge: entry_edge } =
        EdgeOrderRows::build(g.n, g.edges.iter().map(|&(a, b)| (a as usize, b as usize)));

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

/// Composed pairwise aggregation: [`MATCHING_PASSES`] matching passes
/// composed into aggregates of ~8 cells (~8× coarsening per level).
/// Returns `None` when the graph refuses to coarsen (see
/// [`MIN_COARSENING_RATIO`]).
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

    /// A deterministic stream of values of mixed sign spanning six orders
    /// of magnitude (xorshift64).
    fn values(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
                let scale = 10f64.powi((x % 7) as i32 - 3);
                (unit - 0.5) * scale
            })
            .collect()
    }

    /// A hierarchy on a two-component mesh, refreshed with uneven
    /// conductances and its diagonals built.
    fn refreshed_hierarchy() -> (ThermalGrid, Multigrid) {
        let mut fp = Floorplan::new("mg", 4000.0, 4000.0);
        fp.add_component("hot", 500.0, 500.0, 1500.0, 1500.0, true);
        fp.add_component("cool", 2500.0, 2500.0, 1000.0, 1000.0, false);
        let cfg = GridConfig { hot_div: 12, default_div: 6, ..GridConfig::default() };
        let grid = ThermalGrid::build(&fp, &cfg).unwrap();
        let g_edge: Vec<f64> = values(7, grid.edges.len()).iter().map(|v| 1.0 + v.abs()).collect();
        let mut g_conv = vec![0.0; grid.n_cells()];
        for &(cell, _, _) in &grid.convection {
            g_conv[cell] = 0.5;
        }
        let mut mg = Multigrid::build(&grid, &g_edge);
        assert!(!mg.is_degenerate() && mg.n_levels() >= 3, "{} levels", mg.n_levels());
        mg.refresh_g(&g_edge, &g_conv);
        mg.build_diag(5e-4);
        (grid, mg)
    }

    /// `groups` lists, for each of `n` groups, exactly the indices `of`
    /// maps to it, ascending; indices mapped to [`INTERNAL`] appear nowhere.
    fn assert_inverts(groups: &Groups, of: &[u32], n: usize) {
        assert_eq!(groups.len(), n);
        assert_eq!(groups.members.len(), of.iter().filter(|&&a| a != INTERNAL).count());
        for a in 0..n {
            let members = &groups.members[groups.offsets[a] as usize..groups.offsets[a + 1] as usize];
            assert!(!members.is_empty(), "group {a} is empty");
            assert!(members.windows(2).all(|w| w[0] < w[1]), "group {a} ascending");
            assert!(members.iter().all(|&i| of[i as usize] as usize == a), "group {a}");
        }
    }

    #[test]
    fn level_rows_are_sorted_and_members_invert_agg_of() {
        let mut fp = Floorplan::new("mg", 4000.0, 4000.0);
        fp.add_component("hot", 500.0, 500.0, 1500.0, 1500.0, true);
        let cfg = GridConfig { hot_div: 12, default_div: 4, ..GridConfig::default() };
        let grid = ThermalGrid::build(&fp, &cfg).unwrap();
        let mut graph = Graph {
            n: grid.n_cells(),
            edges: grid.edges.iter().map(|e| (e.a as u32, e.b as u32)).collect(),
            w: values(3, grid.edges.len()).iter().map(|v| 1.0 + v.abs()).collect(),
        };
        for _ in 0..2 {
            let (agg_of, coarse, edge_map) = coarsen_level(&graph).expect("the mesh coarsens");
            let t = LevelTopology::new(agg_of, &edge_map, &coarse, &vec![1.0; graph.n]);
            let ends: Vec<(usize, usize)> =
                coarse.edges.iter().map(|&(a, b)| (a as usize, b as usize)).collect();
            crate::csr::assert_sorted_split(&t.rows, t.n, &ends);
            assert_inverts(&t.members, &t.agg_of, t.n);
            assert_inverts(&t.edge_members, &edge_map, coarse.edges.len());
            graph = coarse;
        }
    }

    #[test]
    fn gather_restriction_matches_the_scatter_bit_for_bit() {
        let (grid, mg) = refreshed_hierarchy();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut finer_edges = grid.edges.len();
        for (l, t) in mg.topo.levels.iter().enumerate() {
            let r = values(11 + l as u64, t.agg_of.len());
            let mut scatter = vec![0.0; t.n];
            for (i, &a) in t.agg_of.iter().enumerate() {
                scatter[a as usize] += r[i];
            }
            let mut gather = vec![f64::NAN; t.n];
            t.members.sum_into(&r, &mut gather);
            assert_eq!(bits(&gather), bits(&scatter), "level {l} restriction");
            // The conductance refresh gathers the same way over edges.
            let g = values(31 + l as u64, finer_edges);
            let mut edge_of = vec![INTERNAL; finer_edges];
            for e in 0..t.edge_members.len() {
                let span = t.edge_members.offsets[e] as usize..t.edge_members.offsets[e + 1] as usize;
                for &f in &t.edge_members.members[span] {
                    edge_of[f as usize] = e as u32;
                }
            }
            let mut scatter = vec![0.0; t.edge_members.len()];
            for (f, &e) in edge_of.iter().enumerate().filter(|&(_, &e)| e != INTERNAL) {
                scatter[e as usize] += g[f];
            }
            let mut gather = vec![f64::NAN; t.edge_members.len()];
            t.edge_members.sum_into(&g, &mut gather);
            assert_eq!(bits(&gather), bits(&scatter), "level {l} conductances");
            finer_edges = t.edge_members.len();
        }
    }

    #[test]
    fn upper_half_residual_matches_the_direct_residual() {
        let (_, mut mg) = refreshed_hierarchy();
        for (l, t) in mg.topo.levels.iter().enumerate().take(mg.states.len() - 1) {
            let lev = &mut mg.states[l];
            lev.b = values(21 + l as u64, t.n);
            lev.presmooth(&t.rows);
            let direct: Vec<f64> = (0..t.n)
                .map(|i| {
                    let row = t.rows.offsets[i] as usize..t.rows.offsets[i + 1] as usize;
                    lev.b[i] - lev.diag[i] * lev.z[i]
                        + entries_dot(&lev.g_entry[row.clone()], &t.rows.nbr[row], &lev.z)
                })
                .collect();
            let scale = direct.iter().fold(0.0f64, |m, r| m.max(r.abs()));
            let worst = direct.iter().zip(&lev.upper).fold(0.0f64, |m, (d, u)| m.max((d - u).abs()));
            assert!(scale > 0.0 && worst <= 1e-12 * scale, "level {l}: {worst:e} against {scale:e}");
        }
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
