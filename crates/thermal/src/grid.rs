//! Meshing: floorplan → multi-resolution RC cell network (Fig. 3).
//!
//! The xy plane is tiled with box cells of several sizes: every floorplan
//! component is subdivided locally (`hot` components finer), and the
//! remaining die area is covered by a coarser filler grid — "this way we can
//! place the smallest cells in the crucial points of the studied MPSoC to
//! obtain high resolution and insert larger ones where the conditions are
//! not critical" (§5.2). The same tiling is stacked into silicon layers and
//! copper-spreader layers; every cell couples to its lateral neighbours, the
//! cells above/below, and (top layer) to ambient through the area-weighted
//! package resistance.

use crate::csr::CellCsr;
use crate::error::ThermalError;
use crate::floorplan::Floorplan;
use crate::props::ThermalProps;

/// Time-integration scheme of the RC network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Integrator {
    /// Forward Euler with an automatically chosen stability-bounded substep.
    /// Exact energy bookkeeping; cost grows as the smallest cell shrinks.
    Explicit,
    /// Backward Euler with Gauss–Seidel relaxation and lagged non-linear
    /// conductivities, taking fixed substeps of `dt` seconds.
    /// Unconditionally stable — the fast path for real-time co-emulation
    /// (the §5.2 "660 cells in real time" operating point).
    SemiImplicit {
        /// Substep length, seconds.
        dt: f64,
    },
}

/// Linear-system strategy of the semi-implicit (backward-Euler) substep.
///
/// Every substep solves `(C/h + G) T' = C/h·T + P + G_conv·T_amb`. The
/// warm-started SOR Gauss–Seidel iteration is unbeatable on paper-scale
/// meshes, but its contraction degrades with refinement — on ~46k-cell
/// meshes it exhausts the sweep budget without converging. The geometric
/// multigrid option runs flexible CG preconditioned by a K-cycle over a
/// hierarchy of aggregated coarse RC networks, with symmetric Gauss–Seidel
/// smoothing (see [`crate`] docs), which keeps the per-substep cost
/// mesh-size-robust.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImplicitSolve {
    /// Warm-started SOR Gauss–Seidel sweeps only (the PR 1 solver).
    GaussSeidel,
    /// Flexible CG preconditioned by geometric multigrid K-cycles, with
    /// Gauss–Seidel smoothing and a dense Cholesky solve at the coarsest
    /// level.
    Multigrid,
    /// [`ImplicitSolve::GaussSeidel`] below
    /// [`GridConfig::multigrid_threshold`] cells,
    /// [`ImplicitSolve::Multigrid`] at or above it.
    Auto,
}

/// Which implementation runs the solver's sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepMode {
    /// Reference path: the seed's algorithm — natural-order serial sweeps
    /// with conductivities refreshed every substep and per-edge divisions —
    /// summing each row in neighbour order like every path. Kept as the
    /// golden baseline for equivalence tests and perf comparisons; do not
    /// use for production runs.
    Reference,
    /// Optimized path (the default): CSR linear sweeps in natural cell
    /// order with lagged coefficient refresh, on the calling thread.
    Serial,
}

/// Meshing and boundary-condition configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridConfig {
    /// Ambient temperature, K.
    pub ambient_k: f64,
    /// Number of silicon layers in z.
    pub si_layers: usize,
    /// Number of copper-spreader layers in z.
    pub cu_layers: usize,
    /// Subdivision of a normal component (n×n cells).
    pub default_div: usize,
    /// Subdivision of a `hot` component (n×n cells).
    pub hot_div: usize,
    /// Target pitch of the filler tiling outside components, µm.
    pub filler_pitch_um: f64,
    /// Package-to-air resistance, K/W (`f64::INFINITY` = adiabatic top,
    /// used by conservation tests).
    pub package_to_air: f64,
    /// Force a constant silicon conductivity (W/mK) instead of the
    /// non-linear Table 2 law — used for validation against closed-form
    /// solutions.
    pub silicon_k_override: Option<f64>,
    /// Time-integration scheme.
    pub integrator: Integrator,
    /// Reference or optimized sweeps.
    pub sweep: SweepMode,
    /// Linear-system strategy of the semi-implicit substep (ignored by the
    /// explicit integrator and by [`SweepMode::Reference`], which keeps the
    /// seed's Gauss–Seidel algorithm).
    pub implicit_solve: ImplicitSolve,
    /// Cell count at which [`ImplicitSolve::Auto`] switches from plain
    /// Gauss–Seidel to multigrid cycles.
    pub multigrid_threshold: usize,
    /// When set, an implicit substep that exhausts its iteration budget
    /// without meeting the convergence tolerance aborts
    /// [`crate::ThermalModel::try_step`] with
    /// [`ThermalError::NotConverged`] instead of silently accepting the
    /// unconverged temperature field. Off by default: the non-strict paths
    /// still *record* every such substep in
    /// [`crate::SolverStats`].
    pub strict_convergence: bool,
    /// Material constants (Table 2 by default).
    pub props: ThermalProps,
}

impl Default for GridConfig {
    fn default() -> GridConfig {
        GridConfig {
            ambient_k: 300.0,
            si_layers: 2,
            cu_layers: 2,
            default_div: 2,
            hot_div: 3,
            filler_pitch_um: 1000.0,
            package_to_air: crate::props::PACKAGE_TO_AIR_K_PER_W,
            silicon_k_override: None,
            integrator: Integrator::SemiImplicit { dt: 5e-4 },
            sweep: SweepMode::Serial,
            implicit_solve: ImplicitSolve::Auto,
            multigrid_threshold: 12288,
            strict_convergence: false,
            props: ThermalProps::default(),
        }
    }
}

impl GridConfig {
    /// Fingerprint of every field that shapes the meshed [`ThermalGrid`]
    /// geometry (tiling, layers, capacities, edge topology, convection
    /// paths). Two configs with equal mesh fingerprints produce identical
    /// grids for the same floorplan, whatever their solver knobs say — the
    /// mesh layer of the artifact cache keys on this, so a sweep that only
    /// varies integrator/sweep/threshold settings shares one mesh.
    ///
    /// Listed field by field (not `{:?}` of the whole struct) so adding a
    /// solver-only knob to [`GridConfig`] cannot silently fragment the
    /// cache, and adding a geometry knob forces a conscious choice here.
    #[must_use]
    pub fn mesh_fingerprint(&self) -> String {
        format!(
            "si={};cu={};div={}/{};pitch={:?};pkg={:?};props={:?};",
            self.si_layers,
            self.cu_layers,
            self.default_div,
            self.hot_div,
            self.filler_pitch_um,
            self.package_to_air,
            self.props,
        )
    }

    /// Fingerprint of the fields that additionally shape the assembled
    /// thermal *operator* on a given mesh: the conductances (and with them
    /// the multigrid hierarchy, whose aggregation weights are the
    /// ambient-temperature conductances). Per-substep quantities (the
    /// `C/h` diagonal) are per-run state and deliberately excluded.
    #[must_use]
    pub fn operator_fingerprint(&self) -> String {
        format!("amb={:?};k_si={:?};", self.ambient_k, self.silicon_k_override)
    }

    /// Whether a model with this configuration runs multigrid substeps on
    /// a mesh of `n_cells` cells: never on the explicit integrator or the
    /// [`SweepMode::Reference`] path, otherwise as
    /// [`GridConfig::implicit_solve`] says, with [`ImplicitSolve::Auto`]
    /// switching at [`GridConfig::multigrid_threshold`] cells.
    #[must_use]
    pub fn uses_multigrid(&self, n_cells: usize) -> bool {
        if self.sweep == SweepMode::Reference || !matches!(self.integrator, Integrator::SemiImplicit { .. }) {
            return false;
        }
        match self.implicit_solve {
            ImplicitSolve::GaussSeidel => false,
            ImplicitSolve::Multigrid => true,
            ImplicitSolve::Auto => n_cells >= self.multigrid_threshold,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ThermalError> {
        if self.si_layers == 0 {
            return Err(ThermalError::NoSiliconLayers);
        }
        if self.cu_layers == 0 {
            return Err(ThermalError::NoCopperLayers);
        }
        if self.default_div == 0 || self.hot_div == 0 {
            return Err(ThermalError::ZeroSubdivision);
        }
        // NaN must fail these checks too, so compare on the accepting side.
        if self.filler_pitch_um <= 0.0 || self.filler_pitch_um.is_nan() {
            return Err(ThermalError::NonPositiveFillerPitch { pitch_um: self.filler_pitch_um });
        }
        if self.ambient_k <= 0.0 || self.ambient_k.is_nan() {
            return Err(ThermalError::NonPositiveAmbient { ambient_k: self.ambient_k });
        }
        if self.package_to_air <= 0.0 {
            return Err(ThermalError::NonPositivePackageResistance { k_per_w: self.package_to_air });
        }
        if let Integrator::SemiImplicit { dt } = self.integrator {
            if dt <= 0.0 || dt.is_nan() {
                return Err(ThermalError::NonPositiveSubstep { dt_s: dt });
            }
        }
        if self.multigrid_threshold == 0 {
            return Err(ThermalError::ZeroMultigridThreshold);
        }
        Ok(())
    }
}

/// One xy tile (shared by all layers). SI units (meters).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tile {
    pub x: f64,
    pub y: f64,
    pub w: f64,
    pub h: f64,
    /// Component owning the tile (bottom-layer power injection), if any.
    pub component: Option<usize>,
}

impl Tile {
    pub(crate) fn area(&self) -> f64 {
        self.w * self.h
    }
}

/// One resistive edge: `R = g_a / k(a) + g_b / k(b)` with `g` purely
/// geometric (half-length over cross-section).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    pub a: usize,
    pub b: usize,
    pub g_a: f64,
    pub g_b: f64,
}

/// The assembled cell network.
#[derive(Clone, Debug)]
pub struct ThermalGrid {
    pub(crate) cfg: GridConfig,
    pub(crate) tiles: Vec<Tile>,
    pub(crate) n_layers: usize,
    /// Whether each layer is silicon.
    pub(crate) layer_is_si: Vec<bool>,
    /// Heat capacity per cell, J/K.
    pub(crate) capacity: Vec<f64>,
    pub(crate) edges: Vec<Edge>,
    /// Top-layer convection: (cell, package resistance scaled by area,
    /// geometric half-resistance of the cell itself).
    pub(crate) convection: Vec<(usize, f64, f64)>,
    /// Per component: bottom-layer cells and their fraction of the
    /// component's power.
    pub(crate) comp_cells: Vec<Vec<(usize, f64)>>,
    /// Flat CSR adjacency (edges + convection).
    pub(crate) csr: CellCsr,
}

const UM: f64 = 1e-6;

impl ThermalGrid {
    /// Meshes a floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError`] if the configuration is invalid or the
    /// tiling fails to cover the die (which would indicate an inconsistent
    /// floorplan).
    pub fn build(fp: &Floorplan, cfg: &GridConfig) -> Result<ThermalGrid, ThermalError> {
        cfg.validate()?;
        let mut tiles = Vec::new();

        // 1. Component tiles: local div×div subdivision.
        for (ci, c) in fp.components().iter().enumerate() {
            let div = if c.hot { cfg.hot_div } else { cfg.default_div };
            let (dw, dh) = (c.w_um / div as f64, c.h_um / div as f64);
            for iy in 0..div {
                for ix in 0..div {
                    tiles.push(Tile {
                        x: (c.x_um + ix as f64 * dw) * UM,
                        y: (c.y_um + iy as f64 * dh) * UM,
                        w: dw * UM,
                        h: dh * UM,
                        component: Some(ci),
                    });
                }
            }
        }

        // 2. Filler tiles: rectilinear cuts from component edges plus a
        //    uniform pitch; keep the tiles whose center lies in no component.
        let mut cuts_x = vec![0.0, fp.width_um];
        let mut cuts_y = vec![0.0, fp.height_um];
        for c in fp.components() {
            cuts_x.extend([c.x_um, c.x_um + c.w_um]);
            cuts_y.extend([c.y_um, c.y_um + c.h_um]);
        }
        let mut p = cfg.filler_pitch_um;
        while p < fp.width_um {
            cuts_x.push(p);
            p += cfg.filler_pitch_um;
        }
        p = cfg.filler_pitch_um;
        while p < fp.height_um {
            cuts_y.push(p);
            p += cfg.filler_pitch_um;
        }
        dedup_sorted(&mut cuts_x);
        dedup_sorted(&mut cuts_y);
        let mut filler = Vec::new();
        for wy in cuts_y.windows(2) {
            for wx in cuts_x.windows(2) {
                let (x0, x1, y0, y1) = (wx[0], wx[1], wy[0], wy[1]);
                let (cx, cy) = ((x0 + x1) / 2.0, (y0 + y1) / 2.0);
                let inside = fp
                    .components()
                    .iter()
                    .any(|c| cx >= c.x_um && cx < c.x_um + c.w_um && cy >= c.y_um && cy < c.y_um + c.h_um);
                if !inside {
                    filler.push((x0, x1, y0, y1));
                }
            }
        }
        // Merge filler fragments (larger cells "where the conditions are not
        // critical"): first runs along x with identical y-extent, then runs
        // along y with identical x-extent, capped at the filler pitch.
        merge_runs(&mut filler, cfg.filler_pitch_um * 2.0, true);
        merge_runs(&mut filler, cfg.filler_pitch_um * 2.0, false);
        for (x0, x1, y0, y1) in filler {
            tiles.push(Tile { x: x0 * UM, y: y0 * UM, w: (x1 - x0) * UM, h: (y1 - y0) * UM, component: None });
        }

        // Coverage check: the tiles must partition the die.
        let covered: f64 = tiles.iter().map(Tile::area).sum();
        let die = fp.width_um * fp.height_um * UM * UM;
        if ((covered - die) / die).abs() > 1e-6 {
            return Err(ThermalError::CoverageGap { covered_m2: covered, die_m2: die });
        }

        // 3. Layers.
        let n_layers = cfg.si_layers + cfg.cu_layers;
        let h_si = cfg.props.silicon_thickness_um * UM / cfg.si_layers as f64;
        let h_cu = cfg.props.copper_thickness_um * UM / cfg.cu_layers as f64;
        let mut layer_h = vec![h_si; cfg.si_layers];
        layer_h.extend(vec![h_cu; cfg.cu_layers]);
        let mut layer_is_si = vec![true; cfg.si_layers];
        layer_is_si.extend(vec![false; cfg.cu_layers]);

        // Capacities (specific heats are J/(µm³K) = 1e18 J/(m³K)).
        let n_tiles = tiles.len();
        let mut capacity = Vec::with_capacity(n_tiles * n_layers);
        for l in 0..n_layers {
            let c_vol = if layer_is_si[l] { cfg.props.silicon_c } else { cfg.props.copper_c } * 1e18;
            for t in &tiles {
                capacity.push(c_vol * t.area() * layer_h[l]);
            }
        }

        // 4. Lateral adjacency from shared tile edges, replicated per layer.
        //    Built by a sorted boundary-line sweep — O(n log n + E) instead
        //    of the all-pairs O(n²) scan, which dominated meshing beyond a
        //    few thousand tiles.
        let lateral = lateral_adjacency(&tiles);
        let mut edges = Vec::new();
        for (l, &h_l) in layer_h.iter().enumerate() {
            let base = l * n_tiles;
            for &(i, j, half_i, half_j, overlap) in &lateral {
                let cross = overlap * h_l;
                edges.push(Edge { a: base + i, b: base + j, g_a: half_i / cross, g_b: half_j / cross });
            }
        }

        // 5. Vertical edges between consecutive layers.
        for l in 0..n_layers - 1 {
            for (t, tile) in tiles.iter().enumerate() {
                let area = tile.area();
                edges.push(Edge {
                    a: l * n_tiles + t,
                    b: (l + 1) * n_tiles + t,
                    g_a: layer_h[l] / 2.0 / area,
                    g_b: layer_h[l + 1] / 2.0 / area,
                });
            }
        }

        // 6. Convection from the top layer: package-to-air resistance
        //    weighted by cell area relative to the spreader, in series with
        //    the cell's own half-resistance.
        let top = n_layers - 1;
        let mut convection = Vec::new();
        if cfg.package_to_air.is_finite() {
            for (t, tile) in tiles.iter().enumerate() {
                let r_pkg = cfg.package_to_air * die / tile.area();
                convection.push((top * n_tiles + t, r_pkg, layer_h[top] / 2.0 / tile.area()));
            }
        }

        // 7. Power distribution: each component's bottom cells by area share.
        let mut comp_cells = vec![Vec::new(); fp.components().len()];
        for (t, tile) in tiles.iter().enumerate() {
            if let Some(ci) = tile.component {
                let comp_area = fp.components()[ci].area_mm2() * 1e-6; // mm² → m²
                comp_cells[ci].push((t, tile.area() / comp_area));
            }
        }

        let csr = CellCsr::build(n_tiles * n_layers, &edges, &convection);
        Ok(ThermalGrid { cfg: *cfg, tiles, n_layers, layer_is_si, capacity, edges, convection, comp_cells, csr })
    }

    /// Total number of cells (tiles × layers).
    pub fn n_cells(&self) -> usize {
        self.tiles.len() * self.n_layers
    }

    /// Number of xy tiles per layer.
    pub fn n_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Number of z layers (silicon + copper).
    pub fn layers(&self) -> usize {
        self.n_layers
    }

    /// Number of resistive edges (lateral + vertical).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of resistances attached to a cell (lateral + vertical +
    /// convection) — Fig. 3b's "five thermal resistances" for an interior
    /// bottom cell of a uniform mesh. Served from the precomputed CSR
    /// offsets in O(1) (the seed scanned every edge per query).
    pub fn degree(&self, cell: usize) -> usize {
        self.csr.rows.degree(cell) + usize::from(self.csr.conv[cell] != crate::csr::NO_CONV)
    }

    /// Whether the cell sits in a silicon layer.
    pub fn is_silicon(&self, cell: usize) -> bool {
        self.layer_is_si[cell / self.tiles.len()]
    }
}

/// One tile boundary segment on a candidate adjacency line:
/// `(line coordinate, segment start, segment end, tile index)`.
type Boundary = (f64, f64, f64, usize);

/// All lateral couplings `(i, j, half_i, half_j, overlap)` between tiles
/// sharing a boundary segment, via a sorted boundary-line sweep.
///
/// For the x direction every tile contributes its *right* boundary to one
/// list and its *left* boundary to another; both lists are sorted by line
/// coordinate, lines are matched within the same `eps` the all-pairs scan
/// used, and the segments on a matched line are merged by a two-pointer
/// interval join. The y direction is symmetric. Cost is O(n log n) for the
/// sorts plus O(output) for the joins.
fn lateral_adjacency(tiles: &[Tile]) -> Vec<(usize, usize, f64, f64, f64)> {
    let eps = 1e-12;
    let mut out = Vec::with_capacity(tiles.len() * 2);

    // Heat flows in x: right boundary of `i` meets left boundary of `j`.
    let mut rights: Vec<Boundary> =
        tiles.iter().enumerate().map(|(i, t)| (t.x + t.w, t.y, t.y + t.h, i)).collect();
    let mut lefts: Vec<Boundary> = tiles.iter().enumerate().map(|(i, t)| (t.x, t.y, t.y + t.h, i)).collect();
    join_boundaries(&mut rights, &mut lefts, eps, &mut |i, j, overlap| {
        out.push((i, j, tiles[i].w / 2.0, tiles[j].w / 2.0, overlap));
    });

    // Heat flows in y: top boundary of `i` meets bottom boundary of `j`.
    let mut tops: Vec<Boundary> =
        tiles.iter().enumerate().map(|(i, t)| (t.y + t.h, t.x, t.x + t.w, i)).collect();
    let mut bottoms: Vec<Boundary> = tiles.iter().enumerate().map(|(i, t)| (t.y, t.x, t.x + t.w, i)).collect();
    join_boundaries(&mut tops, &mut bottoms, eps, &mut |i, j, overlap| {
        out.push((i, j, tiles[i].h / 2.0, tiles[j].h / 2.0, overlap));
    });

    out
}

/// Matches boundary lines of `a` against `b` within `eps` and emits every
/// pair of segments overlapping by more than `eps`.
fn join_boundaries(a: &mut [Boundary], b: &mut [Boundary], eps: f64, emit: &mut impl FnMut(usize, usize, f64)) {
    let key = |s: &Boundary| (s.0, s.1);
    a.sort_by(|p, q| key(p).partial_cmp(&key(q)).expect("finite coordinates"));
    b.sort_by(|p, q| key(p).partial_cmp(&key(q)).expect("finite coordinates"));
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        let (xa, xb) = (a[ia].0, b[ib].0);
        if xa < xb - eps {
            ia += 1;
            continue;
        }
        if xb < xa - eps {
            ib += 1;
            continue;
        }
        // Same physical line (distinct lines are separated by orders of
        // magnitude more than eps; same lines differ only by rounding).
        let line = xa.min(xb);
        let ea = a[ia..].iter().take_while(|s| s.0 - line < eps).count() + ia;
        let eb = b[ib..].iter().take_while(|s| s.0 - line < eps).count() + ib;
        // The run was sorted by (line, start); when one physical line
        // appears as two rounding-variant floats, that order is not sorted
        // by start — re-sort each run so the interval join below is sound.
        a[ia..ea].sort_by(|p, q| p.1.partial_cmp(&q.1).expect("finite coordinates"));
        b[ib..eb].sort_by(|p, q| p.1.partial_cmp(&q.1).expect("finite coordinates"));
        // Interval join of the two segment runs, both sorted by start.
        let (mut pa, mut pb) = (ia, ib);
        while pa < ea && pb < eb {
            let s = &a[pa];
            let t = &b[pb];
            let overlap = s.2.min(t.2) - s.1.max(t.1);
            if overlap > eps {
                emit(s.3, t.3, overlap);
            }
            // Advance whichever segment ends first.
            if s.2 < t.2 {
                pa += 1;
            } else {
                pb += 1;
            }
        }
        ia = ea;
        ib = eb;
    }
}

/// Merges rectangles `(x0, x1, y0, y1)` that touch along the merge axis and
/// share the perpendicular extent, without exceeding `max_extent` µm.
fn merge_runs(rects: &mut Vec<(f64, f64, f64, f64)>, max_extent: f64, along_x: bool) {
    let eps = 1e-9;
    if along_x {
        rects.sort_by(|a, b| (a.2, a.3, a.0).partial_cmp(&(b.2, b.3, b.0)).expect("finite"));
    } else {
        rects.sort_by(|a, b| (a.0, a.1, a.2).partial_cmp(&(b.0, b.1, b.2)).expect("finite"));
    }
    let mut out: Vec<(f64, f64, f64, f64)> = Vec::with_capacity(rects.len());
    for r in rects.drain(..) {
        if let Some(last) = out.last_mut() {
            let compatible = if along_x {
                (last.2 - r.2).abs() < eps && (last.3 - r.3).abs() < eps && (last.1 - r.0).abs() < eps
            } else {
                (last.0 - r.0).abs() < eps && (last.1 - r.1).abs() < eps && (last.3 - r.2).abs() < eps
            };
            let merged_extent = if along_x { r.1 - last.0 } else { r.3 - last.2 };
            if compatible && merged_extent <= max_extent + eps {
                if along_x {
                    last.1 = r.1;
                } else {
                    last.3 = r.3;
                }
                continue;
            }
        }
        out.push(r);
    }
    *rects = out;
}

fn dedup_sorted(v: &mut Vec<f64>) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("cut coordinates are finite"));
    v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;

    fn uniform_die() -> Floorplan {
        // One component covering the whole 2x2 mm die.
        let mut fp = Floorplan::new("uniform", 2000.0, 2000.0);
        fp.add_component("all", 0.0, 0.0, 2000.0, 2000.0, false);
        fp
    }

    #[test]
    fn uniform_die_cell_counts() {
        let cfg = GridConfig { default_div: 4, ..GridConfig::default() };
        let g = ThermalGrid::build(&uniform_die(), &cfg).unwrap();
        assert_eq!(g.n_tiles(), 16);
        assert_eq!(g.layers(), 4);
        assert_eq!(g.n_cells(), 64);
    }

    #[test]
    fn interior_bottom_cell_has_five_resistances() {
        // Fig. 3b: four lateral + one vertical for an interior bottom cell.
        let cfg = GridConfig { default_div: 4, si_layers: 1, cu_layers: 1, ..GridConfig::default() };
        let g = ThermalGrid::build(&uniform_die(), &cfg).unwrap();
        // Tile (1,1) of a 4x4 grid = index 5 (row-major by construction).
        let interior = 5;
        assert_eq!(g.degree(interior), 5);
        // A corner bottom cell: two lateral + one vertical.
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn top_cells_convect() {
        let cfg = GridConfig { default_div: 2, si_layers: 1, cu_layers: 1, ..GridConfig::default() };
        let g = ThermalGrid::build(&uniform_die(), &cfg).unwrap();
        assert_eq!(g.convection.len(), 4, "every top tile has a convection path");
        let adiabatic = GridConfig { package_to_air: f64::INFINITY, ..cfg };
        let g2 = ThermalGrid::build(&uniform_die(), &adiabatic).unwrap();
        assert!(g2.convection.is_empty());
    }

    #[test]
    fn hot_components_get_finer_cells() {
        let mut fp = Floorplan::new("mix", 4000.0, 4000.0);
        fp.add_component("hot", 0.0, 0.0, 1000.0, 1000.0, true);
        fp.add_component("cool", 2000.0, 2000.0, 1000.0, 1000.0, false);
        let cfg = GridConfig { default_div: 1, hot_div: 4, ..GridConfig::default() };
        let g = ThermalGrid::build(&fp, &cfg).unwrap();
        assert_eq!(g.comp_cells[0].len(), 16, "hot: 4x4");
        assert_eq!(g.comp_cells[1].len(), 1, "cool: 1x1");
        // Power fractions sum to one per component.
        for cc in &g.comp_cells {
            let sum: f64 = cc.iter().map(|(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        }
    }

    #[test]
    fn filler_covers_uncovered_area() {
        let mut fp = Floorplan::new("sparse", 3000.0, 3000.0);
        fp.add_component("c", 1000.0, 1000.0, 1000.0, 1000.0, false);
        let g = ThermalGrid::build(&fp, &GridConfig::default()).unwrap();
        let filler_area: f64 = g.tiles.iter().filter(|t| t.component.is_none()).map(Tile::area).sum();
        assert!((filler_area - 8e-6).abs() < 1e-12, "8 of 9 mm² are filler, got {filler_area:e}");
    }

    #[test]
    fn t_junction_adjacency_exists() {
        // A fine component next to coarse filler: the coarse cell must be
        // coupled to each of the fine cells it touches.
        let mut fp = Floorplan::new("tj", 2000.0, 1000.0);
        fp.add_component("fine", 0.0, 0.0, 1000.0, 1000.0, true); // 3x3
        let cfg = GridConfig { hot_div: 3, si_layers: 1, cu_layers: 1, filler_pitch_um: 2000.0, ..GridConfig::default() };
        let g = ThermalGrid::build(&fp, &cfg).unwrap();
        // Filler tile is the right half; it borders 3 fine cells on its left
        // edge, so it owns >= 3 lateral edges + vertical.
        let filler_cell = g.tiles.iter().position(|t| t.component.is_none()).unwrap();
        assert!(g.degree(filler_cell) >= 4);
    }

    #[test]
    fn edge_count_is_linear_in_cells() {
        let cfg = GridConfig { default_div: 8, ..GridConfig::default() };
        let g = ThermalGrid::build(&uniform_die(), &cfg).unwrap();
        assert!(g.n_edges() <= 4 * g.n_cells(), "{} edges for {} cells", g.n_edges(), g.n_cells());
    }

    #[test]
    fn silicon_and_copper_layers_identified() {
        let cfg = GridConfig { default_div: 1, si_layers: 2, cu_layers: 2, ..GridConfig::default() };
        let g = ThermalGrid::build(&uniform_die(), &cfg).unwrap();
        assert!(g.is_silicon(0));
        assert!(!g.is_silicon(g.n_cells() - 1));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(GridConfig { si_layers: 0, ..GridConfig::default() }.validate().is_err());
        assert!(GridConfig { cu_layers: 0, ..GridConfig::default() }.validate().is_err());
        assert!(GridConfig { default_div: 0, ..GridConfig::default() }.validate().is_err());
        assert!(GridConfig { filler_pitch_um: 0.0, ..GridConfig::default() }.validate().is_err());
        assert!(GridConfig { package_to_air: -1.0, ..GridConfig::default() }.validate().is_err());
        assert!(GridConfig::default().validate().is_ok());
    }

    #[test]
    fn multigrid_decision_table() {
        let threshold = GridConfig::default().multigrid_threshold;
        let cfg = |sweep, integrator, implicit_solve| GridConfig {
            sweep,
            integrator,
            implicit_solve,
            ..GridConfig::default()
        };
        let implicit = Integrator::SemiImplicit { dt: 5e-4 };
        for n in [threshold - 1, threshold] {
            for solve in [ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid, ImplicitSolve::Auto] {
                assert!(!cfg(SweepMode::Reference, implicit, solve).uses_multigrid(n), "Reference never");
                assert!(!cfg(SweepMode::Serial, Integrator::Explicit, solve).uses_multigrid(n), "Explicit never");
            }
            assert!(!cfg(SweepMode::Serial, implicit, ImplicitSolve::GaussSeidel).uses_multigrid(n));
            assert!(cfg(SweepMode::Serial, implicit, ImplicitSolve::Multigrid).uses_multigrid(n));
        }
        assert!(!cfg(SweepMode::Serial, implicit, ImplicitSolve::Auto).uses_multigrid(threshold - 1));
        assert!(cfg(SweepMode::Serial, implicit, ImplicitSolve::Auto).uses_multigrid(threshold));
    }

    #[test]
    fn boundary_join_handles_rounding_variant_lines() {
        // One physical line represented by two floats 1 ulp apart (well
        // inside eps): the join must still find every overlapping pair, in
        // particular across the variant values — the (line, start) pre-sort
        // alone would interleave the runs out of start order.
        let line = 2e-3f64;
        let variant = f64::from_bits(line.to_bits() + 1);
        // Right boundaries: segments [3,5] on `line`, [0,2] on `variant`.
        let mut rights = vec![(line, 3e-3, 5e-3, 0usize), (variant, 0.0, 2e-3, 1usize)];
        // Left boundaries: [0,2] and [3,5] both on `line`.
        let mut lefts = vec![(line, 0.0, 2e-3, 2usize), (line, 3e-3, 5e-3, 3usize)];
        let mut pairs = Vec::new();
        super::join_boundaries(&mut rights, &mut lefts, 1e-12, &mut |i, j, _| pairs.push((i, j)));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 3), (1, 2)], "both cross-variant overlaps found");
    }

    #[test]
    fn capacity_uses_table2_specific_heats() {
        let cfg = GridConfig { default_div: 1, si_layers: 1, cu_layers: 1, ..GridConfig::default() };
        let g = ThermalGrid::build(&uniform_die(), &cfg).unwrap();
        // Bottom cell: 2mm x 2mm x 350µm silicon.
        let vol_si = 2e-3 * 2e-3 * 350e-6;
        let expect = 1.628e-12 * 1e18 * vol_si;
        assert!((g.capacity[0] - expect).abs() / expect < 1e-12);
    }
}
