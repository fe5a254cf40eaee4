//! The layered build-artifact cache behind [`crate::Scenario::build_with`]
//! (build/run phase split).
//!
//! Building a scenario factors into staged artifacts — resolve the
//! floorplan, mesh it into a [`ThermalGrid`], aggregate the multigrid
//! hierarchy topology, generate the TE32 [`Program`] — and most sweep
//! axes (DFS bands, run budgets, solver knobs) change *none* of them. An
//! [`ArtifactCache`] memoizes each stage behind an `Arc` under its own
//! sub-key ([`Scenario::artifact_keys`](crate::Scenario)), so a DFS-only
//! sweep meshes the die exactly once and every sibling point shares the
//! same grid.
//!
//! The cache is layered exactly like the keys: a `mesh` entry is reusable
//! across workloads and budgets because its key covers only the platform,
//! floorplan and mesh-geometry knobs ([`GridConfig::mesh_fingerprint`]);
//! the `operator` (multigrid hierarchy) layer folds in the
//! operator-relevant knobs on top; the `program` layer keys on the
//! kernel configuration the program generator reads, so DITHERING points
//! that differ only in their image seed (read when their inputs load)
//! share one program. Per-layer hit/miss counters ([`ArtifactStats`])
//! make reuse observable — the sweep smoke gate asserts on them.

use crate::error::TemuError;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use temu_isa::Program;
use temu_power::FloorplanMap;
use temu_thermal::{GridConfig, MgTopology, ThermalGrid};

/// One memoized artifact layer: key → `Arc<T>` plus hit/miss counters.
/// The counters are mirrored into the process-wide metrics registry as
/// `core.artifact.<layer>.{hits,misses}` so snapshots and the NDJSON
/// metrics log see artifact reuse without polling [`ArtifactStats`].
struct Layer<T> {
    map: Mutex<HashMap<u64, Arc<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    obs_hits: Arc<temu_obs::Counter>,
    obs_misses: Arc<temu_obs::Counter>,
}

impl<T> Layer<T> {
    fn named(layer: &str) -> Layer<T> {
        let scope = temu_obs::global().scope("core.artifact");
        Layer {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs_hits: scope.counter(&format!("{layer}.hits")),
            obs_misses: scope.counter(&format!("{layer}.misses")),
        }
    }
    /// Returns the cached artifact or builds (and memoizes) it. The build
    /// runs outside the layer lock so concurrent campaign workers building
    /// *different* meshes never serialize; two racing builders of the same
    /// key both build, and the first insert wins (the loser's copy is
    /// dropped — correct, merely redundant).
    fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<T, TemuError>,
    ) -> Result<Arc<T>, TemuError> {
        if let Some(hit) =
            self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key).cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs_hits.inc();
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs_misses.inc();
        let built = Arc::new(build()?);
        let mut map = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(map.entry(key).or_insert(built).clone())
    }

    fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    fn counts(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// A process-wide (or per-sweep) memo of scenario build artifacts, one
/// layer per build stage (see the module docs). Cheap to share behind an
/// `Arc`; all methods take `&self` and are thread-safe.
pub struct ArtifactCache {
    floorplans: Layer<FloorplanMap>,
    meshes: Layer<ThermalGrid>,
    operators: Layer<MgTopology>,
    programs: Layer<Program>,
}

impl Default for ArtifactCache {
    fn default() -> ArtifactCache {
        ArtifactCache {
            floorplans: Layer::named("floorplan"),
            meshes: Layer::named("mesh"),
            operators: Layer::named("operator"),
            programs: Layer::named("program"),
        }
    }
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("floorplans", &self.floorplans.len())
            .field("meshes", &self.meshes.len())
            .field("operators", &self.operators.len())
            .field("programs", &self.programs.len())
            .finish()
    }
}

impl ArtifactCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// The resolved floorplan map for a floorplan sub-key.
    pub(crate) fn floorplan(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<FloorplanMap, TemuError>,
    ) -> Result<Arc<FloorplanMap>, TemuError> {
        self.floorplans.get_or_build(key, build)
    }

    /// The meshed thermal grid for a mesh sub-key.
    pub(crate) fn mesh(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<ThermalGrid, TemuError>,
    ) -> Result<Arc<ThermalGrid>, TemuError> {
        self.meshes.get_or_build(key, build)
    }

    /// The multigrid hierarchy topology for an operator sub-key. Built
    /// from the shared grid at ambient-uniform conductances
    /// ([`MgTopology::for_grid`]), which is exactly what the solver's lazy
    /// first-substep build would produce.
    pub(crate) fn operator(
        &self,
        key: u64,
        grid: &ThermalGrid,
        cfg: &GridConfig,
    ) -> Result<Arc<MgTopology>, TemuError> {
        self.operators.get_or_build(key, || Ok(MgTopology::for_grid(grid, cfg)))
    }

    /// The generated TE32 program for a program sub-key.
    pub(crate) fn program(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<Program, TemuError>,
    ) -> Result<Arc<Program>, TemuError> {
        self.programs.get_or_build(key, build)
    }

    /// A snapshot of the per-layer hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> ArtifactStats {
        let (floorplan_hits, floorplan_misses) = self.floorplans.counts();
        let (mesh_hits, mesh_misses) = self.meshes.counts();
        let (operator_hits, operator_misses) = self.operators.counts();
        let (program_hits, program_misses) = self.programs.counts();
        ArtifactStats {
            floorplan_hits,
            floorplan_misses,
            mesh_hits,
            mesh_misses,
            operator_hits,
            operator_misses,
            program_hits,
            program_misses,
        }
    }
}

/// Per-layer hit/miss counters of an [`ArtifactCache`] (a point-in-time
/// snapshot). A *miss* is a build; `mesh_misses == 1` across an 8-point
/// same-geometry sweep is the "meshed exactly once" property the smoke
/// gate asserts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub struct ArtifactStats {
    /// Floorplan-layer lookups served from the cache.
    pub floorplan_hits: u64,
    /// Floorplan-layer builds.
    pub floorplan_misses: u64,
    /// Mesh-layer (thermal grid) lookups served from the cache.
    pub mesh_hits: u64,
    /// Mesh-layer builds.
    pub mesh_misses: u64,
    /// Operator-layer (multigrid hierarchy) lookups served from the cache.
    pub operator_hits: u64,
    /// Operator-layer builds.
    pub operator_misses: u64,
    /// Program-layer lookups served from the cache.
    pub program_hits: u64,
    /// Program-layer builds.
    pub program_misses: u64,
}

impl ArtifactStats {
    /// Total lookups served from the cache across all layers.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.floorplan_hits + self.mesh_hits + self.operator_hits + self.program_hits
    }

    /// Total builds across all layers.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.floorplan_misses + self.mesh_misses + self.operator_misses + self.program_misses
    }

    /// The delta of counters accumulated since `base` (for reporting one
    /// sweep's reuse out of a long-lived shared cache).
    #[must_use]
    pub fn delta_since(&self, base: &ArtifactStats) -> ArtifactStats {
        ArtifactStats {
            floorplan_hits: self.floorplan_hits - base.floorplan_hits,
            floorplan_misses: self.floorplan_misses - base.floorplan_misses,
            mesh_hits: self.mesh_hits - base.mesh_hits,
            mesh_misses: self.mesh_misses - base.mesh_misses,
            operator_hits: self.operator_hits - base.operator_hits,
            operator_misses: self.operator_misses - base.operator_misses,
            program_hits: self.program_hits - base.program_hits,
            program_misses: self.program_misses - base.program_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temu_thermal::Floorplan;

    fn tiny_grid() -> ThermalGrid {
        let mut fp = Floorplan::new("die", 2000.0, 2000.0);
        fp.add_component("cpu", 200.0, 200.0, 800.0, 800.0, true);
        ThermalGrid::build(&fp, &GridConfig::default()).unwrap()
    }

    #[test]
    fn layers_memoize_and_count_independently() {
        let cache = ArtifactCache::new();
        let a = cache.mesh(7, || Ok(tiny_grid())).unwrap();
        let b = cache.mesh(7, || panic!("second lookup must not rebuild")).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one key, one artifact instance");
        let c = cache.mesh(8, || Ok(tiny_grid())).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!((stats.mesh_hits, stats.mesh_misses), (1, 2));
        assert_eq!(stats.floorplan_misses, 0, "layers count independently");
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.misses(), 2);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let err = cache.program(1, || Err(TemuError::Cancelled));
        assert!(err.is_err());
        // The failed build left nothing behind; the next lookup builds.
        let ok = cache.program(1, || Ok(Program::default()));
        assert!(ok.is_ok());
        assert_eq!(cache.stats().program_misses, 2);
    }

    #[test]
    fn stats_delta_isolates_one_window_of_use() {
        let cache = ArtifactCache::new();
        let _ = cache.mesh(1, || Ok(tiny_grid()));
        let base = cache.stats();
        let _ = cache.mesh(1, || Ok(tiny_grid()));
        let _ = cache.mesh(1, || Ok(tiny_grid()));
        let d = cache.stats().delta_since(&base);
        assert_eq!((d.mesh_hits, d.mesh_misses), (2, 0));
    }
}
