//! Wire-format experiment specs: serializable [`ScenarioSpec`] /
//! [`SweepSpec`] descriptions that round-trip through JSON and lower onto
//! the fluent [`Scenario`] / [`Sweep`] builders.
//!
//! The builders are the programmatic experiment surface; the specs are the
//! same experiments as *data* — what a file, a job queue, or the
//! `temu-serve` network protocol can carry. A spec is deliberately a
//! subset of the builder API: everything it can express lowers onto
//! builder calls (never around them), so a spec-described experiment is
//! bit-identical — same [`Scenario::content_key`], same cache hits — to
//! the hand-built one. Custom closure axes ([`Sweep::axis`]) are the one
//! builder feature with no wire form; the `platforms` axis covers the
//! common case (the paper's bus/NoC/thermal platform presets).
//!
//! ```
//! use temu_framework::{SweepSpec, TemuError};
//!
//! # fn main() -> Result<(), TemuError> {
//! let text = r#"{
//!     "sweep": "bands",
//!     "base": {"preset": "paper_fig6_unmanaged", "windows": 2},
//!     "axes": [
//!         {"axis": "cores", "values": [2, 4]},
//!         {"axis": "dfs_bands", "bands": [[350.0, 340.0], [345.0, 335.0]],
//!          "high_hz": 500000000, "low_hz": 100000000}
//!     ]
//! }"#;
//! let spec = SweepSpec::from_json(text)?;
//! assert_eq!(spec.lower()?.n_points(), 4);
//! assert_eq!(SweepSpec::from_json(&spec.to_json())?, spec, "JSON round-trip");
//! # Ok(())
//! # }
//! ```
//!
//! # Lowering order
//!
//! [`ScenarioSpec::lower`] applies its fields in a fixed order — preset,
//! `cores`, `workload`, `dfs`, `sampling_window_s`, `mesh`, `solver`,
//! `strict_convergence`, budget, fit gate, `name` — so a spec always means
//! the same scenario regardless of JSON key order. [`SweepSpec::lower`]
//! applies axes in list order (first axis slowest-varying, exactly like
//! chained builder calls).
//!
//! # Errors
//!
//! Every failure — malformed JSON, an unknown preset/axis/field, a value
//! of the wrong shape, a ladder the platform rejects — is a typed
//! [`SpecError`] folded into [`TemuError::Spec`]; parsing never panics on
//! wire input. Integer fields must lie below 2^53: JSON numbers are read
//! as `f64`, so a larger integer (a dithering seed, say) would arrive
//! already rounded — a different experiment under a different content
//! key — and is refused instead.

use crate::error::TemuError;
use crate::export::{json_array, JsonObject, JsonValue};
use crate::scenario::{Scenario, Workload};
use crate::sweep::Sweep;
use std::error::Error;
use std::fmt;
use temu_platform::{DfsBand, DfsPolicy, PlatformConfig};
use temu_thermal::{GridConfig, ImplicitSolve, Integrator};
use temu_workloads::dithering::DitherConfig;
use temu_workloads::matrix::MatrixConfig;

/// A failure to parse or lower a wire-format experiment spec.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum SpecError {
    /// The spec text is not valid JSON.
    Json(String),
    /// A required field is missing.
    Missing {
        /// The spec object the field belongs to.
        object: &'static str,
        /// The missing field.
        field: &'static str,
    },
    /// A field holds a value of the wrong shape.
    Bad {
        /// The spec object the field belongs to.
        object: &'static str,
        /// The offending field.
        field: String,
        /// What was wrong with it.
        detail: String,
    },
    /// An unknown tag — preset, axis, solver, workload kind, or a field
    /// name the object does not define (typos must not be silently
    /// ignored on a wire format).
    Unknown {
        /// What kind of tag was unknown.
        what: &'static str,
        /// The unrecognized value.
        got: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Missing { object, field } => {
                write!(f, "{object} spec: missing required field \"{field}\"")
            }
            SpecError::Bad { object, field, detail } => {
                write!(f, "{object} spec: field \"{field}\": {detail}")
            }
            SpecError::Unknown { what, got } => write!(f, "unknown {what} {got:?}"),
        }
    }
}

impl Error for SpecError {}

// ---------------------------------------------------------------------------
// Decode/encode plumbing
// ---------------------------------------------------------------------------

/// The exclusive upper bound of a spec integer: every integer below 2^53
/// survives the `f64` JSON reader exactly, and every one at or above it
/// reads back as at least 2^53, so the bound also catches rounded input.
const SPEC_INT_BOUND: u64 = 1 << 53;

/// A spec integer: a whole non-negative JSON number below
/// [`SPEC_INT_BOUND`].
fn spec_u64(v: &JsonValue) -> Option<u64> {
    v.as_u64().filter(|&n| n < SPEC_INT_BOUND)
}

fn spec_usize(v: &JsonValue) -> Option<usize> {
    spec_u64(v).and_then(|n| usize::try_from(n).ok())
}

/// A typed view over one spec object: required/optional field access with
/// uniform [`SpecError`]s, plus unknown-field rejection.
struct Reader<'a> {
    object: &'static str,
    fields: &'a [(String, JsonValue)],
}

impl<'a> Reader<'a> {
    fn new(v: &'a JsonValue, object: &'static str) -> Result<Reader<'a>, SpecError> {
        match v.as_obj() {
            Some(fields) => Ok(Reader { object, fields }),
            None => Err(SpecError::Bad {
                object,
                field: String::from("(self)"),
                detail: format!("expected an object, got {}", v.type_name()),
            }),
        }
    }

    /// Rejects fields outside `known` (wire typos surface instead of
    /// silently changing the experiment).
    fn check_known(&self, known: &[&str]) -> Result<(), SpecError> {
        for (key, _) in self.fields {
            if !known.contains(&key.as_str()) {
                return Err(SpecError::Unknown {
                    what: "spec field",
                    got: format!("{}.{key}", self.object),
                });
            }
        }
        Ok(())
    }

    fn get(&self, field: &str) -> Option<&'a JsonValue> {
        self.fields.iter().find(|(k, _)| k == field).map(|(_, v)| v)
    }

    fn req(&self, field: &'static str) -> Result<&'a JsonValue, SpecError> {
        self.get(field).ok_or(SpecError::Missing { object: self.object, field })
    }

    fn bad(&self, field: &str, want: &str, got: &JsonValue) -> SpecError {
        SpecError::Bad {
            object: self.object,
            field: field.to_string(),
            detail: format!("expected {want}, got {}", got.type_name()),
        }
    }

    fn opt<T>(
        &self,
        field: &str,
        want: &str,
        read: impl Fn(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, SpecError> {
        match self.get(field) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => read(v).map(Some).ok_or_else(|| self.bad(field, want, v)),
        }
    }

    fn opt_u64(&self, field: &str) -> Result<Option<u64>, SpecError> {
        self.opt(field, "a non-negative integer below 2^53", spec_u64)
    }

    fn opt_u32(&self, field: &str) -> Result<Option<u32>, SpecError> {
        self.opt(field, "a 32-bit non-negative integer", |v| spec_u64(v).and_then(|n| u32::try_from(n).ok()))
    }

    fn opt_usize(&self, field: &str) -> Result<Option<usize>, SpecError> {
        self.opt(field, "a non-negative integer below 2^53", spec_usize)
    }

    fn opt_f64(&self, field: &str) -> Result<Option<f64>, SpecError> {
        self.opt(field, "a number", JsonValue::as_f64)
    }

    fn opt_bool(&self, field: &str) -> Result<Option<bool>, SpecError> {
        self.opt(field, "a boolean", JsonValue::as_bool)
    }

    fn opt_str(&self, field: &str) -> Result<Option<&'a str>, SpecError> {
        self.opt(field, "a string", |v| v.as_str())
    }

    fn req_u32(&self, field: &'static str) -> Result<u32, SpecError> {
        self.opt_u32(field)?.ok_or(SpecError::Missing { object: self.object, field })
    }

    fn req_u64(&self, field: &'static str) -> Result<u64, SpecError> {
        self.opt_u64(field)?.ok_or(SpecError::Missing { object: self.object, field })
    }

    fn req_str(&self, field: &'static str) -> Result<&'a str, SpecError> {
        self.opt_str(field)?.ok_or(SpecError::Missing { object: self.object, field })
    }

    fn req_arr(&self, field: &'static str) -> Result<&'a [JsonValue], SpecError> {
        let v = self.req(field)?;
        v.as_arr().ok_or_else(|| self.bad(field, "an array", v))
    }
}

/// Bands as `[[hot_k, cool_k], ...]`, each float in shortest round-trip
/// form ([`JsonValue::Num`]) so spec → JSON → spec keeps its content key.
fn bands_array(bands: &[DfsBand]) -> String {
    json_array(bands.iter().map(|b| band_pair(b.hot_k, b.cool_k)))
}

fn band_pair(hot_k: f64, cool_k: f64) -> String {
    json_array([JsonValue::Num(hot_k), JsonValue::Num(cool_k)])
}

fn parse_band(object: &'static str, v: &JsonValue) -> Result<DfsBand, SpecError> {
    let bad = |detail: String| SpecError::Bad { object, field: String::from("bands"), detail };
    let pair = v.as_arr().ok_or_else(|| bad(format!("expected [hot_k, cool_k], got {}", v.type_name())))?;
    match pair {
        [hot, cool] => match (hot.as_f64(), cool.as_f64()) {
            (Some(hot_k), Some(cool_k)) => Ok(DfsBand { hot_k, cool_k }),
            _ => Err(bad(String::from("band thresholds must be numbers"))),
        },
        _ => Err(bad(format!("expected a [hot_k, cool_k] pair, got {} element(s)", pair.len()))),
    }
}

pub(crate) fn solve_tag(solve: ImplicitSolve) -> &'static str {
    match solve {
        ImplicitSolve::GaussSeidel => "gs",
        ImplicitSolve::Multigrid => "mg",
        _ => "auto",
    }
}

fn parse_solve(tag: &str) -> Result<ImplicitSolve, SpecError> {
    match tag {
        "gs" => Ok(ImplicitSolve::GaussSeidel),
        "mg" => Ok(ImplicitSolve::Multigrid),
        "auto" => Ok(ImplicitSolve::Auto),
        other => Err(SpecError::Unknown { what: "implicit solver", got: other.to_string() }),
    }
}

// ---------------------------------------------------------------------------
// Component specs
// ---------------------------------------------------------------------------

/// Wire form of a [`Workload`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorkloadSpec {
    /// The MATRIX / MATRIX-TM kernel.
    Matrix {
        /// Matrix dimension (n × n).
        n: u32,
        /// Multiplications per core.
        iters: u32,
        /// Cores participating.
        cores: u32,
    },
    /// The DITHERING filter over synthetic images.
    Dithering {
        /// Image width in pixels.
        width: u32,
        /// Image height in pixels.
        height: u32,
        /// Number of images processed back to back.
        images: u32,
        /// Cores sharing the work.
        cores: u32,
        /// Seed of the synthetic input images.
        seed: u64,
    },
}

impl WorkloadSpec {
    /// Lowers onto the builder's [`Workload`].
    #[must_use]
    pub fn lower(&self) -> Workload {
        match *self {
            WorkloadSpec::Matrix { n, iters, cores } => Workload::Matrix(MatrixConfig { n, iters, cores }),
            WorkloadSpec::Dithering { width, height, images, cores, seed } => Workload::Dithering {
                cfg: DitherConfig { width, height, images, cores },
                seed,
            },
        }
    }

    fn to_json(&self) -> String {
        match *self {
            WorkloadSpec::Matrix { n, iters, cores } => JsonObject::line()
                .str("kind", "matrix")
                .raw("n", n)
                .raw("iters", iters)
                .raw("cores", cores)
                .finish(),
            WorkloadSpec::Dithering { width, height, images, cores, seed } => JsonObject::line()
                .str("kind", "dithering")
                .raw("width", width)
                .raw("height", height)
                .raw("images", images)
                .raw("cores", cores)
                .raw("seed", seed)
                .finish(),
        }
    }

    fn from_value(v: &JsonValue) -> Result<WorkloadSpec, SpecError> {
        let r = Reader::new(v, "workload")?;
        match r.req_str("kind")? {
            "matrix" => {
                r.check_known(&["kind", "n", "iters", "cores"])?;
                Ok(WorkloadSpec::Matrix {
                    n: r.req_u32("n")?,
                    iters: r.req_u32("iters")?,
                    cores: r.req_u32("cores")?,
                })
            }
            "dithering" => {
                r.check_known(&["kind", "width", "height", "images", "cores", "seed"])?;
                Ok(WorkloadSpec::Dithering {
                    width: r.req_u32("width")?,
                    height: r.req_u32("height")?,
                    images: r.req_u32("images")?,
                    cores: r.req_u32("cores")?,
                    seed: r.req_u64("seed")?,
                })
            }
            other => Err(SpecError::Unknown { what: "workload kind", got: other.to_string() }),
        }
    }
}

/// Wire form of a DFS choice: explicitly unmanaged, or a frequency ladder.
#[derive(Clone, PartialEq, Debug)]
pub enum DfsSpec {
    /// No run-time thermal management ([`Scenario::no_policy`]).
    Unmanaged,
    /// An N-level frequency ladder ([`DfsPolicy::ladder`]).
    Ladder {
        /// Clock levels in Hz, strictly descending.
        levels_hz: Vec<u64>,
        /// The N−1 hysteresis bands between adjacent levels.
        bands: Vec<DfsBand>,
    },
}

impl DfsSpec {
    /// The paper's dual-threshold policy (350/340 K between 500/100 MHz)
    /// as a spec.
    #[must_use]
    pub fn paper() -> DfsSpec {
        DfsSpec::Ladder {
            levels_hz: vec![500_000_000, 100_000_000],
            bands: vec![DfsBand { hot_k: 350.0, cool_k: 340.0 }],
        }
    }

    /// Lowers onto a policy choice (`None` = unmanaged).
    ///
    /// # Errors
    ///
    /// [`TemuError::Platform`] for a malformed ladder.
    pub fn lower(&self) -> Result<Option<DfsPolicy>, TemuError> {
        match self {
            DfsSpec::Unmanaged => Ok(None),
            DfsSpec::Ladder { levels_hz, bands } => Ok(Some(DfsPolicy::ladder(levels_hz, bands)?)),
        }
    }

    fn to_json(&self) -> String {
        match self {
            DfsSpec::Unmanaged => String::from("\"none\""),
            DfsSpec::Ladder { levels_hz, bands } => JsonObject::line()
                .raw("levels_hz", json_array(levels_hz.iter()))
                .raw("bands", bands_array(bands))
                .finish(),
        }
    }

    fn from_value(v: &JsonValue) -> Result<DfsSpec, SpecError> {
        if let Some(tag) = v.as_str() {
            return match tag {
                "none" => Ok(DfsSpec::Unmanaged),
                other => Err(SpecError::Unknown { what: "dfs spec", got: other.to_string() }),
            };
        }
        let r = Reader::new(v, "dfs")?;
        r.check_known(&["levels_hz", "bands"])?;
        let levels_hz = r
            .req_arr("levels_hz")?
            .iter()
            .map(|v| spec_u64(v).ok_or_else(|| r.bad("levels_hz", "an array of Hz integers below 2^53", v)))
            .collect::<Result<Vec<u64>, SpecError>>()?;
        let bands = r
            .req_arr("bands")?
            .iter()
            .map(|b| parse_band("dfs", b))
            .collect::<Result<Vec<DfsBand>, SpecError>>()?;
        Ok(DfsSpec::Ladder { levels_hz, bands })
    }
}

/// Wire form of a platform preset (the paper's §7 platforms).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlatformSpec {
    /// Which preset family: `"bus"` ([`PlatformConfig::paper_bus`]),
    /// `"noc"` ([`PlatformConfig::paper_noc`]) or `"thermal"`
    /// ([`PlatformConfig::paper_thermal`]).
    pub kind: String,
    /// Core count the preset is instantiated for.
    pub cores: usize,
}

impl PlatformSpec {
    /// Lowers onto the platform preset.
    ///
    /// # Errors
    ///
    /// [`SpecError::Unknown`] for an unknown preset family.
    pub fn lower(&self) -> Result<PlatformConfig, SpecError> {
        match self.kind.as_str() {
            "bus" => Ok(PlatformConfig::paper_bus(self.cores)),
            "noc" => Ok(PlatformConfig::paper_noc(self.cores)),
            "thermal" => Ok(PlatformConfig::paper_thermal(self.cores)),
            other => Err(SpecError::Unknown { what: "platform kind", got: other.to_string() }),
        }
    }

    fn label(&self) -> String {
        format!("{}{}", self.kind, self.cores)
    }

    fn to_json(&self) -> String {
        JsonObject::line().str("kind", &self.kind).raw("cores", self.cores).finish()
    }

    fn from_value(v: &JsonValue) -> Result<PlatformSpec, SpecError> {
        let r = Reader::new(v, "platform")?;
        r.check_known(&["kind", "cores"])?;
        let spec = PlatformSpec {
            kind: r.req_str("kind")?.to_string(),
            cores: r.opt_usize("cores")?.ok_or(SpecError::Missing { object: "platform", field: "cores" })?,
        };
        // Validate the family eagerly so a bad spec fails at parse time.
        spec.lower()?;
        Ok(spec)
    }
}

/// Wire form of the thermal meshing knobs: overrides applied on top of
/// [`GridConfig::default`]. Only the fields a design-space sweep varies
/// are expressible; everything else keeps the paper's defaults.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MeshSpec {
    /// Ambient temperature, K.
    pub ambient_k: Option<f64>,
    /// Silicon layers in z.
    pub si_layers: Option<usize>,
    /// Copper-spreader layers in z.
    pub cu_layers: Option<usize>,
    /// Subdivision of a normal component.
    pub default_div: Option<usize>,
    /// Subdivision of a `hot` component.
    pub hot_div: Option<usize>,
    /// Filler tiling pitch, µm.
    pub filler_pitch_um: Option<f64>,
    /// Package-to-air resistance, K/W.
    pub package_to_air: Option<f64>,
    /// Semi-implicit substep length, seconds.
    pub dt_s: Option<f64>,
}

impl MeshSpec {
    const FIELDS: [&'static str; 8] = [
        "ambient_k",
        "si_layers",
        "cu_layers",
        "default_div",
        "hot_div",
        "filler_pitch_um",
        "package_to_air",
        "dt_s",
    ];

    /// Lowers onto a [`GridConfig`] (defaults plus the set overrides).
    /// Validation happens where it always does — when the scenario builds
    /// its thermal grid — so a bad mesh is a per-point typed error.
    #[must_use]
    pub fn lower(&self) -> GridConfig {
        let mut g = GridConfig::default();
        if let Some(v) = self.ambient_k {
            g.ambient_k = v;
        }
        if let Some(v) = self.si_layers {
            g.si_layers = v;
        }
        if let Some(v) = self.cu_layers {
            g.cu_layers = v;
        }
        if let Some(v) = self.default_div {
            g.default_div = v;
        }
        if let Some(v) = self.hot_div {
            g.hot_div = v;
        }
        if let Some(v) = self.filler_pitch_um {
            g.filler_pitch_um = v;
        }
        if let Some(v) = self.package_to_air {
            g.package_to_air = v;
        }
        if let Some(dt) = self.dt_s {
            g.integrator = Integrator::SemiImplicit { dt };
        }
        g
    }

    /// Writes the set fields (plus `extra` leading fields, used by the
    /// `meshes` axis to prepend the point name).
    fn fields_json(&self, writer: JsonObject) -> String {
        writer
            .opt_raw("ambient_k", self.ambient_k.map(JsonValue::Num))
            .opt_raw("si_layers", self.si_layers)
            .opt_raw("cu_layers", self.cu_layers)
            .opt_raw("default_div", self.default_div)
            .opt_raw("hot_div", self.hot_div)
            .opt_raw("filler_pitch_um", self.filler_pitch_um.map(JsonValue::Num))
            .opt_raw("package_to_air", self.package_to_air.map(JsonValue::Num))
            .opt_raw("dt_s", self.dt_s.map(JsonValue::Num))
            .finish()
    }

    fn to_json(&self) -> String {
        self.fields_json(JsonObject::line())
    }

    fn read(r: &Reader<'_>) -> Result<MeshSpec, SpecError> {
        Ok(MeshSpec {
            ambient_k: r.opt_f64("ambient_k")?,
            si_layers: r.opt_usize("si_layers")?,
            cu_layers: r.opt_usize("cu_layers")?,
            default_div: r.opt_usize("default_div")?,
            hot_div: r.opt_usize("hot_div")?,
            filler_pitch_um: r.opt_f64("filler_pitch_um")?,
            package_to_air: r.opt_f64("package_to_air")?,
            dt_s: r.opt_f64("dt_s")?,
        })
    }

    fn from_value(v: &JsonValue) -> Result<MeshSpec, SpecError> {
        let r = Reader::new(v, "mesh")?;
        r.check_known(&MeshSpec::FIELDS)?;
        MeshSpec::read(&r)
    }
}

// ---------------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------------

/// Wire form of one [`Scenario`]: a named preset plus overrides (see the
/// module docs for the lowering order). All fields default to "keep what
/// the preset chose".
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ScenarioSpec {
    /// Scenario preset: `"new"` (default), `"paper_fig6"`,
    /// `"paper_fig6_unmanaged"`, `"thermal_stress"`, `"exploration_bus"`,
    /// `"exploration_noc"`.
    pub preset: Option<String>,
    /// The preset's parameter: iterations for `thermal_stress`, cores for
    /// the exploration presets.
    pub preset_arg: Option<u64>,
    /// Display name override ([`Scenario::name`]; excluded from the
    /// content key).
    pub name: Option<String>,
    /// Core-count retarget ([`Scenario::cores`]).
    pub cores: Option<usize>,
    /// Workload replacement.
    pub workload: Option<WorkloadSpec>,
    /// DFS policy replacement (explicit `"none"` = unmanaged).
    pub dfs: Option<DfsSpec>,
    /// Statistics sampling window, virtual seconds.
    pub sampling_window_s: Option<f64>,
    /// Thermal meshing overrides.
    pub mesh: Option<MeshSpec>,
    /// Implicit-solver choice (`"gs"`, `"mg"`, `"auto"`).
    pub solver: Option<ImplicitSolve>,
    /// Strict solver convergence ([`Scenario::strict_convergence`]).
    pub strict_convergence: Option<bool>,
    /// Run exactly this many sampling windows (mutually exclusive with
    /// `to_halt`).
    pub windows: Option<u64>,
    /// Run to halt, capped at this many windows.
    pub to_halt: Option<u64>,
    /// Gate the build on the paper's Virtex-2 Pro VP30.
    pub check_fit_v2vp30: bool,
}

impl ScenarioSpec {
    const FIELDS: [&'static str; 13] = [
        "preset",
        "preset_arg",
        "name",
        "cores",
        "workload",
        "dfs",
        "sampling_window_s",
        "mesh",
        "solver",
        "strict_convergence",
        "windows",
        "to_halt",
        "check_fit_v2vp30",
    ];

    /// A spec selecting a preset by name, no overrides.
    #[must_use]
    pub fn preset(name: &str) -> ScenarioSpec {
        ScenarioSpec { preset: Some(name.to_string()), ..ScenarioSpec::default() }
    }

    /// A spec selecting a parameterized preset.
    #[must_use]
    pub fn preset_with(name: &str, arg: u64) -> ScenarioSpec {
        ScenarioSpec { preset: Some(name.to_string()), preset_arg: Some(arg), ..ScenarioSpec::default() }
    }

    /// Lowers the spec onto the fluent builder (see the module docs for
    /// the application order).
    ///
    /// # Errors
    ///
    /// [`TemuError::Spec`] for an unknown preset, a missing/invalid preset
    /// argument, or both budgets set; [`TemuError::Platform`] for a
    /// malformed DFS ladder.
    pub fn lower(&self) -> Result<Scenario, TemuError> {
        let preset = self.preset.as_deref().unwrap_or("new");
        let arg = |field: &'static str| {
            self.preset_arg.ok_or(SpecError::Missing { object: "scenario", field })
        };
        let mut s = match preset {
            "new" => Scenario::new(),
            "paper_fig6" => Scenario::paper_fig6(),
            "paper_fig6_unmanaged" => Scenario::paper_fig6_unmanaged(),
            "thermal_stress" => {
                let iters = u32::try_from(arg("preset_arg (iterations)")?).map_err(|_| {
                    SpecError::Bad {
                        object: "scenario",
                        field: String::from("preset_arg"),
                        detail: String::from("thermal_stress iterations must fit in 32 bits"),
                    }
                })?;
                Scenario::thermal_stress(iters)
            }
            "exploration_bus" => Scenario::exploration_bus(arg("preset_arg (cores)")? as usize),
            "exploration_noc" => Scenario::exploration_noc(arg("preset_arg (cores)")? as usize),
            other => {
                return Err(SpecError::Unknown { what: "scenario preset", got: other.to_string() }.into())
            }
        };
        if let Some(n) = self.cores {
            s = s.cores(n);
        }
        if let Some(w) = &self.workload {
            s = s.workload(w.lower());
        }
        if let Some(dfs) = &self.dfs {
            s = match dfs.lower()? {
                Some(policy) => s.policy(policy),
                None => s.no_policy(),
            };
        }
        if let Some(window) = self.sampling_window_s {
            s = s.sampling_window_s(window);
        }
        if let Some(mesh) = &self.mesh {
            s = s.grid(mesh.lower());
        }
        if let Some(solve) = self.solver {
            s = s.implicit_solve(solve);
        }
        if let Some(strict) = self.strict_convergence {
            s = s.strict_convergence(strict);
        }
        match (self.windows, self.to_halt) {
            (Some(_), Some(_)) => {
                return Err(SpecError::Bad {
                    object: "scenario",
                    field: String::from("windows"),
                    detail: String::from("\"windows\" and \"to_halt\" are mutually exclusive"),
                }
                .into())
            }
            (Some(n), None) => s = s.windows(n),
            (None, Some(max)) => s = s.to_halt(max),
            (None, None) => {}
        }
        if self.check_fit_v2vp30 {
            s = s.check_fit_v2vp30();
        }
        if let Some(name) = &self.name {
            s = s.name(name.clone());
        }
        Ok(s)
    }

    /// Serializes the spec as one JSON object (only the set fields).
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::line()
            .opt_str("preset", self.preset.as_deref())
            .opt_raw("preset_arg", self.preset_arg)
            .opt_str("name", self.name.as_deref())
            .opt_raw("cores", self.cores)
            .opt_raw("workload", self.workload.as_ref().map(WorkloadSpec::to_json))
            .opt_raw("dfs", self.dfs.as_ref().map(DfsSpec::to_json))
            .opt_raw("sampling_window_s", self.sampling_window_s.map(JsonValue::Num))
            .opt_raw("mesh", self.mesh.as_ref().map(MeshSpec::to_json))
            .opt_str("solver", self.solver.map(solve_tag))
            .opt_raw("strict_convergence", self.strict_convergence)
            .opt_raw("windows", self.windows)
            .opt_raw("to_halt", self.to_halt)
            .opt_raw("check_fit_v2vp30", self.check_fit_v2vp30.then_some(true))
            .finish()
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`TemuError::Spec`] describing the first problem.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, TemuError> {
        let v = JsonValue::parse(text).map_err(SpecError::Json)?;
        Ok(ScenarioSpec::from_value(&v)?)
    }

    /// Parses a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first problem.
    pub fn from_value(v: &JsonValue) -> Result<ScenarioSpec, SpecError> {
        let r = Reader::new(v, "scenario")?;
        r.check_known(&ScenarioSpec::FIELDS)?;
        Ok(ScenarioSpec {
            preset: r.opt_str("preset")?.map(String::from),
            preset_arg: r.opt_u64("preset_arg")?,
            name: r.opt_str("name")?.map(String::from),
            cores: r.opt_usize("cores")?,
            workload: r.get("workload").map(WorkloadSpec::from_value).transpose()?,
            dfs: r.get("dfs").map(DfsSpec::from_value).transpose()?,
            sampling_window_s: r.opt_f64("sampling_window_s")?,
            mesh: r.get("mesh").map(MeshSpec::from_value).transpose()?,
            solver: r.opt_str("solver")?.map(parse_solve).transpose()?,
            strict_convergence: r.opt_bool("strict_convergence")?,
            windows: r.opt_u64("windows")?,
            to_halt: r.opt_u64("to_halt")?,
            check_fit_v2vp30: r.opt_bool("check_fit_v2vp30")?.unwrap_or(false),
        })
    }
}

// ---------------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------------

/// Wire form of one [`Sweep`] axis. Each variant lowers onto the
/// corresponding builder axis; list order in [`SweepSpec::axes`] is grid
/// order (first axis slowest-varying).
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum AxisSpec {
    /// [`Sweep::cores`].
    Cores(Vec<usize>),
    /// [`Sweep::windows`].
    Windows(Vec<u64>),
    /// [`Sweep::dfs_bands`]: two-level policies between shared
    /// frequencies, built per grid point (a bad pair is that point's typed
    /// error).
    DfsBands {
        /// `(hot_k, cool_k)` threshold pairs, one per grid point.
        bands: Vec<(f64, f64)>,
        /// Fast clock, Hz.
        high_hz: u64,
        /// Throttled clock, Hz.
        low_hz: u64,
    },
    /// [`Sweep::dfs_ladders`]: shared levels, per-point band sets.
    DfsLadders {
        /// Clock levels, Hz, strictly descending.
        levels_hz: Vec<u64>,
        /// One band set per grid point.
        band_sets: Vec<Vec<DfsBand>>,
    },
    /// [`Sweep::dfs_policies`]: fully-described policy choices (built
    /// eagerly when the spec lowers).
    DfsPolicies(Vec<DfsSpec>),
    /// A platform-preset axis (the wire form of the §7
    /// bus-vs-NoC exploration).
    Platforms(Vec<PlatformSpec>),
    /// [`Sweep::meshes`]: named meshing-override points.
    Meshes(Vec<(String, MeshSpec)>),
    /// [`Sweep::workloads`].
    Workloads(Vec<WorkloadSpec>),
    /// [`Sweep::implicit_solves`].
    Solvers(Vec<ImplicitSolve>),
}

impl AxisSpec {
    /// Applies this axis to a sweep under construction.
    fn apply(&self, sweep: Sweep) -> Result<Sweep, TemuError> {
        Ok(match self {
            AxisSpec::Cores(values) => sweep.cores(values),
            AxisSpec::Windows(values) => sweep.windows(values),
            AxisSpec::DfsBands { bands, high_hz, low_hz } => sweep.dfs_bands(bands, *high_hz, *low_hz),
            AxisSpec::DfsLadders { levels_hz, band_sets } => {
                sweep.dfs_ladders(levels_hz.clone(), band_sets.clone())
            }
            AxisSpec::DfsPolicies(specs) => {
                let policies = specs.iter().map(DfsSpec::lower).collect::<Result<Vec<_>, _>>()?;
                sweep.dfs_policies(policies)
            }
            AxisSpec::Platforms(specs) => {
                let resolved = specs
                    .iter()
                    .map(|p| Ok((p.label(), p.lower()?)))
                    .collect::<Result<Vec<(String, PlatformConfig)>, SpecError>>()?;
                sweep.axis("platform", resolved, |(label, _)| label.clone(), |s, (_, platform)| {
                    Ok(s.platform(platform.clone()))
                })
            }
            AxisSpec::Meshes(points) => {
                sweep.meshes(points.iter().map(|(name, m)| (name.clone(), m.lower())).collect())
            }
            AxisSpec::Workloads(specs) => sweep.workloads(specs.iter().map(WorkloadSpec::lower).collect()),
            AxisSpec::Solvers(values) => sweep.implicit_solves(values),
        })
    }

    fn to_json(&self) -> String {
        match self {
            AxisSpec::Cores(values) => {
                JsonObject::line().str("axis", "cores").raw("values", json_array(values.iter())).finish()
            }
            AxisSpec::Windows(values) => JsonObject::line()
                .str("axis", "windows")
                .raw("values", json_array(values.iter()))
                .finish(),
            AxisSpec::DfsBands { bands, high_hz, low_hz } => JsonObject::line()
                .str("axis", "dfs_bands")
                .raw(
                    "bands",
                    json_array(bands.iter().map(|(hot, cool)| band_pair(*hot, *cool))),
                )
                .raw("high_hz", high_hz)
                .raw("low_hz", low_hz)
                .finish(),
            AxisSpec::DfsLadders { levels_hz, band_sets } => JsonObject::line()
                .str("axis", "dfs_ladders")
                .raw("levels_hz", json_array(levels_hz.iter()))
                .raw("band_sets", json_array(band_sets.iter().map(|set| bands_array(set))))
                .finish(),
            AxisSpec::DfsPolicies(specs) => JsonObject::line()
                .str("axis", "dfs_policies")
                .raw("values", json_array(specs.iter().map(DfsSpec::to_json)))
                .finish(),
            AxisSpec::Platforms(specs) => JsonObject::line()
                .str("axis", "platforms")
                .raw("values", json_array(specs.iter().map(PlatformSpec::to_json)))
                .finish(),
            AxisSpec::Meshes(points) => JsonObject::line()
                .str("axis", "meshes")
                .raw(
                    "values",
                    json_array(
                        points.iter().map(|(name, m)| m.fields_json(JsonObject::line().str("name", name))),
                    ),
                )
                .finish(),
            AxisSpec::Workloads(specs) => JsonObject::line()
                .str("axis", "workloads")
                .raw("values", json_array(specs.iter().map(WorkloadSpec::to_json)))
                .finish(),
            AxisSpec::Solvers(values) => JsonObject::line()
                .str("axis", "solvers")
                .raw("values", json_array(values.iter().map(|s| format!("\"{}\"", solve_tag(*s)))))
                .finish(),
        }
    }

    fn from_value(v: &JsonValue) -> Result<AxisSpec, SpecError> {
        let r = Reader::new(v, "axis")?;
        let axis = r.req_str("axis")?;
        let values = || r.req_arr("values");
        match axis {
            "cores" => {
                r.check_known(&["axis", "values"])?;
                Ok(AxisSpec::Cores(
                    values()?
                        .iter()
                        .map(|v| spec_usize(v).ok_or_else(|| r.bad("values", "core counts", v)))
                        .collect::<Result<_, _>>()?,
                ))
            }
            "windows" => {
                r.check_known(&["axis", "values"])?;
                Ok(AxisSpec::Windows(
                    values()?
                        .iter()
                        .map(|v| spec_u64(v).ok_or_else(|| r.bad("values", "window counts below 2^53", v)))
                        .collect::<Result<_, _>>()?,
                ))
            }
            "dfs_bands" => {
                r.check_known(&["axis", "bands", "high_hz", "low_hz"])?;
                Ok(AxisSpec::DfsBands {
                    bands: r
                        .req_arr("bands")?
                        .iter()
                        .map(|b| parse_band("axis", b).map(|b| (b.hot_k, b.cool_k)))
                        .collect::<Result<_, _>>()?,
                    high_hz: r.req_u64("high_hz")?,
                    low_hz: r.req_u64("low_hz")?,
                })
            }
            "dfs_ladders" => {
                r.check_known(&["axis", "levels_hz", "band_sets"])?;
                Ok(AxisSpec::DfsLadders {
                    levels_hz: r
                        .req_arr("levels_hz")?
                        .iter()
                        .map(|v| spec_u64(v).ok_or_else(|| r.bad("levels_hz", "Hz integers below 2^53", v)))
                        .collect::<Result<_, _>>()?,
                    band_sets: r
                        .req_arr("band_sets")?
                        .iter()
                        .map(|set| {
                            set.as_arr()
                                .ok_or_else(|| r.bad("band_sets", "arrays of bands", set))?
                                .iter()
                                .map(|b| parse_band("axis", b))
                                .collect::<Result<Vec<DfsBand>, SpecError>>()
                        })
                        .collect::<Result<_, _>>()?,
                })
            }
            "dfs_policies" => {
                r.check_known(&["axis", "values"])?;
                Ok(AxisSpec::DfsPolicies(
                    values()?.iter().map(DfsSpec::from_value).collect::<Result<_, _>>()?,
                ))
            }
            "platforms" => {
                r.check_known(&["axis", "values"])?;
                Ok(AxisSpec::Platforms(
                    values()?.iter().map(PlatformSpec::from_value).collect::<Result<_, _>>()?,
                ))
            }
            "meshes" => {
                r.check_known(&["axis", "values"])?;
                Ok(AxisSpec::Meshes(
                    values()?
                        .iter()
                        .map(|point| {
                            let pr = Reader::new(point, "mesh point")?;
                            let mut known = vec!["name"];
                            known.extend_from_slice(&MeshSpec::FIELDS);
                            pr.check_known(&known)?;
                            Ok((pr.req_str("name")?.to_string(), MeshSpec::read(&pr)?))
                        })
                        .collect::<Result<_, SpecError>>()?,
                ))
            }
            "workloads" => {
                r.check_known(&["axis", "values"])?;
                Ok(AxisSpec::Workloads(
                    values()?.iter().map(WorkloadSpec::from_value).collect::<Result<_, _>>()?,
                ))
            }
            "solvers" => {
                r.check_known(&["axis", "values"])?;
                Ok(AxisSpec::Solvers(
                    values()?
                        .iter()
                        .map(|v| {
                            v.as_str()
                                .ok_or_else(|| r.bad("values", "solver tags", v))
                                .and_then(parse_solve)
                        })
                        .collect::<Result<_, _>>()?,
                ))
            }
            other => Err(SpecError::Unknown { what: "sweep axis", got: other.to_string() }),
        }
    }
}

/// Wire form of one [`Sweep`]: a named base scenario plus axes.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepSpec {
    /// The sweep's name (prefixed onto every point's scenario name).
    pub name: String,
    /// The base scenario every grid point starts from.
    pub base: ScenarioSpec,
    /// The grid axes, first slowest-varying.
    pub axes: Vec<AxisSpec>,
    /// Campaign worker-thread override for executed points.
    pub threads: Option<usize>,
}

/// The named sweep presets [`SweepSpec::named`] resolves, with one-line
/// descriptions (shared by `temu-client --preset` and the `temu-bench`
/// `sweep` bin).
pub const NAMED_SWEEPS: &[(&str, &str)] = &[
    ("smoke", "8-point strict-convergence grid (tiny workloads × gs/mg) — the check.sh gate"),
    ("ladder", "DFS frequency ladders (none/2/3/4-level) × run budgets on the Fig. 6 stress workload (heavy: minutes/point on one core)"),
    ("mesh", "mesh resolution × implicit solver, strict convergence (6 points)"),
    ("explore", "platform (bus/NoC) × workload × core count (the §7 exploration, 12 points)"),
    ("grid100", "100-point grid of tiny scenarios (cache/incremental-rerun demo)"),
];

/// The tiny near-instant workload the smoke/grid presets sweep over.
fn tiny_workload(iters: u32) -> WorkloadSpec {
    WorkloadSpec::Matrix { n: 4, iters, cores: 1 }
}

/// One-core half-millisecond-window base scenario for the tiny grids.
fn tiny_base() -> ScenarioSpec {
    ScenarioSpec {
        cores: Some(1),
        workload: Some(tiny_workload(1)),
        sampling_window_s: Some(0.0005),
        windows: Some(2),
        ..ScenarioSpec::default()
    }
}

impl SweepSpec {
    /// A sweep spec with no axes yet.
    #[must_use]
    pub fn new(name: impl Into<String>, base: ScenarioSpec) -> SweepSpec {
        SweepSpec { name: name.into(), base, axes: Vec::new(), threads: None }
    }

    /// Resolves one of the named sweep presets (see [`NAMED_SWEEPS`]).
    #[must_use]
    pub fn named(name: &str) -> Option<SweepSpec> {
        let spec = match name {
            "smoke" => SweepSpec {
                name: String::from("smoke"),
                base: ScenarioSpec { strict_convergence: Some(true), ..tiny_base() },
                axes: vec![
                    AxisSpec::Workloads((1..=4).map(tiny_workload).collect()),
                    AxisSpec::Solvers(vec![ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid]),
                ],
                threads: None,
            },
            "ladder" => {
                let three = DfsSpec::Ladder {
                    levels_hz: vec![500_000_000, 250_000_000, 100_000_000],
                    bands: vec![
                        DfsBand { hot_k: 345.0, cool_k: 335.0 },
                        DfsBand { hot_k: 355.0, cool_k: 345.0 },
                    ],
                };
                let four = DfsSpec::Ladder {
                    levels_hz: vec![500_000_000, 333_000_000, 250_000_000, 100_000_000],
                    bands: vec![
                        DfsBand { hot_k: 342.0, cool_k: 334.0 },
                        DfsBand { hot_k: 350.0, cool_k: 341.0 },
                        DfsBand { hot_k: 358.0, cool_k: 349.0 },
                    ],
                };
                SweepSpec {
                    name: String::from("ladder"),
                    base: ScenarioSpec::preset("paper_fig6_unmanaged"),
                    axes: vec![
                        AxisSpec::DfsPolicies(vec![DfsSpec::Unmanaged, DfsSpec::paper(), three, four]),
                        AxisSpec::Windows(vec![150, 300]),
                    ],
                    threads: None,
                }
            }
            "mesh" => SweepSpec {
                name: String::from("mesh"),
                base: ScenarioSpec {
                    sampling_window_s: Some(0.002),
                    strict_convergence: Some(true),
                    ..ScenarioSpec::preset_with("exploration_bus", 2)
                },
                axes: vec![
                    AxisSpec::Meshes(vec![
                        (String::from("paper"), MeshSpec::default()),
                        (
                            String::from("fine"),
                            MeshSpec {
                                default_div: Some(3),
                                hot_div: Some(5),
                                filler_pitch_um: Some(600.0),
                                ..MeshSpec::default()
                            },
                        ),
                        (
                            String::from("xfine"),
                            MeshSpec {
                                default_div: Some(4),
                                hot_div: Some(7),
                                filler_pitch_um: Some(400.0),
                                ..MeshSpec::default()
                            },
                        ),
                    ]),
                    AxisSpec::Solvers(vec![ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid]),
                ],
                threads: None,
            },
            "explore" => SweepSpec {
                name: String::from("explore"),
                base: ScenarioSpec { sampling_window_s: Some(0.002), ..ScenarioSpec::default() },
                axes: vec![
                    AxisSpec::Platforms(vec![
                        PlatformSpec { kind: String::from("bus"), cores: 4 },
                        PlatformSpec { kind: String::from("noc"), cores: 4 },
                    ]),
                    AxisSpec::Workloads(vec![
                        WorkloadSpec::Matrix { n: 8, iters: 1, cores: 4 },
                        WorkloadSpec::Dithering { width: 64, height: 64, images: 2, cores: 4, seed: 7 },
                    ]),
                    AxisSpec::Cores(vec![1, 2, 4]),
                ],
                threads: None,
            },
            "grid100" => SweepSpec {
                name: String::from("grid100"),
                base: tiny_base(),
                axes: vec![
                    AxisSpec::Workloads((1..=5).map(tiny_workload).collect()),
                    AxisSpec::DfsBands {
                        bands: vec![
                            (340.0, 330.0),
                            (345.0, 335.0),
                            (350.0, 340.0),
                            (355.0, 345.0),
                            (360.0, 350.0),
                        ],
                        high_hz: 500_000_000,
                        low_hz: 100_000_000,
                    },
                    AxisSpec::Solvers(vec![ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid]),
                    AxisSpec::Windows(vec![1, 2]),
                ],
                threads: None,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Lowers the spec onto the fluent [`Sweep`] builder.
    ///
    /// # Errors
    ///
    /// [`TemuError::Spec`] from the base scenario or an axis;
    /// [`TemuError::Platform`] for an eagerly-built malformed DFS policy.
    pub fn lower(&self) -> Result<Sweep, TemuError> {
        let mut sweep = Sweep::new(self.name.clone(), self.base.lower()?);
        for axis in &self.axes {
            sweep = axis.apply(sweep)?;
        }
        if let Some(threads) = self.threads {
            sweep = sweep.threads(threads);
        }
        Ok(sweep)
    }

    /// Serializes the spec as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::line()
            .str("sweep", &self.name)
            .opt_raw("threads", self.threads)
            .raw("base", self.base.to_json())
            .raw("axes", json_array(self.axes.iter().map(AxisSpec::to_json)))
            .finish()
    }

    /// The content key of every grid point, in expansion order
    /// ([`Sweep::expand`]): `Some(key)` for well-formed points, `None`
    /// for points whose axis application fails (those carry a typed
    /// per-point error when run). This is the spec-level view of the
    /// cache's addressing — what a fleet front-end shards on.
    ///
    /// # Errors
    ///
    /// The same lowering errors as [`SweepSpec::lower`]: a malformed
    /// *base* fails the whole spec, while a malformed *point* is just
    /// `None` in its slot.
    pub fn point_keys(&self) -> Result<Vec<Option<u64>>, TemuError> {
        Ok(self.lower()?.expand().iter().map(|p| p.key).collect())
    }

    /// One stable content key for the *whole* sweep: FNV-1a over the
    /// grid-point keys in expansion order (a marker byte distinguishes
    /// malformed points). Like [`Scenario::content_key`] it depends only
    /// on what would execute — not on the sweep's display name or thread
    /// count — so a renamed resubmission of the same grid hashes
    /// identically. The fleet router rendezvous-hashes this key to pick
    /// the member that owns (and caches) the sweep.
    ///
    /// # Errors
    ///
    /// The same lowering errors as [`SweepSpec::lower`].
    pub fn content_key(&self) -> Result<u64, TemuError> {
        let keys = self.point_keys()?;
        let mut bytes = Vec::with_capacity(keys.len() * 9);
        for key in keys {
            match key {
                Some(k) => {
                    bytes.push(1u8);
                    bytes.extend_from_slice(&k.to_le_bytes());
                }
                None => bytes.push(0u8),
            }
        }
        Ok(crate::sweep::fnv1a64(&bytes))
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`TemuError::Spec`] describing the first problem.
    pub fn from_json(text: &str) -> Result<SweepSpec, TemuError> {
        let v = JsonValue::parse(text).map_err(SpecError::Json)?;
        Ok(SweepSpec::from_value(&v)?)
    }

    /// Parses a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first problem.
    pub fn from_value(v: &JsonValue) -> Result<SweepSpec, SpecError> {
        let r = Reader::new(v, "sweep")?;
        r.check_known(&["sweep", "base", "axes", "threads"])?;
        let base = match r.get("base") {
            Some(b) => ScenarioSpec::from_value(b)?,
            None => ScenarioSpec::default(),
        };
        let axes = match r.get("axes") {
            Some(v) => v
                .as_arr()
                .ok_or_else(|| r.bad("axes", "an array of axis objects", v))?
                .iter()
                .map(AxisSpec::from_value)
                .collect::<Result<Vec<AxisSpec>, SpecError>>()?,
            None => Vec::new(),
        };
        Ok(SweepSpec { name: r.req_str("sweep")?.to_string(), base, axes, threads: r.opt_usize("threads")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_lowers_to_the_default_scenario() {
        let spec = ScenarioSpec::default();
        assert_eq!(spec.lower().unwrap().content_key(), Scenario::new().content_key());
        assert_eq!(spec.to_json(), "{}");
        assert_eq!(ScenarioSpec::from_json("{}").unwrap(), spec);
    }

    #[test]
    fn sweep_content_key_tracks_the_grid_not_the_name() {
        let spec = SweepSpec::named("smoke").unwrap();
        let keys = spec.point_keys().unwrap();
        assert_eq!(keys.len(), spec.lower().unwrap().n_points());
        assert!(keys.iter().all(Option::is_some), "every smoke point is well-formed");

        let mut renamed = spec.clone();
        renamed.name = String::from("renamed");
        renamed.threads = Some(3);
        assert_eq!(
            spec.content_key().unwrap(),
            renamed.content_key().unwrap(),
            "name and threads do not change what executes"
        );
        let other = SweepSpec::named("ladder").unwrap();
        assert_ne!(spec.content_key().unwrap(), other.content_key().unwrap());
    }

    #[test]
    fn unknown_fields_and_tags_are_typed_errors() {
        let e = ScenarioSpec::from_json("{\"platfrom\": 4}").unwrap_err();
        assert!(matches!(e, TemuError::Spec(SpecError::Unknown { .. })), "{e}");
        let e = ScenarioSpec::from_json("{\"preset\": \"nope\"}").unwrap().lower().unwrap_err();
        assert!(matches!(e, TemuError::Spec(SpecError::Unknown { .. })), "{e}");
        let e = ScenarioSpec::from_json("not json").unwrap_err();
        assert!(matches!(e, TemuError::Spec(SpecError::Json(_))), "{e}");
        let e = SweepSpec::from_json("{\"sweep\": \"x\", \"axes\": [{\"axis\": \"nope\"}]}").unwrap_err();
        assert!(matches!(e, TemuError::Spec(SpecError::Unknown { .. })), "{e}");
    }

    #[test]
    fn integers_from_2_pow_53_are_refused_not_rounded() {
        let with_seed = |seed: &str| {
            format!(
                "{{\"workload\": {{\"kind\": \"dithering\", \"width\": 16, \"height\": 16, \
                 \"images\": 1, \"cores\": 1, \"seed\": {seed}}}}}"
            )
        };
        // 2^53 + 1 reads back as the f64 2^53: it would run, and be
        // cached, as a different seed.
        let e = ScenarioSpec::from_json(&with_seed("9007199254740993")).unwrap_err();
        assert!(matches!(e, TemuError::Spec(SpecError::Bad { .. })), "{e}");
        let windows =
            "{\"sweep\": \"x\", \"axes\": [{\"axis\": \"windows\", \"values\": [9007199254740992]}]}";
        let e = SweepSpec::from_json(windows).unwrap_err();
        assert!(matches!(e, TemuError::Spec(SpecError::Bad { .. })), "list reads share the bound: {e}");

        // 2^53 − 1 is the largest exact spec integer: it arrives intact and
        // round-trips with an unchanged content key.
        let spec = ScenarioSpec::from_json(&with_seed("9007199254740991")).unwrap();
        assert!(matches!(spec.workload, Some(WorkloadSpec::Dithering { seed, .. }) if seed == (1 << 53) - 1));
        let round = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
        assert_eq!(round.lower().unwrap().content_key(), spec.lower().unwrap().content_key());
    }

    #[test]
    fn both_budgets_reject() {
        let spec = ScenarioSpec { windows: Some(2), to_halt: Some(3), ..ScenarioSpec::default() };
        assert!(matches!(spec.lower().unwrap_err(), TemuError::Spec(SpecError::Bad { .. })));
    }

    #[test]
    fn every_named_sweep_parses_and_lowers() {
        for (name, _) in NAMED_SWEEPS {
            let spec = SweepSpec::named(name).expect("preset exists");
            let sweep = spec.lower().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(sweep.n_points() > 0, "{name} expands to a non-empty grid");
            let round = SweepSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(round, spec, "{name} survives the JSON round trip");
        }
        assert_eq!(SweepSpec::named("smoke").unwrap().lower().unwrap().n_points(), 8);
        assert_eq!(SweepSpec::named("grid100").unwrap().lower().unwrap().n_points(), 100);
        assert!(SweepSpec::named("nope").is_none());
    }
}
