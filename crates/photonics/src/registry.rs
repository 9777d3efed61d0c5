//! Declarative device registry: runtime-loaded specs for foundry PDK
//! corners, noise/fault priors and named mesh topologies.
//!
//! A *device spec* is a small TOML-like text file (hand-rolled parser —
//! the build environment has no registry access, so no serde) that names
//! everything the workspace otherwise hard-codes in Rust: which PDK a
//! design targets, its loss/crosstalk corner, the phase-noise sigma for
//! variation-aware training, optional coupler/shifter fault priors, and
//! the [`BlockMeshTopology`] family to program. Loading one at runtime
//! replaces a recompile; every parse or validation failure is reported as
//! a [`SpecError`] carrying the 1-based line number.
//!
//! # Grammar
//!
//! Line-oriented: blank lines and `#` comments (outside quotes) are
//! ignored; every other line is either a `[section]` header or a
//! `key = value` binding in the current section. Values are quoted
//! strings, numbers, or `true`/`false`. Unknown sections, unknown keys
//! and duplicate keys are errors. Sections:
//!
//! ```text
//! [device]                      # required
//! name = "amf-butterfly8"       # required
//! description = "…"             # optional
//!
//! [pdk]                         # required
//! name = "amf"                  # "amf" / "aim" = built-in kits (paper
//!                               # Tables 1–2); any other name is a custom
//!                               # kit and must give all three footprints
//! ps_um2 = 6800.0               # custom kits only: device footprints
//! dc_um2 = 1500.0
//! cr_um2 = 64.0
//! insertion_loss_db = 0.2       # optional corner, default 0
//! crosstalk_db = -30.0          # optional corner, default 0
//!
//! [noise]                       # optional
//! phase_sigma = 0.02            # Gaussian phase-drift std (radians)
//!
//! [faults]                      # optional; composes a FaultScenario
//! seed = 7                      # site-draw seed, default 0
//! dead_shifter_p = 0.05         # each prior joins the scenario only
//! stuck_shifter_p = 0.0         # when its knob is active (p > 0,
//! stuck_theta = 1.57            # std > 0, bits > 0), in this fixed
//! dead_coupler_p = 0.01         # order: dead shifters, stuck shifters,
//! thermal_drift_std = 0.0       # dead couplers, thermal drift, phase
//! quant_bits = 0                # quantization
//!
//! [topology]                    # required
//! kind = "butterfly"            # butterfly | dense | custom | mzi
//! k = 8                         # port count (butterfly: power of two)
//! blocks = 4                    # dense only: mesh blocks per unitary
//! block = "0 | 1011 | 1 0 3 2"  # custom only, one per mesh block:
//!                               # dc_start | coupler flags | permutation
//! ```
//!
//! [`DeviceSpec::parse`] validates everything the constructors it feeds
//! would otherwise panic on (probabilities, butterfly power-of-two,
//! permutation bijectivity, …) and returns line-anchored errors instead.
//! Integers, `block` entries and fault priors go through the rules
//! checkpoints share ([`crate::codec`], [`FaultKind::check`]).

use crate::codec::{self, LineError, TextFormat};
use crate::fault::{FaultKind, FaultScenario};
use crate::noise::PhaseNoise;
use crate::pdk::Pdk;
use crate::topology::{BlockMeshTopology, MeshBlock};
use std::path::Path;
use std::str::FromStr;

/// Marks [`LineError`]s of the device-spec format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceSpecText {}

impl TextFormat for DeviceSpecText {
    const NAME: &'static str = "device spec";
}

/// A parse or validation failure, anchored to a spec line (`line == 0`
/// means file-level: missing section, unreadable file). Displays as
/// `device spec line N: …`.
pub type SpecError = LineError<DeviceSpecText>;

/// The mesh family a spec programs, in declarative form.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// Universal MZI mesh baseline with `k × k` tiles.
    Mzi {
        /// Tile port count.
        k: usize,
    },
    /// FFT-ONN butterfly (`k` a power of two ≥ 2).
    Butterfly {
        /// Tile port count.
        k: usize,
    },
    /// Dense identity-routing mesh: `blocks` blocks of alternating
    /// coupler alignment.
    Dense {
        /// Tile port count.
        k: usize,
        /// Mesh blocks per unitary.
        blocks: usize,
    },
    /// Fully explicit block list (one mesh, used for both U and V).
    Custom {
        /// The validated topology.
        topo: BlockMeshTopology,
    },
}

impl TopologySpec {
    /// Tile port count of the described mesh.
    pub fn k(&self) -> usize {
        match self {
            TopologySpec::Mzi { k }
            | TopologySpec::Butterfly { k }
            | TopologySpec::Dense { k, .. } => *k,
            TopologySpec::Custom { topo } => topo.k(),
        }
    }

    /// Materializes the block-mesh topology, or `None` for the MZI
    /// baseline (which is not block-structured).
    pub fn mesh(&self) -> Option<BlockMeshTopology> {
        match self {
            TopologySpec::Mzi { .. } => None,
            TopologySpec::Butterfly { k } => Some(BlockMeshTopology::butterfly(*k)),
            TopologySpec::Dense { k, blocks } => {
                Some(BlockMeshTopology::dense_identity_routing(*k, *blocks))
            }
            TopologySpec::Custom { topo } => Some(topo.clone()),
        }
    }
}

/// One parsed + validated device spec (see the module docs for the
/// grammar).
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Registry name of the device.
    pub name: String,
    /// Free-text description (empty when omitted).
    pub description: String,
    /// The foundry kit (built-in AMF/AIM or a custom one).
    pub pdk: Pdk,
    /// Insertion-loss corner in dB (0 when omitted).
    pub insertion_loss_db: f64,
    /// Crosstalk corner in dB (0 when omitted).
    pub crosstalk_db: f64,
    /// Gaussian phase-drift std in radians (0 when omitted).
    pub phase_noise_sigma: f64,
    /// Composed fault priors (absent without a `[faults]` section or when
    /// every prior is inactive).
    pub faults: Option<FaultScenario>,
    /// The mesh family to program.
    pub topology: TopologySpec,
}

impl DeviceSpec {
    /// Parses and validates a spec from text.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        build(parse_sections(text)?)
    }

    /// Reads and parses a spec file; I/O failures become file-level
    /// [`SpecError`]s naming the path.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::file(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// The spec's phase-drift model.
    pub fn phase_noise(&self) -> PhaseNoise {
        PhaseNoise::new(self.phase_noise_sigma)
    }
}

/// One `key = value` binding.
struct Entry {
    key: String,
    value: String,
    line: usize,
}

/// One `[section]` with its bindings.
struct Section {
    name: String,
    line: usize,
    entries: Vec<Entry>,
}

impl Section {
    fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }

    fn require(&self, key: &str) -> Result<&Entry, SpecError> {
        self.get(key).ok_or_else(|| {
            SpecError::at(
                self.line,
                format!("section [{}] is missing required key `{key}`", self.name),
            )
        })
    }

    fn check_keys(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for e in &self.entries {
            if !allowed.contains(&e.key.as_str()) {
                return Err(SpecError::at(
                    e.line,
                    format!(
                        "unknown key `{}` in [{}] (allowed: {})",
                        e.key,
                        self.name,
                        allowed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Strips a `#` comment, honoring double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_sections(text: &str) -> Result<Vec<Section>, SpecError> {
    let mut sections: Vec<Section> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| {
                    SpecError::at(lineno, format!("unterminated section header `{line}`"))
                })?
                .trim();
            if name.is_empty() {
                return Err(SpecError::at(lineno, "empty section name"));
            }
            if sections.iter().any(|s| s.name == name) {
                return Err(SpecError::at(lineno, format!("duplicate section [{name}]")));
            }
            sections.push(Section {
                name: name.to_owned(),
                line: lineno,
                entries: Vec::new(),
            });
        } else if let Some((key, value)) = line.split_once('=') {
            let (key, value) = (key.trim(), value.trim());
            if key.is_empty() {
                return Err(SpecError::at(lineno, "missing key before `=`"));
            }
            if value.is_empty() {
                return Err(SpecError::at(lineno, format!("key `{key}` has no value")));
            }
            let section = sections.last_mut().ok_or_else(|| {
                SpecError::at(lineno, format!("key `{key}` before any [section] header"))
            })?;
            // `block` may repeat (one entry per mesh block); everything
            // else must bind once.
            if key != "block" && section.get(key).is_some() {
                return Err(SpecError::at(
                    lineno,
                    format!("duplicate key `{key}` in [{}]", section.name),
                ));
            }
            section.entries.push(Entry {
                key: key.to_owned(),
                value: value.to_owned(),
                line: lineno,
            });
        } else {
            return Err(SpecError::at(
                lineno,
                format!("expected `[section]` or `key = value`, got `{line}`"),
            ));
        }
    }
    Ok(sections)
}

fn str_value(e: &Entry) -> Result<String, SpecError> {
    let v = e.value.as_str();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_owned())
    } else {
        Err(SpecError::at(
            e.line,
            format!("key `{}` expects a quoted string, got `{v}`", e.key),
        ))
    }
}

fn f64_value(e: &Entry) -> Result<f64, SpecError> {
    let v: f64 = e.value.parse().map_err(|_| {
        SpecError::at(
            e.line,
            format!("key `{}` expects a number, got `{}`", e.key, e.value),
        )
    })?;
    if !v.is_finite() {
        return Err(SpecError::at(
            e.line,
            format!("key `{}` must be finite, got `{}`", e.key, e.value),
        ));
    }
    Ok(v)
}

fn int_value<T: FromStr>(e: &Entry) -> Result<T, SpecError> {
    codec::int(&e.value).map_err(|m| SpecError::at(e.line, format!("key `{}`: {m}", e.key)))
}

fn build(sections: Vec<Section>) -> Result<DeviceSpec, SpecError> {
    let mut device = None;
    let mut pdk = None;
    let mut noise = None;
    let mut faults = None;
    let mut topology = None;
    for s in &sections {
        match s.name.as_str() {
            "device" => device = Some(s),
            "pdk" => pdk = Some(s),
            "noise" => noise = Some(s),
            "faults" => faults = Some(s),
            "topology" => topology = Some(s),
            other => {
                return Err(SpecError::at(
                    s.line,
                    format!(
                        "unknown section [{other}] (known: device, pdk, noise, faults, topology)"
                    ),
                ))
            }
        }
    }
    let device = device.ok_or_else(|| SpecError::file("missing required section [device]"))?;
    let pdk = pdk.ok_or_else(|| SpecError::file("missing required section [pdk]"))?;
    let topology =
        topology.ok_or_else(|| SpecError::file("missing required section [topology]"))?;

    device.check_keys(&["name", "description"])?;
    let name = str_value(device.require("name")?)?;
    let description = device
        .get("description")
        .map(str_value)
        .transpose()?
        .unwrap_or_default();

    let (pdk, insertion_loss_db, crosstalk_db) = build_pdk(pdk)?;
    let phase_noise_sigma = match noise {
        None => 0.0,
        Some(s) => {
            s.check_keys(&["phase_sigma"])?;
            let e = s.require("phase_sigma")?;
            let sigma = f64_value(e)?;
            if sigma < 0.0 {
                return Err(SpecError::at(
                    e.line,
                    format!("phase_sigma must be ≥ 0, got {sigma}"),
                ));
            }
            sigma
        }
    };
    let faults = faults.map(build_faults).transpose()?.flatten();
    let topology = build_topology(topology)?;

    Ok(DeviceSpec {
        name,
        description,
        pdk,
        insertion_loss_db,
        crosstalk_db,
        phase_noise_sigma,
        faults,
        topology,
    })
}

fn build_pdk(s: &Section) -> Result<(Pdk, f64, f64), SpecError> {
    s.check_keys(&[
        "name",
        "ps_um2",
        "dc_um2",
        "cr_um2",
        "insertion_loss_db",
        "crosstalk_db",
    ])?;
    let name_entry = s.require("name")?;
    let name = str_value(name_entry)?;
    let builtin = match name.to_ascii_lowercase().as_str() {
        "amf" => Some(Pdk::amf()),
        "aim" => Some(Pdk::aim()),
        _ => None,
    };
    let kit = match builtin {
        Some(kit) => {
            for key in ["ps_um2", "dc_um2", "cr_um2"] {
                if let Some(e) = s.get(key) {
                    return Err(SpecError::at(
                        e.line,
                        format!(
                            "built-in PDK \"{name}\" does not take footprint overrides (`{key}`)"
                        ),
                    ));
                }
            }
            kit
        }
        None => {
            let mut footprints = [0.0; 3];
            for (slot, key) in footprints.iter_mut().zip(["ps_um2", "dc_um2", "cr_um2"]) {
                let e = s.require(key)?;
                let v = f64_value(e)?;
                if v <= 0.0 {
                    return Err(SpecError::at(
                        e.line,
                        format!("device footprint `{key}` must be positive, got {v}"),
                    ));
                }
                *slot = v;
            }
            Pdk::custom(name, footprints[0], footprints[1], footprints[2])
        }
    };
    let loss = s
        .get("insertion_loss_db")
        .map(f64_value)
        .transpose()?
        .unwrap_or(0.0);
    let xtalk = s
        .get("crosstalk_db")
        .map(f64_value)
        .transpose()?
        .unwrap_or(0.0);
    Ok((kit, loss, xtalk))
}

/// Composes the fault priors into a [`FaultScenario`] in a fixed order
/// (dead shifters, stuck shifters, dead couplers, thermal drift, phase
/// quantization) so identical specs always fingerprint identically.
/// A prior present with a non-zero value must pass [`FaultKind::check`]
/// and joins the scenario; a zero one is off. Returns `None` when every
/// prior is off.
fn build_faults(s: &Section) -> Result<Option<FaultScenario>, SpecError> {
    s.check_keys(&[
        "seed",
        "dead_shifter_p",
        "stuck_shifter_p",
        "stuck_theta",
        "dead_coupler_p",
        "thermal_drift_std",
        "quant_bits",
    ])?;
    let seed = s.get("seed").map(int_value).transpose()?.unwrap_or(0);
    let mut kinds = Vec::new();
    let mut add = |e: &Entry, kind: FaultKind| -> Result<(), SpecError> {
        kind.check()
            .map_err(|msg| SpecError::at(e.line, format!("`{} = {}`: {msg}", e.key, e.value)))?;
        kinds.push(kind);
        Ok(())
    };
    let nonzero = |key: &str| -> Result<Option<(&Entry, f64)>, SpecError> {
        let Some(e) = s.get(key) else {
            return Ok(None);
        };
        let v = f64_value(e)?;
        Ok((v != 0.0).then_some((e, v)))
    };
    if let Some((e, p)) = nonzero("dead_shifter_p")? {
        add(e, FaultKind::DeadShifter { p })?;
    }
    let theta = s.get("stuck_theta").map(f64_value).transpose()?;
    match nonzero("stuck_shifter_p")? {
        Some((e, p)) => add(
            e,
            FaultKind::StuckShifter {
                p,
                theta: theta.unwrap_or(0.0),
            },
        )?,
        None => {
            if let Some(e) = s.get("stuck_theta") {
                return Err(SpecError::at(
                    e.line,
                    "stuck_theta requires stuck_shifter_p > 0",
                ));
            }
        }
    }
    if let Some((e, p)) = nonzero("dead_coupler_p")? {
        add(e, FaultKind::DeadCoupler { p })?;
    }
    if let Some((e, std)) = nonzero("thermal_drift_std")? {
        add(e, FaultKind::ThermalDrift { std })?;
    }
    if let Some(e) = s.get("quant_bits") {
        let bits = int_value(e)?;
        if bits != 0 {
            add(e, FaultKind::PhaseQuantization { bits })?;
        }
    }
    let scenario = kinds
        .into_iter()
        .fold(FaultScenario::new(seed), FaultScenario::with);
    Ok((!scenario.is_empty()).then_some(scenario))
}

fn build_topology(s: &Section) -> Result<TopologySpec, SpecError> {
    s.check_keys(&["kind", "k", "blocks", "block"])?;
    let kind_entry = s.require("kind")?;
    let kind = str_value(kind_entry)?;
    let k_entry = s.require("k")?;
    let k = int_value(k_entry)?;
    codec::check_k(k).map_err(|m| SpecError::at(k_entry.line, m))?;
    let reject_key = |key: &str| -> Result<(), SpecError> {
        match s.get(key) {
            Some(e) => Err(SpecError::at(
                e.line,
                format!("key `{key}` is not valid for kind \"{kind}\""),
            )),
            None => Ok(()),
        }
    };
    match kind.as_str() {
        "mzi" => {
            reject_key("blocks")?;
            reject_key("block")?;
            Ok(TopologySpec::Mzi { k })
        }
        "butterfly" => {
            reject_key("blocks")?;
            reject_key("block")?;
            if !k.is_power_of_two() {
                return Err(SpecError::at(
                    k_entry.line,
                    format!("butterfly k must be a power of two, got {k}"),
                ));
            }
            Ok(TopologySpec::Butterfly { k })
        }
        "dense" => {
            reject_key("block")?;
            let b_entry = s.require("blocks")?;
            let blocks = int_value(b_entry)?;
            if blocks == 0 {
                return Err(SpecError::at(b_entry.line, "blocks must be ≥ 1"));
            }
            Ok(TopologySpec::Dense { k, blocks })
        }
        "custom" => {
            reject_key("blocks")?;
            let entries: Vec<&Entry> = s.entries.iter().filter(|e| e.key == "block").collect();
            if entries.is_empty() {
                return Err(SpecError::at(
                    s.line,
                    "kind \"custom\" needs at least one `block = \"…\"` entry",
                ));
            }
            let blocks = entries
                .iter()
                .map(|e| parse_block(e, k))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TopologySpec::Custom {
                topo: BlockMeshTopology::new(k, blocks),
            })
        }
        other => Err(SpecError::at(
            kind_entry.line,
            format!("unknown topology kind \"{other}\" (known: butterfly, dense, custom, mzi)"),
        )),
    }
}

/// Parses one `block = "dc_start | coupler flags | permutation"` entry
/// through the shared block parser ([`codec::mesh_block`]).
fn parse_block(e: &Entry, k: usize) -> Result<MeshBlock, SpecError> {
    let text = str_value(e)?;
    let [dc_start, flags, perm] = text.split('|').collect::<Vec<_>>()[..] else {
        return Err(SpecError::at(
            e.line,
            "block must be \"dc_start | coupler flags | permutation\" (two `|` separators)",
        ));
    };
    codec::mesh_block(k, dc_start.trim(), flags, perm.split_whitespace())
        .map_err(|m| SpecError::at(e.line, format!("block \"{text}\": {m}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# An example spec exercising every section.
[device]
name = "lab-custom4"
description = "bench corner"   # trailing comment

[pdk]
name = "labkit"
ps_um2 = 100.0
dc_um2 = 200.0
cr_um2 = 50.0
insertion_loss_db = 0.3
crosstalk_db = -28.5

[noise]
phase_sigma = 0.02

[faults]
seed = 7
dead_shifter_p = 0.05
dead_coupler_p = 0.01
quant_bits = 6

[topology]
kind = "custom"
k = 4
block = "0 | 11 | 1 0 3 2"
block = "1 | 1 | 0 1 2 3"
"#;

    #[test]
    fn full_spec_round_trips() {
        let spec = DeviceSpec::parse(FULL).unwrap();
        assert_eq!(spec.name, "lab-custom4");
        assert_eq!(spec.description, "bench corner");
        assert_eq!(spec.pdk, Pdk::custom("labkit", 100.0, 200.0, 50.0));
        assert_eq!(spec.insertion_loss_db, 0.3);
        assert_eq!(spec.crosstalk_db, -28.5);
        assert_eq!(spec.phase_noise_sigma, 0.02);
        assert_eq!(spec.phase_noise().std(), 0.02);
        let faults = spec.faults.as_ref().expect("active priors");
        assert_eq!(faults.seed(), 7);
        let want = FaultScenario::new(7)
            .with(FaultKind::DeadShifter { p: 0.05 })
            .with(FaultKind::DeadCoupler { p: 0.01 })
            .with(FaultKind::PhaseQuantization { bits: 6 });
        assert_eq!(faults.fingerprint(), want.fingerprint());
        let topo = spec.topology.mesh().unwrap();
        assert_eq!(topo.k(), 4);
        assert_eq!(topo.blocks().len(), 2);
        assert_eq!(topo.blocks()[1].dc_start, 1);
    }

    fn minimal(topology: &str) -> String {
        format!("[device]\nname = \"d\"\n[pdk]\nname = \"amf\"\n[topology]\n{topology}\n")
    }

    #[test]
    fn builtin_pdks_and_named_topologies() {
        let spec = DeviceSpec::parse(&minimal("kind = \"butterfly\"\nk = 8")).unwrap();
        assert_eq!(spec.pdk, Pdk::amf());
        assert!(spec.faults.is_none());
        assert_eq!(spec.phase_noise_sigma, 0.0);
        assert_eq!(spec.topology, TopologySpec::Butterfly { k: 8 });
        assert_eq!(
            spec.topology.mesh().unwrap(),
            BlockMeshTopology::butterfly(8)
        );

        let dense = DeviceSpec::parse(&minimal("kind = \"dense\"\nk = 8\nblocks = 4")).unwrap();
        assert_eq!(dense.topology, TopologySpec::Dense { k: 8, blocks: 4 });
        assert_eq!(
            dense.topology.mesh().unwrap(),
            BlockMeshTopology::dense_identity_routing(8, 4)
        );

        let mzi = DeviceSpec::parse(&minimal("kind = \"mzi\"\nk = 8")).unwrap();
        assert_eq!(mzi.topology.k(), 8);
        assert!(mzi.topology.mesh().is_none());
    }

    /// Every rejection carries the line it was detected on — both
    /// parse-level failures (malformed lines, duplicates) and build-level
    /// validation (unknown keys/sections, types, ranges).
    #[test]
    fn errors_are_line_numbered() {
        // Lines 1–7 of a complete, valid spec; appended sections start at
        // line 8.
        let base =
            "[device]\nname = \"d\"\n[pdk]\nname = \"amf\"\n[topology]\nkind = \"mzi\"\nk = 2\n";
        let weird = format!("{base}[weird]");
        let bogus = format!("{base}[noise]\nphase_sigma = 0.1\nbogus = 1");
        let tall = format!("{base}[noise]\nphase_sigma = tall");
        let out_of_range = format!("{base}[faults]\ndead_shifter_p = 1.5");
        let unquoted =
            "[device]\nname = d\n[pdk]\nname = \"amf\"\n[topology]\nkind = \"mzi\"\nk = 2\n";
        let cases: [(&str, usize, &str); 9] = [
            ("name = \"d\"\n", 1, "before any [section]"),
            ("[device\n", 1, "unterminated section header"),
            (
                "[device]\nname = \"d\"\nname = \"e\"\n",
                3,
                "duplicate key `name`",
            ),
            ("[device]\nnot a binding\n", 2, "expected `[section]`"),
            (&weird, 8, "unknown section [weird]"),
            (&bogus, 10, "unknown key `bogus`"),
            (&tall, 9, "expects a number"),
            (&out_of_range, 9, "must be in [0, 1]"),
            (unquoted, 2, "quoted string"),
        ];
        for (text, line, needle) in cases {
            let err = DeviceSpec::parse(text).unwrap_err();
            assert_eq!(err.line, line, "line for {text:?} ({err})");
            assert!(
                err.message.contains(needle),
                "message for {text:?}: {}",
                err.message
            );
        }
        // Whole-file errors anchor to line 0.
        let err = DeviceSpec::parse("[device]\nname = \"d\"\n").unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.message.contains("missing required section [pdk]"));
        assert!(err.to_string().starts_with("device spec:"));
    }

    /// Constructor panics are pre-validated into line-anchored errors.
    #[test]
    fn constructor_invariants_become_errors() {
        let err = DeviceSpec::parse(&minimal("kind = \"butterfly\"\nk = 6")).unwrap_err();
        assert!(err.message.contains("power of two"), "{err}");
        let err = DeviceSpec::parse(&minimal("kind = \"dense\"\nk = 8\nblocks = 0")).unwrap_err();
        assert!(err.message.contains("blocks must be ≥ 1"), "{err}");
        let err = DeviceSpec::parse(&minimal(
            "kind = \"custom\"\nk = 4\nblock = \"0 | 11 | 1 1 3 2\"",
        ))
        .unwrap_err();
        assert!(err.message.contains("invalid permutation"), "{err}");
        let err = DeviceSpec::parse(&minimal(
            "kind = \"custom\"\nk = 4\nblock = \"0 | 111 | 1 0 3 2\"",
        ))
        .unwrap_err();
        assert!(err.message.contains("coupler flags"), "{err}");
        for (block, needle) in [
            ("2 | 1 | 0 1 2 3", "dc_start must be 0 or 1"),
            ("0 | 1x | 0 1 2 3", "0/1 digits"),
            ("0 | 11 | 0 1 2", "permutation size mismatch"),
            ("-1 | 11 | 0 1 2 3", "expected an integer (usize)"),
        ] {
            let topology = format!("kind = \"custom\"\nk = 4\nblock = \"{block}\"");
            let err = DeviceSpec::parse(&minimal(&topology)).unwrap_err();
            assert!(err.message.contains(needle), "{err}");
        }
        let bad_pdk = "[device]\nname = \"d\"\n[pdk]\nname = \"lab\"\nps_um2 = 0\ndc_um2 = 1\ncr_um2 = 1\n[topology]\nkind = \"mzi\"\nk = 2\n";
        let err = DeviceSpec::parse(bad_pdk).unwrap_err();
        assert!(err.message.contains("must be positive"), "{err}");
        let override_builtin = "[device]\nname = \"d\"\n[pdk]\nname = \"amf\"\nps_um2 = 1.0\n[topology]\nkind = \"mzi\"\nk = 2\n";
        let err = DeviceSpec::parse(override_builtin).unwrap_err();
        assert!(err.message.contains("footprint overrides"), "{err}");
    }

    /// A `[faults]` section whose priors are all zero composes no
    /// scenario at all — the spec behaves exactly like a fault-free one.
    #[test]
    fn inactive_priors_collapse_to_none() {
        let text = "[device]\nname = \"d\"\n[pdk]\nname = \"aim\"\n[faults]\nseed = 3\ndead_shifter_p = 0.0\n[topology]\nkind = \"mzi\"\nk = 2\n";
        assert!(DeviceSpec::parse(text).unwrap().faults.is_none());
    }
}
