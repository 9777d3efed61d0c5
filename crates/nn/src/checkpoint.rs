//! Versioned checkpoints for trained photonic designs.
//!
//! A checkpoint freezes everything needed to rebuild a trained backend in
//! another process **bit-identically**: the model architecture, the mesh
//! topology descriptor, every parameter tensor as exact f64 bit patterns,
//! the batch-norm running statistics ([`Layer::state`]), the noise seed a
//! compiled plan should draw its phase-drift stream from, and the full
//! [`FaultScenario`] (plus its fingerprint as an integrity check). A
//! loaded checkpoint [`instantiate`](Checkpoint::instantiate)s through the
//! same model builder that trained it — identical parameter registration
//! order — then overwrites every tensor from the stored bits, so tape
//! forwards, `lower_model`, compiled `ExecPlan`s and `BENCH_*` outputs all
//! reproduce the in-process original at any `ONN_THREADS`.
//!
//! # File layout (version 1)
//!
//! Line-oriented ASCII; f64 values are written as 16-hex-digit
//! `f64::to_bits` patterns (never decimal — exactness is the contract):
//!
//! ```text
//! adept-checkpoint v1
//! model proxy_cnn <in_c> <in_h> <in_w> <channels> <classes> <arch_seed>
//! backend mzi <k>                          # or:
//! backend topology <k> <u_blocks> <v_blocks>
//! ublock <dc_start> <coupler 0/1 flags|-> <perm…>   # u_blocks lines
//! vblock …                                          # v_blocks lines
//! noise_seed <u64>
//! fault_seed <u64>                         # optional group: the stored
//! fault dead_shifter <p_bits>              # FaultScenario, one line per
//! fault stuck_shifter <p_bits> <θ_bits>    # composed kind, closed by its
//! fault dead_coupler <p_bits>              # fingerprint (integrity
//! fault thermal_drift <std_bits>           # check on load)
//! fault quant <bits>
//! fault_fp <hex16>
//! params <count>
//! param <name> <ndim> <dims…> <len> <hex bits…>     # ParamStore order
//! state <count>
//! stat <name> <len> <hex bits…>                     # Layer::state order
//! end <hex16>                              # FNV-1a over all bytes above
//! ```
//!
//! Every load failure is a [`CheckpointError`] with the offending line:
//! not-a-checkpoint, unsupported version, truncation (missing `end`),
//! checksum mismatch, malformed records, and name/shape mismatches
//! against the rebuilt architecture.
//!
//! The records keep their own positional grammar, but the rules below the
//! line are the ones device specs use ([`adept_photonics::codec`]): the
//! line-anchored error, the integer/hex token parsers, the FNV-1a
//! checksum, `ublock`/`vblock` records parsed by [`codec::mesh_block`]
//! against the shared block rules ([`MeshBlock::check`]: `2 ≤ k ≤ 64`,
//! `dc_start` ∈ {0, 1}, one flag per coupler slot, a bijection of `k`
//! wires), the `backend` record's `k` held to the same [`codec::check_k`],
//! and fault records checked by [`FaultKind::check`]. Every `model`
//! dimension must be ≥ 1: a zero is a parse error, not a panic in the
//! layer constructors [`Checkpoint::instantiate`] runs. (Huge dimensions
//! are not bounded yet.)

use crate::layers::{Layer, Sequential};
use crate::models::{proxy_cnn, Backend, InputShape};
use crate::param::ParamStore;
use adept_photonics::codec::{self, fnv1a, LineError, TextFormat, FNV_OFFSET};
use adept_photonics::{BlockMeshTopology, FaultKind, FaultScenario, MeshBlock};
use adept_tensor::Tensor;
use std::fmt::Write as _;
use std::path::Path;

/// Marks [`LineError`]s of the checkpoint format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointText {}

impl TextFormat for CheckpointText {
    const NAME: &'static str = "checkpoint";
}

/// A load/save failure, anchored to a checkpoint line (`line == 0` means
/// file-level: I/O, truncation, architecture mismatch). Displays as
/// `checkpoint line N: …`.
pub type CheckpointError = LineError<CheckpointText>;

/// The architecture a checkpoint rebuilds on load. Stored declaratively —
/// the loader re-runs the *same* model builder with the same seed, so
/// parameter registration order (and thus [`ParamStore`] ids) reproduce
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelArch {
    /// The paper's proxy 2-layer CNN ([`proxy_cnn`]).
    ProxyCnn {
        /// Input tensor shape.
        input: InputShape,
        /// Conv channel width.
        channels: usize,
        /// Classifier classes.
        classes: usize,
        /// Architecture seed (weight init; overwritten on load, but the
        /// builder still needs it to register identically).
        seed: u64,
    },
}

impl ModelArch {
    /// The `[C, H, W]` sample shape `ExecPlan::compile` expects.
    pub fn sample_shape(&self) -> Vec<usize> {
        match self {
            ModelArch::ProxyCnn { input, .. } => {
                vec![input.channels, input.height, input.width]
            }
        }
    }
}

/// One parameter tensor as exact bits, in [`ParamStore`] order.
#[derive(Debug, Clone, PartialEq)]
struct ParamRecord {
    name: String,
    shape: Vec<usize>,
    bits: Vec<u64>,
}

/// One [`Layer::state`] entry as exact bits.
#[derive(Debug, Clone, PartialEq)]
struct StateRecord {
    name: String,
    bits: Vec<u64>,
}

/// A frozen trained design: everything [`save_backend`] writes and
/// [`load_backend`] restores.
#[derive(Clone)]
pub struct Checkpoint {
    /// Architecture to rebuild.
    pub arch: ModelArch,
    /// Mesh backend (topology descriptor, serialized block-exact).
    pub backend: Backend,
    /// Seed the compiled plan's phase-noise stream should use.
    pub noise_seed: u64,
    /// Hardware damage the design was frozen against, if any.
    pub fault: Option<FaultScenario>,
    params: Vec<ParamRecord>,
    state: Vec<StateRecord>,
}

impl Checkpoint {
    /// Captures a trained design: all of `store`'s tensors (registration
    /// order) and the model's layer state, as exact bits.
    pub fn capture(
        arch: ModelArch,
        backend: &Backend,
        model: &dyn Layer,
        store: &ParamStore,
        noise_seed: u64,
        fault: Option<&FaultScenario>,
    ) -> Self {
        let params = store
            .ids()
            .into_iter()
            .map(|id| {
                let t = store.value(id);
                ParamRecord {
                    name: store.name(id).to_owned(),
                    shape: t.shape().to_vec(),
                    bits: t.as_slice().iter().map(|v| v.to_bits()).collect(),
                }
            })
            .collect();
        let state = model
            .state()
            .into_iter()
            .map(|(name, values)| StateRecord {
                name,
                bits: values.iter().map(|v| v.to_bits()).collect(),
            })
            .collect();
        Self {
            arch,
            backend: backend.clone(),
            noise_seed,
            fault: fault.cloned(),
            params,
            state,
        }
    }

    /// Rebuilds the design: re-runs the architecture builder (identical
    /// registration order), overwrites every parameter from the stored
    /// bits, and restores layer state. Errors name the first mismatching
    /// parameter — a checkpoint only loads into the exact architecture
    /// that saved it.
    pub fn instantiate(&self) -> Result<(Sequential, ParamStore), CheckpointError> {
        let ModelArch::ProxyCnn {
            input,
            channels,
            classes,
            seed,
        } = self.arch;
        let mut store = ParamStore::new();
        let mut model = proxy_cnn(&mut store, input, channels, classes, &self.backend, seed);
        let ids = store.ids();
        if ids.len() != self.params.len() {
            return Err(CheckpointError::file(format!(
                "architecture registers {} parameters but the checkpoint holds {} — \
                 the stored model/backend descriptor does not match this build",
                ids.len(),
                self.params.len()
            )));
        }
        for (id, rec) in ids.into_iter().zip(&self.params) {
            if store.name(id) != rec.name {
                return Err(CheckpointError::file(format!(
                    "parameter order mismatch: architecture registers `{}` where the \
                     checkpoint stores `{}`",
                    store.name(id),
                    rec.name
                )));
            }
            if store.value(id).shape() != rec.shape.as_slice() {
                return Err(CheckpointError::file(format!(
                    "parameter `{}` has shape {:?} in this architecture but {:?} in the \
                     checkpoint",
                    rec.name,
                    store.value(id).shape(),
                    rec.shape
                )));
            }
            let values: Vec<f64> = rec.bits.iter().map(|&b| f64::from_bits(b)).collect();
            *store.value_mut(id) = Tensor::from_vec(values, &rec.shape);
        }
        let state: Vec<(String, Vec<f64>)> = self
            .state
            .iter()
            .map(|rec| {
                (
                    rec.name.clone(),
                    rec.bits.iter().map(|&b| f64::from_bits(b)).collect(),
                )
            })
            .collect();
        model.load_state(&state).map_err(CheckpointError::file)?;
        Ok((model, store))
    }

    /// The `[C, H, W]` sample shape for `ExecPlan::compile`.
    pub fn sample_shape(&self) -> Vec<usize> {
        self.arch.sample_shape()
    }

    /// Number of stored parameter tensors.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Total stored scalars across all parameters.
    pub fn total_scalars(&self) -> usize {
        self.params.iter().map(|p| p.bits.len()).sum()
    }

    /// Serializes to the version-1 text format.
    pub fn to_text(&self) -> String {
        let mut body = String::from("adept-checkpoint v1\n");
        let ModelArch::ProxyCnn {
            input,
            channels,
            classes,
            seed,
        } = self.arch;
        let _ = writeln!(
            body,
            "model proxy_cnn {} {} {} {channels} {classes} {seed}",
            input.channels, input.height, input.width
        );
        match &self.backend {
            Backend::Mzi { k } => {
                let _ = writeln!(body, "backend mzi {k}");
            }
            Backend::Topology { u, v } => {
                let _ = writeln!(
                    body,
                    "backend topology {} {} {}",
                    u.k(),
                    u.blocks().len(),
                    v.blocks().len()
                );
                for (tag, topo) in [("ublock", u), ("vblock", v)] {
                    for block in topo.blocks() {
                        body.push_str(&block_line(tag, block));
                    }
                }
            }
        }
        let _ = writeln!(body, "noise_seed {}", self.noise_seed);
        if let Some(fault) = &self.fault {
            let _ = writeln!(body, "fault_seed {}", fault.seed());
            for kind in fault.faults() {
                match *kind {
                    FaultKind::DeadShifter { p } => {
                        let _ = writeln!(body, "fault dead_shifter {:016x}", p.to_bits());
                    }
                    FaultKind::StuckShifter { p, theta } => {
                        let _ = writeln!(
                            body,
                            "fault stuck_shifter {:016x} {:016x}",
                            p.to_bits(),
                            theta.to_bits()
                        );
                    }
                    FaultKind::DeadCoupler { p } => {
                        let _ = writeln!(body, "fault dead_coupler {:016x}", p.to_bits());
                    }
                    FaultKind::ThermalDrift { std } => {
                        let _ = writeln!(body, "fault thermal_drift {:016x}", std.to_bits());
                    }
                    FaultKind::PhaseQuantization { bits } => {
                        let _ = writeln!(body, "fault quant {bits}");
                    }
                }
            }
            let _ = writeln!(body, "fault_fp {:016x}", fault.fingerprint());
        }
        let _ = writeln!(body, "params {}", self.params.len());
        for rec in &self.params {
            let _ = write!(body, "param {} {}", rec.name, rec.shape.len());
            for d in &rec.shape {
                let _ = write!(body, " {d}");
            }
            let _ = write!(body, " {}", rec.bits.len());
            for b in &rec.bits {
                let _ = write!(body, " {b:016x}");
            }
            body.push('\n');
        }
        let _ = writeln!(body, "state {}", self.state.len());
        for rec in &self.state {
            let _ = write!(body, "stat {} {}", rec.name, rec.bits.len());
            for b in &rec.bits {
                let _ = write!(body, " {b:016x}");
            }
            body.push('\n');
        }
        let checksum = fnv1a(FNV_OFFSET, body.as_bytes());
        let _ = writeln!(body, "end {checksum:016x}");
        body
    }

    /// Parses the version-1 text format, verifying the trailing checksum
    /// and (when present) the fault-scenario fingerprint.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let first = text.lines().next().unwrap_or("");
        if first != "adept-checkpoint v1" {
            if let Some(version) = first.strip_prefix("adept-checkpoint ") {
                return Err(CheckpointError::at(
                    1,
                    format!("unsupported checkpoint version `{version}` (this build reads v1)"),
                ));
            }
            return Err(CheckpointError::at(
                1,
                "not an adept checkpoint (missing `adept-checkpoint v1` header)",
            ));
        }
        let end_pos = text.rfind("\nend ").ok_or_else(|| {
            CheckpointError::file("truncated checkpoint: missing trailing `end <checksum>` line")
        })?;
        let body = &text[..end_pos + 1];
        let end_line_no = body.lines().count() + 1;
        let end_line = text[end_pos + 1..].trim_end_matches('\n');
        let checksum = match end_line.split_whitespace().collect::<Vec<_>>()[..] {
            [_, checksum] if end_line.trim_end() == end_line => checksum,
            _ => {
                return Err(CheckpointError::at(
                    end_line_no,
                    "malformed `end <checksum>` line (or trailing garbage after it)",
                ))
            }
        };
        let stored = codec::hex(checksum)
            .map_err(|_| CheckpointError::at(end_line_no, "checksum is not 16 hex digits"))?;
        let actual = fnv1a(FNV_OFFSET, body.as_bytes());
        if stored != actual {
            return Err(CheckpointError::at(
                end_line_no,
                format!(
                    "checksum mismatch (stored {stored:016x}, content hashes to {actual:016x}) — \
                     the file is corrupted or was hand-edited"
                ),
            ));
        }

        let mut cur = Cursor::new(body);
        cur.next(); // header, already validated
        let (line_no, tokens) = cur.record("model line")?;
        if tokens.len() != 8 || tokens[0] != "model" || tokens[1] != "proxy_cnn" {
            return Err(CheckpointError::at(
                line_no,
                "expected `model proxy_cnn <in_c> <in_h> <in_w> <channels> <classes> <seed>`",
            ));
        }
        let nums = parse_usizes(line_no, &tokens[2..7])?;
        let dims = ["in_c", "in_h", "in_w", "channels", "classes"];
        if let Some((dim, _)) = dims.iter().zip(&nums).find(|(_, &n)| n == 0) {
            return Err(CheckpointError::at(
                line_no,
                format!("model dimension `{dim}` must be ≥ 1, got 0"),
            ));
        }
        let arch = ModelArch::ProxyCnn {
            input: InputShape::new(nums[0], nums[1], nums[2]),
            channels: nums[3],
            classes: nums[4],
            seed: parse_int(line_no, tokens[7])?,
        };

        let (line_no, tokens) = cur.record("backend line")?;
        if tokens.first() != Some(&"backend") {
            return Err(CheckpointError::at(
                line_no,
                "expected `backend mzi|topology …`",
            ));
        }
        let backend =
            match tokens.get(1).copied() {
                Some("mzi") if tokens.len() == 3 => Backend::Mzi {
                    k: parse_int(line_no, tokens[2])?,
                },
                Some("topology") if tokens.len() == 5 => {
                    let k = parse_int(line_no, tokens[2])?;
                    let nu = parse_int(line_no, tokens[3])?;
                    let nv = parse_int(line_no, tokens[4])?;
                    let u = parse_mesh(&mut cur, "ublock", k, nu)?;
                    let v = parse_mesh(&mut cur, "vblock", k, nv)?;
                    Backend::Topology { u, v }
                }
                _ => return Err(CheckpointError::at(
                    line_no,
                    "expected `backend mzi <k>` or `backend topology <k> <u_blocks> <v_blocks>`",
                )),
            };
        // Blocks check k themselves; this catches an MZI backend and a
        // topology without blocks.
        codec::check_k(backend.k()).map_err(|m| CheckpointError::at(line_no, m))?;

        let (line_no, tokens) = cur.record("noise_seed line")?;
        if tokens.len() != 2 || tokens[0] != "noise_seed" {
            return Err(CheckpointError::at(line_no, "expected `noise_seed <u64>`"));
        }
        let noise_seed = parse_int(line_no, tokens[1])?;

        let fault = if cur.peek_key() == Some("fault_seed") {
            Some(parse_fault(&mut cur)?)
        } else {
            None
        };

        let (line_no, tokens) = cur.record("params line")?;
        if tokens.len() != 2 || tokens[0] != "params" {
            return Err(CheckpointError::at(line_no, "expected `params <count>`"));
        }
        // No preallocation from declared counts: a lying count must end at
        // a truncation or record error, not at a huge allocation.
        let n_params: usize = parse_int(line_no, tokens[1])?;
        let mut params = Vec::new();
        for _ in 0..n_params {
            let (line_no, tokens) = cur.record("param line")?;
            if tokens.len() < 4 || tokens[0] != "param" {
                return Err(CheckpointError::at(
                    line_no,
                    "expected `param <name> <ndim> <dims…> <len> <bits…>`",
                ));
            }
            let name = tokens[1].to_owned();
            let ndim: usize = parse_int(line_no, tokens[2])?;
            if tokens.len() - 4 < ndim {
                return Err(CheckpointError::at(
                    line_no,
                    format!("param `{name}` declares {ndim} dims but the line is too short"),
                ));
            }
            let shape = parse_usizes(line_no, &tokens[3..3 + ndim])?;
            let len: usize = parse_int(line_no, tokens[3 + ndim])?;
            let scalars = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
            if scalars != Some(len) {
                return Err(CheckpointError::at(
                    line_no,
                    format!("param `{name}`: shape {shape:?} does not hold {len} scalars"),
                ));
            }
            let bit_tokens = &tokens[4 + ndim..];
            if bit_tokens.len() != len {
                return Err(CheckpointError::at(
                    line_no,
                    format!(
                        "param `{name}` declares {len} scalars but carries {} — truncated line",
                        bit_tokens.len()
                    ),
                ));
            }
            let bits = parse_hexes(line_no, bit_tokens)?;
            params.push(ParamRecord { name, shape, bits });
        }

        let (line_no, tokens) = cur.record("state line")?;
        if tokens.len() != 2 || tokens[0] != "state" {
            return Err(CheckpointError::at(line_no, "expected `state <count>`"));
        }
        let n_state: usize = parse_int(line_no, tokens[1])?;
        let mut state = Vec::new();
        for _ in 0..n_state {
            let (line_no, tokens) = cur.record("stat line")?;
            if tokens.len() < 3 || tokens[0] != "stat" {
                return Err(CheckpointError::at(
                    line_no,
                    "expected `stat <name> <len> <bits…>`",
                ));
            }
            let name = tokens[1].to_owned();
            let len: usize = parse_int(line_no, tokens[2])?;
            if tokens.len() - 3 != len {
                return Err(CheckpointError::at(
                    line_no,
                    format!(
                        "stat `{name}` declares {len} values but carries {} — truncated line",
                        tokens.len() - 3
                    ),
                ));
            }
            let bits = parse_hexes(line_no, &tokens[3..])?;
            state.push(StateRecord { name, bits });
        }
        if let Some((line_no, _)) = cur.next() {
            return Err(CheckpointError::at(line_no, "unexpected trailing content"));
        }

        Ok(Self {
            arch,
            backend,
            noise_seed,
            fault,
            params,
            state,
        })
    }
}

/// Writes a checkpoint file (see [`Checkpoint::to_text`] for the layout).
pub fn save_backend(
    path: impl AsRef<Path>,
    checkpoint: &Checkpoint,
) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    std::fs::write(path, checkpoint.to_text())
        .map_err(|e| CheckpointError::file(format!("cannot write {}: {e}", path.display())))
}

/// Reads and verifies a checkpoint file.
pub fn load_backend(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| CheckpointError::file(format!("cannot read {}: {e}", path.display())))?;
    Checkpoint::parse(&text)
}

/// Writes one `ublock`/`vblock` record: the only mesh-block writer.
fn block_line(tag: &str, block: &MeshBlock) -> String {
    let flags: String = if block.couplers.is_empty() {
        "-".to_owned()
    } else {
        block
            .couplers
            .iter()
            .map(|&on| if on { '1' } else { '0' })
            .collect()
    };
    let perm: Vec<String> = block
        .perm
        .as_slice()
        .iter()
        .map(|w| w.to_string())
        .collect();
    format!("{tag} {} {flags} {}\n", block.dc_start, perm.join(" "))
}

/// Token cursor over non-empty body lines with 1-based line numbers.
struct Cursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    peeked: Option<(usize, Vec<&'a str>)>,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a str) -> Self {
        Self {
            lines: body.lines().enumerate(),
            peeked: None,
        }
    }

    fn next(&mut self) -> Option<(usize, Vec<&'a str>)> {
        if let Some(item) = self.peeked.take() {
            return Some(item);
        }
        for (i, line) in self.lines.by_ref() {
            if !line.trim().is_empty() {
                return Some((i + 1, line.split_whitespace().collect()));
            }
        }
        None
    }

    fn peek_key(&mut self) -> Option<&str> {
        if self.peeked.is_none() {
            self.peeked = self.next();
        }
        self.peeked.as_ref().and_then(|(_, t)| t.first().copied())
    }

    /// The next record, or a truncation error naming `what` was expected.
    fn record(&mut self, what: &str) -> Result<(usize, Vec<&'a str>), CheckpointError> {
        self.next()
            .ok_or_else(|| CheckpointError::file(format!("truncated checkpoint: expected {what}")))
    }
}

/// [`codec::int`] on checkpoint line `line`.
fn parse_int<T: std::str::FromStr>(line: usize, token: &str) -> Result<T, CheckpointError> {
    codec::int(token).map_err(|m| CheckpointError::at(line, m))
}

fn parse_usizes(line: usize, tokens: &[&str]) -> Result<Vec<usize>, CheckpointError> {
    tokens.iter().map(|t| parse_int(line, t)).collect()
}

/// [`codec::hex`] on checkpoint line `line`.
fn parse_hex(line: usize, token: &str) -> Result<u64, CheckpointError> {
    codec::hex(token).map_err(|m| CheckpointError::at(line, m))
}

fn parse_hexes(line: usize, tokens: &[&str]) -> Result<Vec<u64>, CheckpointError> {
    tokens.iter().map(|t| parse_hex(line, t)).collect()
}

fn parse_mesh(
    cur: &mut Cursor<'_>,
    tag: &str,
    k: usize,
    count: usize,
) -> Result<BlockMeshTopology, CheckpointError> {
    let mut blocks = Vec::new();
    for _ in 0..count {
        let (line_no, tokens) = cur.record(&format!("{tag} line"))?;
        if tokens.len().checked_sub(3) != Some(k) || tokens[0] != tag {
            return Err(CheckpointError::at(
                line_no,
                format!("expected `{tag} <dc_start> <flags> <{k} perm wires>`"),
            ));
        }
        // `-` stands for the empty flag list of a block without coupler
        // slots.
        let flags = if tokens[2] == "-" { "" } else { tokens[2] };
        let block = codec::mesh_block(k, tokens[1], flags, tokens[3..].iter().copied())
            .map_err(|m| CheckpointError::at(line_no, m))?;
        blocks.push(block);
    }
    Ok(BlockMeshTopology::new(k, blocks))
}

fn parse_fault(cur: &mut Cursor<'_>) -> Result<FaultScenario, CheckpointError> {
    let (line_no, tokens) = cur.record("fault_seed line")?;
    if tokens.len() != 2 || tokens[0] != "fault_seed" {
        return Err(CheckpointError::at(line_no, "expected `fault_seed <u64>`"));
    }
    let mut scenario = FaultScenario::new(parse_int(line_no, tokens[1])?);
    loop {
        let (line_no, tokens) = cur.record("fault or fault_fp line")?;
        match tokens[0] {
            "fault" => {
                let kind = match (tokens.get(1).copied(), tokens.len()) {
                    (Some("dead_shifter"), 3) => FaultKind::DeadShifter {
                        p: f64::from_bits(parse_hex(line_no, tokens[2])?),
                    },
                    (Some("stuck_shifter"), 4) => FaultKind::StuckShifter {
                        p: f64::from_bits(parse_hex(line_no, tokens[2])?),
                        theta: f64::from_bits(parse_hex(line_no, tokens[3])?),
                    },
                    (Some("dead_coupler"), 3) => FaultKind::DeadCoupler {
                        p: f64::from_bits(parse_hex(line_no, tokens[2])?),
                    },
                    (Some("thermal_drift"), 3) => FaultKind::ThermalDrift {
                        std: f64::from_bits(parse_hex(line_no, tokens[2])?),
                    },
                    (Some("quant"), 3) => FaultKind::PhaseQuantization {
                        bits: parse_int(line_no, tokens[2])?,
                    },
                    _ => {
                        return Err(CheckpointError::at(
                            line_no,
                            format!("unknown fault record `{}`", tokens.join(" ")),
                        ))
                    }
                };
                kind.check().map_err(|msg| {
                    CheckpointError::at(line_no, format!("invalid fault record: {msg}"))
                })?;
                scenario = scenario.with(kind);
            }
            "fault_fp" if tokens.len() == 2 => {
                let stored = parse_hex(line_no, tokens[1])?;
                let actual = scenario.fingerprint();
                if stored != actual {
                    return Err(CheckpointError::at(
                        line_no,
                        format!(
                            "fault scenario fingerprint mismatch (stored {stored:016x}, \
                             reconstructed {actual:016x}) — the fault records were altered \
                             or this build's fault model is incompatible"
                        ),
                    ));
                }
                return Ok(scenario);
            }
            _ => {
                return Err(CheckpointError::at(
                    line_no,
                    "expected a `fault …` record or the closing `fault_fp <hex16>`",
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_checkpoint(fault: Option<FaultScenario>) -> Checkpoint {
        let mut store = ParamStore::new();
        let input = InputShape::new(1, 6, 6);
        let backend = Backend::butterfly(4);
        let model = proxy_cnn(&mut store, input, 2, 3, &backend, 9);
        Checkpoint::capture(
            ModelArch::ProxyCnn {
                input,
                channels: 2,
                classes: 3,
                seed: 9,
            },
            &backend,
            &model,
            &store,
            5,
            fault.as_ref(),
        )
    }

    #[test]
    fn text_round_trip_is_exact() {
        let fault = FaultScenario::new(3)
            .with(FaultKind::DeadShifter { p: 0.1 })
            .with(FaultKind::PhaseQuantization { bits: 6 });
        let ckpt = tiny_checkpoint(Some(fault.clone()));
        let text = ckpt.to_text();
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.arch, ckpt.arch);
        assert_eq!(back.noise_seed, 5);
        assert_eq!(back.params, ckpt.params);
        assert_eq!(back.state, ckpt.state);
        assert_eq!(
            back.fault.as_ref().unwrap().fingerprint(),
            fault.fingerprint()
        );
        match (&back.backend, &ckpt.backend) {
            (Backend::Topology { u, v }, Backend::Topology { u: u0, v: v0 }) => {
                assert_eq!(u, u0);
                assert_eq!(v, v0);
            }
            _ => panic!("backend kind changed in round trip"),
        }
        // Serialization is deterministic.
        assert_eq!(back.to_text(), text);
        // Random topologies (k ∈ {4, 8, 10}, 1–3 blocks) through the
        // `ublock`/`vblock` codec, the only block writer: every block field
        // is in the text, so equal texts mean equal topologies.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for (k, b) in [4, 8, 10]
            .into_iter()
            .flat_map(|k| (1..4).map(move |b| (k, b)))
        {
            let mut random = ckpt.clone();
            let u = BlockMeshTopology::random(&mut rng, k, b);
            random.backend = Backend::topology(u, BlockMeshTopology::random(&mut rng, k, 4 - b));
            let text = random.to_text();
            assert_eq!(
                Checkpoint::parse(&text).unwrap().to_text(),
                text,
                "k={k} b={b}"
            );
        }
    }

    #[test]
    fn instantiate_restores_params_and_state() {
        let mut ckpt = tiny_checkpoint(None);
        // Perturb a param and a state record so restore is observable.
        ckpt.params[0].bits[0] = 1.25f64.to_bits();
        for rec in &mut ckpt.state {
            rec.bits[0] = 0.75f64.to_bits();
        }
        let (model, store) = ckpt.instantiate().unwrap();
        let id0 = store.ids()[0];
        assert_eq!(store.value(id0).as_slice()[0], 1.25);
        let state = model.state();
        assert_eq!(state.len(), 4, "two BN layers x mean/var");
        for (name, values) in &state {
            assert_eq!(values[0], 0.75, "state `{name}` not restored");
        }
    }

    #[test]
    fn rejections_are_actionable() {
        let ckpt = tiny_checkpoint(None);
        let text = ckpt.to_text();

        let err = Checkpoint::parse("not a checkpoint\n").err().unwrap();
        assert!(err.message.contains("not an adept checkpoint"), "{err}");
        assert_eq!(err.line, 1);

        let bumped = text.replace("adept-checkpoint v1", "adept-checkpoint v9");
        let err = Checkpoint::parse(&bumped).err().unwrap();
        assert!(
            err.message.contains("unsupported checkpoint version `v9`"),
            "{err}"
        );

        let truncated = &text[..text.len() / 2];
        let err = Checkpoint::parse(truncated).err().unwrap();
        assert!(err.message.contains("truncated"), "{err}");

        // Flip one hex digit inside a param payload: checksum catches it.
        let corrupt = text.replacen("param conv1", "param convX", 1);
        let err = Checkpoint::parse(&corrupt).err().unwrap();
        assert!(err.message.contains("checksum mismatch"), "{err}");
        assert!(err.to_string().starts_with("checkpoint line"), "{err}");
    }

    /// Re-signs hand-edited checkpoint text: recomputes the trailing `end`
    /// checksum over the edited body. FNV-1a is a checksum, not a MAC, so
    /// anyone can do this; the parser must not rely on it for validity.
    fn reseal(text: &str) -> String {
        let end_pos = text.rfind("\nend ").unwrap();
        let body = &text[..end_pos + 1];
        format!("{body}end {:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes()))
    }

    /// 1-based number of the first line of `text` starting with `prefix`.
    fn line_of(text: &str, prefix: &str) -> usize {
        text.lines().position(|l| l.starts_with(prefix)).unwrap() + 1
    }

    #[test]
    fn resealed_hostile_records_are_errors_not_panics() {
        let fault = FaultScenario::new(3)
            .with(FaultKind::DeadShifter { p: 0.1 })
            .with(FaultKind::PhaseQuantization { bits: 6 });
        let ckpt = tiny_checkpoint(Some(fault));
        let text = ckpt.to_text();
        let line = |prefix: &str| text.lines().find(|l| l.starts_with(prefix)).unwrap();
        let params = format!("params {}", ckpt.params.len());
        let backend_at = text.find("backend ").unwrap();
        let mesh = &text[backend_at..text.find("noise_seed").unwrap()];
        let bias = line("param conv1.b ");
        let stat = line("stat ");
        let stat_name = stat.split_whitespace().nth(1).unwrap();
        // (original line, hostile replacement, expected error, line prefix
        // the error must point at)
        let cases = [
            (
                "fault quant 6".to_owned(),
                "fault quant 0".to_owned(),
                "quantization bits must be in 1..=52",
                "fault quant",
            ),
            (
                line("fault dead_shifter ").to_owned(),
                format!("fault dead_shifter {:016x}", 5.0f64.to_bits()),
                "probability must be in [0, 1]",
                "fault dead_shifter",
            ),
            (
                "fault quant 6".to_owned(),
                "fault quant 4294967302".to_owned(),
                "expected an integer (u32), got `4294967302`",
                "fault quant",
            ),
            // Lying counts run past the real records into the `state`
            // line instead of allocating (or overflowing) up front.
            (
                params.clone(),
                "params 18446744073709551615".to_owned(),
                "expected `param <name>",
                "state ",
            ),
            (
                params,
                "params 1000000000000".to_owned(),
                "expected `param <name>",
                "state ",
            ),
            // Declared sizes whose arithmetic would overflow.
            (
                bias.to_owned(),
                bias.replacen(" 1 2 2 ", " 18446744073709551615 2 2 ", 1),
                "declares 18446744073709551615 dims but the line is too short",
                "param conv1.b ",
            ),
            (
                bias.to_owned(),
                "param conv1.b 2 4294967296 4294967296 0".to_owned(),
                "does not hold 0 scalars",
                "param conv1.b ",
            ),
            (
                stat.to_owned(),
                format!("stat {stat_name} 18446744073709551615"),
                "declares 18446744073709551615 values but carries 0",
                "stat ",
            ),
            // A mesh too small for any coupler slot arithmetic.
            (
                mesh.to_owned(),
                "backend topology 0 1 1\nublock 1 -\nvblock 0 -\n".to_owned(),
                "k must be ≥ 2, got 0",
                "ublock ",
            ),
            // The same rule without a block to check it: `instantiate`
            // would divide by k when tiling the weights.
            (
                mesh.to_owned(),
                "backend topology 0 0 0\n".to_owned(),
                "k must be ≥ 2, got 0",
                "backend ",
            ),
            (
                mesh.to_owned(),
                "backend mzi 0\n".to_owned(),
                "k must be ≥ 2, got 0",
                "backend ",
            ),
            // `instantiate` would allocate k² phases per MZI mesh.
            (
                mesh.to_owned(),
                "backend mzi 128\n".to_owned(),
                "k must be ≤ 64, got 128",
                "backend ",
            ),
        ];
        let reject = |from: &str, to: &str, want: &str, at: &str| {
            assert!(text.contains(from), "fixture lost `{from}`");
            let hostile = reseal(&text.replacen(from, to, 1));
            let err = Checkpoint::parse(&hostile)
                .err()
                .unwrap_or_else(|| panic!("`{to}` must be rejected"));
            assert!(err.message.contains(want), "`{to}`: {err}");
            assert_eq!(err.line, line_of(&hostile, at), "`{to}`: {err}");
        };
        for (from, to, want, at) in cases {
            reject(&from, &to, want, at);
        }
        // A zero model dimension would panic in `instantiate`'s layer
        // constructors.
        let model = line("model ");
        for (i, dim) in ["in_c", "in_h", "in_w", "channels", "classes"]
            .iter()
            .enumerate()
        {
            let mut tokens: Vec<&str> = model.split_whitespace().collect();
            tokens[2 + i] = "0";
            let want = format!("model dimension `{dim}` must be ≥ 1, got 0");
            reject(model, &tokens.join(" "), &want, "model ");
        }
    }

    #[test]
    fn mismatched_architecture_is_named() {
        let ckpt = tiny_checkpoint(None);
        let mut other = ckpt.clone();
        other.arch = ModelArch::ProxyCnn {
            input: InputShape::new(1, 6, 6),
            channels: 2,
            classes: 4, // classifier head differs -> fc shape mismatch
            seed: 9,
        };
        let err = other.instantiate().err().unwrap();
        assert!(
            err.message.contains("shape") || err.message.contains("parameters"),
            "{err}"
        );
    }
}
