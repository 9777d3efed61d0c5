//! The text-format rules device specs and checkpoints share.
//!
//! A design crosses the process boundary twice: the foundry kit and mesh
//! come in as a device spec ([`crate::registry`]) and the trained design
//! goes out as an `adept-checkpoint v1` file (`adept_nn::checkpoint`).
//! Both formats keep their own line grammar — sections and `key = value`
//! bindings for specs, positional records for checkpoints — because one
//! lexer for both would have to branch on its caller. What they share
//! lives here, once:
//!
//! * [`LineError`], the line-anchored error both formats return
//!   (`device spec line N: …`, `checkpoint line N: …`);
//! * [`int`] and [`hex`], the token parsers behind every integer and hex
//!   word either format reads;
//! * [`check_k`], the PTC-size rule of every mesh, MZI or block: at least
//!   2 ports and at most [`MAX_K`];
//! * [`mesh_block`], the one block parser, which enforces the block rules
//!   of [`MeshBlock::check`];
//! * [`fnv1a`], the hash behind the checkpoint checksum, fault
//!   fingerprints and sites, and the SuperMesh frame tag.
//!
//! Fault parameters are checked by [`crate::FaultKind::check`] in both
//! formats.

use crate::topology::MeshBlock;
use adept_linalg::Permutation;
use std::fmt;
use std::marker::PhantomData;
use std::str::FromStr;

/// Names a text format in the prefix of its [`LineError`]s. Implemented
/// by an uninhabited marker type per format.
pub trait TextFormat {
    /// The prefix, e.g. `"device spec"`.
    const NAME: &'static str;
}

/// A parse or validation failure, anchored to a line of an `F`-format
/// text (`line == 0` means file-level: I/O, truncation, a missing
/// section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError<F> {
    /// 1-based line the error was detected on; 0 for file-level errors.
    pub line: usize,
    /// What went wrong, naming the offending token where known.
    pub message: String,
    format: PhantomData<fn() -> F>,
}

impl<F> LineError<F> {
    /// An error on 1-based line `line`.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
            format: PhantomData,
        }
    }

    /// A file-level error (line 0).
    pub fn file(message: impl Into<String>) -> Self {
        Self::at(0, message)
    }
}

impl<F: TextFormat> fmt::Display for LineError<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", F::NAME, self.message)
        } else {
            write!(f, "{} line {}: {}", F::NAME, self.line, self.message)
        }
    }
}

impl<F: TextFormat + fmt::Debug> std::error::Error for LineError<F> {}

/// Parses one decimal integer of type `T`; out-of-range values are errors,
/// never truncations.
///
/// # Errors
///
/// Names `T` and the token.
pub fn int<T: FromStr>(token: &str) -> Result<T, String> {
    token.parse().map_err(|_| {
        format!(
            "expected an integer ({}), got `{token}`",
            std::any::type_name::<T>()
        )
    })
}

/// Parses one hex word: an `f64::to_bits` pattern, a checksum or a
/// fingerprint.
///
/// # Errors
///
/// Names the token.
pub fn hex(token: &str) -> Result<u64, String> {
    u64::from_str_radix(token, 16)
        .map_err(|_| format!("expected a 16-hex-digit bit pattern, got `{token}`"))
}

/// The largest PTC size any mesh may declare: twice the paper's largest
/// PTC (k = 32). Mesh builds allocate in proportion to `k` (a butterfly
/// holds log₂k blocks of k-wire permutations, an MZI mesh k² phases), and
/// a device spec has no payload that pays for them, so a text that names
/// a larger `k` is rejected before anything is built.
pub const MAX_K: usize = 64;

/// The PTC-size rule every mesh obeys, MZI or block: `2 ≤ k ≤`
/// [`MAX_K`] ports. Device specs, checkpoint `backend` records and
/// [`MeshBlock::check`] all apply it.
///
/// # Errors
///
/// Names the rejected `k`.
pub fn check_k(k: usize) -> Result<(), String> {
    if k < 2 {
        return Err(format!("k must be ≥ 2, got {k}"));
    }
    if k > MAX_K {
        return Err(format!("k must be ≤ {MAX_K}, got {k}"));
    }
    Ok(())
}

/// Parses one block of a `k`-port mesh from its three fields: the
/// `dc_start` integer, the coupler flags (`0`/`1` digits, whitespace
/// ignored, empty for a block without coupler slots) and the
/// permutation's wires. The permutation must be a bijection
/// ([`Permutation::from_vec`]) and the block must pass
/// [`MeshBlock::check`].
///
/// # Errors
///
/// Names the first bad token or violated rule.
pub fn mesh_block<'a>(
    k: usize,
    dc_start: &str,
    flags: &str,
    perm: impl IntoIterator<Item = &'a str>,
) -> Result<MeshBlock, String> {
    let dc_start = int(dc_start)?;
    let couplers = flags
        .chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            c => Err(format!("coupler flags must be 0/1 digits, got `{c}`")),
        })
        .collect::<Result<_, _>>()?;
    let image = perm.into_iter().map(int).collect::<Result<_, _>>()?;
    let perm = Permutation::from_vec(image).map_err(|e| format!("invalid permutation: {e}"))?;
    let block = MeshBlock {
        dc_start,
        couplers,
        perm,
    };
    block.check(k)?;
    Ok(block)
}

/// The FNV-1a offset basis: the state every [`fnv1a`] chain starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h` (start a chain at
/// [`FNV_OFFSET`]). A checksum, not a MAC: anyone can reseal an edited
/// text.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }
}
