//! Convolution for NCHW tensors: `im2col` / `col2im` lowering for the
//! tape, and [`DirectConv`], the compiled plans' patch-matrix-free kernel.
//!
//! Convolutions in the ADEPT stack are lowered to GEMM so that the photonic
//! tensor cores (which physically implement matrix–vector products) can run
//! them. `im2col` unrolls input patches into a matrix; `col2im` is its
//! adjoint, used by the convolution backward pass. [`DirectConv`] computes
//! the same product without building the patch matrix, with every output
//! element's arithmetic kept bit-identical to im2col + [`crate::matmul_into`].

use crate::element::Element;
use crate::tensor::Tensor;

/// Static geometry of a 2-D convolution (NCHW, square stride/padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output height after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit into the padded input.
    pub fn out_h(&self) -> usize {
        let padded = self.in_h + 2 * self.padding;
        assert!(padded >= self.kernel, "kernel taller than padded input");
        (padded - self.kernel) / self.stride + 1
    }

    /// Output width after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit into the padded input.
    pub fn out_w(&self) -> usize {
        let padded = self.in_w + 2 * self.padding;
        assert!(padded >= self.kernel, "kernel wider than padded input");
        (padded - self.kernel) / self.stride + 1
    }

    /// Rows of the `im2col` matrix: `in_channels * kernel * kernel`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the `im2col` matrix for a batch of `n`:
    /// `n * out_h * out_w`.
    pub fn col_cols(&self, batch: usize) -> usize {
        batch * self.out_h() * self.out_w()
    }
}

/// Unrolls an NCHW batch into a `(C·k·k) × (N·out_h·out_w)` patch matrix.
///
/// Column `n·(out_h·out_w) + oy·out_w + ox` holds the receptive field of
/// output pixel `(oy, ox)` of sample `n`, flattened channel-major.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or its dimensions disagree with `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    let mut out = Tensor::default();
    im2col_into(input, geom, &mut out);
    out
}

/// [`im2col`] into a caller-provided buffer, reusing its allocation.
///
/// When `out` already has the right shape *and* exclusively owns its
/// storage, the unroll writes in place — no allocation at all. Training
/// loops exploit this by keeping one scratch tensor per convolution layer:
/// the tape's handle on the previous step's patch matrix is dropped with
/// the graph, so by the next forward pass the scratch is unique again and
/// what used to be the largest per-step allocation disappears. (A scratch
/// that is still shared — e.g. the previous tape is alive — is replaced
/// with a fresh buffer rather than copy-on-write-duplicating stale data.)
///
/// The unroll writes every element of the patch matrix exactly once
/// (zero-padded positions are written as zeros), so no separate clearing
/// pass runs on the reuse path.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or its dimensions disagree with `geom`.
pub fn im2col_into(input: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) {
    assert_eq!(input.rank(), 4, "im2col expects NCHW input");
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    assert_eq!(c, geom.in_channels, "channel mismatch");
    assert_eq!(h, geom.in_h, "height mismatch");
    assert_eq!(w, geom.in_w, "width mismatch");
    let rows = geom.col_rows();
    let cols = geom.col_cols(n);
    // Reuse only an exactly matching, exclusively owned full-buffer window;
    // anything else (wrong shape, shared with a live tape, offset view)
    // would force a pointless copy-on-write detach of stale data.
    let reusable = out.shape() == [rows, cols]
        && out.storage_offset() == 0
        && out.data.len() == rows * cols
        && std::sync::Arc::strong_count(&out.data) == 1;
    if !reusable {
        *out = Tensor::zeros(&[rows, cols]);
    }
    im2col_slice_into(input.as_slice(), n, geom, out.as_mut_slice());
}

/// [`im2col_into`] over raw slices: unrolls a flat NCHW batch of `n`
/// samples into a pre-sized `(C·k·k) × (N·out_h·out_w)` patch matrix.
///
/// This is the allocation-free core the tensor path above delegates to,
/// generic over the element dtype. Every element of `dst` is written
/// exactly once (zero-padded positions included), and the write order is
/// identical to the tensor path — the resulting patch matrix is
/// bit-identical per dtype.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `n` and `geom`.
pub fn im2col_slice_into<T: Element>(src: &[T], n: usize, geom: &Conv2dGeometry, dst: &mut [T]) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    assert_eq!(src.len(), n * c * h * w, "input length mismatch");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let cols = geom.col_cols(n);
    assert_eq!(dst.len(), geom.col_rows() * cols, "patch matrix mismatch");
    let k = geom.kernel;
    for ni in 0..n {
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ci * k * k + ky * k + kx;
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        let col0 = row * cols + ni * oh * ow + oy * ow;
                        if iy < 0 || iy >= h as isize {
                            dst[col0..col0 + ow].fill(T::ZERO);
                            continue;
                        }
                        let src_row = &src[((ni * c + ci) * h + iy as usize) * w..][..w];
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            dst[col0 + ox] = if ix < 0 || ix >= w as isize {
                                T::ZERO
                            } else {
                                src_row[ix as usize]
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a patch matrix back into an NCHW tensor,
/// accumulating where patches overlap.
///
/// # Panics
///
/// Panics if `cols` has the wrong shape for `geom` and `batch`.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry, batch: usize) -> Tensor {
    assert_eq!(cols.rank(), 2, "col2im expects a matrix");
    assert_eq!(cols.shape()[0], geom.col_rows(), "row count mismatch");
    assert_eq!(cols.shape()[1], geom.col_cols(batch), "col count mismatch");
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let mut out = Tensor::zeros(&[batch, c, h, w]);
    let dst = out.as_mut_slice();
    let src = cols.as_slice();
    let k = geom.kernel;
    let ncols = geom.col_cols(batch);
    for ni in 0..batch {
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ci * k * k + ky * k + kx;
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = ni * oh * ow + oy * ow + ox;
                            dst[((ni * c + ci) * h + iy as usize) * w + ix as usize] +=
                                src[row * ncols + col];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Output channels per register block of [`DirectConv`]. Packed weights are
/// zero-padded to a multiple of it.
const OC_BLOCK: usize = 4;

/// Bytes of one pixel block on the wide lane variant (two 512-bit
/// registers). Sizes the slack behind the padded input buffer.
const MAX_BLOCK_BYTES: usize = 128;

/// The lane width [`DirectConv`] runs at, chosen by runtime CPU detection.
///
/// Both variants compile the same generic body; they differ only in the
/// vector registers the compiler may use and in how many output pixels one
/// register block covers (two registers' worth). Both produce the same
/// bits. Hosts without `avx512f` run the portable body; the kernels bench
/// times each variant (`conv_forward/direct_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvLanes {
    /// The body compiled for the target's baseline features.
    Portable,
    /// 512-bit lanes (`avx512f`).
    Avx512,
}

impl ConvLanes {
    /// Every variant, narrowest first.
    pub const ALL: [ConvLanes; 2] = [ConvLanes::Portable, ConvLanes::Avx512];

    /// Whether this host can run the variant.
    pub fn is_available(self) -> bool {
        match self {
            ConvLanes::Portable => true,
            #[cfg(target_arch = "x86_64")]
            ConvLanes::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            ConvLanes::Avx512 => false,
        }
    }

    /// The widest variant this host can run.
    pub fn detect() -> ConvLanes {
        ConvLanes::ALL
            .into_iter()
            .rev()
            .find(|l| l.is_available())
            .unwrap_or(ConvLanes::Portable)
    }
}

/// A frozen 2-D convolution that runs without a patch matrix.
///
/// [`DirectConv::new`] packs `[out_channels, C·k·k]` weights once into a
/// channel-blocked, tap-major layout: for each block of four output
/// channels, the block's weights for tap 0, then tap 1, and so on, with the
/// last block zero-padded. [`DirectConv::run`] then copies each sample once
/// into a zero-padded buffer and accumulates the `C·k·k` taps for a block
/// of output channels × a block of output pixels straight from it, adding
/// bias (and ReLU) as it stores NCHW output.
///
/// Output pixels are walked in the padded image's row pitch, so with
/// stride 1 every tap reads a contiguous, shifted window of the buffer
/// (stride `s` reads every `s`-th element). Pixels that fall in the padding
/// columns are computed and discarded.
///
/// # Bit-identity with im2col + GEMM
///
/// Each output element is computed exactly as [`im2col_slice_into`] +
/// [`crate::matmul_into`] + bias add would compute it: one chain in
/// ascending tap order starting from `+0.0`, the GEMM's zero-skip on the
/// weight (a `±0.0` weight contributes nothing, even against an infinite
/// or NaN input), padded taps read as `+0.0` and multiplied rather than
/// skipped, and separate multiply and add (Rust never contracts them into
/// an FMA). Zero-padded channels of the last block are skipped by the same
/// test and never stored.
#[derive(Debug, Clone)]
pub struct DirectConv<T: Element> {
    geom: Conv2dGeometry,
    out_channels: usize,
    packed: Vec<T>,
    bias: Vec<T>,
    /// Scratch offset of each tap `(ci, ky, kx)` for output pixel 0, in
    /// ascending tap order.
    tap_offsets: Vec<usize>,
}

impl<T: Element> DirectConv<T> {
    /// Packs `w` (`[out_channels, C·k·k]` row-major, the im2col GEMM's left
    /// operand) and `bias` (`[out_channels]`).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `geom` and `out_channels`.
    pub fn new(w: &[T], bias: &[T], geom: Conv2dGeometry, out_channels: usize) -> Self {
        assert!(
            out_channels > 0 && geom.in_channels > 0 && geom.kernel > 0 && geom.stride > 0,
            "degenerate conv: {out_channels} output channels, {geom:?}"
        );
        let taps = geom.col_rows();
        assert_eq!(w.len(), out_channels * taps, "conv weight length mismatch");
        assert_eq!(bias.len(), out_channels, "conv bias length mismatch");
        let blocks = out_channels.div_ceil(OC_BLOCK);
        let mut packed = vec![T::ZERO; blocks * taps * OC_BLOCK];
        for (c, row) in w.chunks_exact(taps).enumerate() {
            let (blk, lane) = (c / OC_BLOCK, c % OC_BLOCK);
            for (t, &v) in row.iter().enumerate() {
                packed[(blk * taps + t) * OC_BLOCK + lane] = v;
            }
        }
        let (k, wp) = (geom.kernel, geom.in_w + 2 * geom.padding);
        let plane = (geom.in_h + 2 * geom.padding) * wp;
        let tap_offsets = (0..taps)
            .map(|t| (t / (k * k)) * plane + (t / k % k) * wp + t % k)
            .collect();
        Self {
            geom,
            out_channels,
            packed,
            bias: bias.to_vec(),
            tap_offsets,
        }
    }

    /// Per-sample input element count (`in_channels · in_h · in_w`).
    pub fn in_elems(&self) -> usize {
        self.geom.in_channels * self.geom.in_h * self.geom.in_w
    }

    /// Per-sample output element count (`out_channels · out_h · out_w`).
    pub fn out_elems(&self) -> usize {
        self.out_channels * self.geom.out_h() * self.geom.out_w()
    }

    /// Length of the padded-input scratch [`DirectConv::run`] needs: one
    /// zero-padded sample plus slack, so the last pixel block's reads stay
    /// in bounds on every lane variant.
    pub fn scratch_len(&self) -> usize {
        let g = &self.geom;
        let (hp, wp) = (g.in_h + 2 * g.padding, g.in_w + 2 * g.padding);
        let k = g.kernel;
        let strip = (g.out_h() - 1) * wp + g.out_w();
        let max_block = MAX_BLOCK_BYTES / std::mem::size_of::<T>();
        let last_tap = (g.in_channels - 1) * hp * wp + (k - 1) * wp + (k - 1);
        (g.in_channels * hp * wp)
            .max(last_tap + g.stride * (strip.next_multiple_of(max_block) - 1) + 1)
    }

    /// Convolves `n` NCHW samples from `src` into `dst`, adding bias and,
    /// if `relu` is set, clamping at zero. `scratch` is the padded-input
    /// buffer (at least [`DirectConv::scratch_len`] long). Runs on the
    /// calling thread at the widest lane width the CPU supports.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `n` and the geometry.
    pub fn run(&self, src: &[T], n: usize, relu: bool, scratch: &mut [T], dst: &mut [T]) {
        self.run_lanes(ConvLanes::detect(), src, n, relu, scratch, dst);
    }

    /// [`DirectConv::run`] on one chosen lane variant, so tests and the
    /// kernels bench can compare every variant the host supports; not part
    /// of the supported API.
    ///
    /// # Panics
    ///
    /// Panics if the host cannot run `lanes`, or under the conditions of
    /// [`DirectConv::run`].
    #[doc(hidden)]
    pub fn run_lanes(
        &self,
        lanes: ConvLanes,
        src: &[T],
        n: usize,
        relu: bool,
        scratch: &mut [T],
        dst: &mut [T],
    ) {
        assert_eq!(src.len(), n * self.in_elems(), "input length mismatch");
        assert_eq!(dst.len(), n * self.out_elems(), "output length mismatch");
        assert!(
            scratch.len() >= self.scratch_len(),
            "conv scratch too short"
        );
        assert!(lanes.is_available(), "{lanes:?} lanes are not available");
        let args = ConvArgs {
            conv: self,
            src,
            relu,
            scratch,
            dst,
        };
        match lanes {
            ConvLanes::Portable => conv_portable(args),
            // SAFETY: `lanes.is_available()` above confirmed avx512f with
            // `is_x86_feature_detected!`.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            ConvLanes::Avx512 => unsafe { conv_avx512(args) },
            #[cfg(not(target_arch = "x86_64"))]
            ConvLanes::Avx512 => unreachable!("avx512f lanes exist only on x86_64"),
        }
    }
}

/// One [`DirectConv::run`] call's operands, handed to a lane variant.
struct ConvArgs<'a, T: Element> {
    conv: &'a DirectConv<T>,
    src: &'a [T],
    relu: bool,
    scratch: &'a mut [T],
    dst: &'a mut [T],
}

/// The baseline-feature variant: pixel blocks of 32 bytes.
fn conv_portable<T: Element>(args: ConvArgs<'_, T>) {
    if std::mem::size_of::<T>() == 8 {
        conv_body::<T, 4>(args)
    } else {
        conv_body::<T, 8>(args)
    }
}

/// The 512-bit variant: pixel blocks of two `zmm` registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn conv_avx512<T: Element>(args: ConvArgs<'_, T>) {
    if std::mem::size_of::<T>() == 8 {
        conv_body::<T, 16>(args)
    } else {
        conv_body::<T, 32>(args)
    }
}

/// Splits on stride so the unit-stride loads compile to plain vector loads.
#[inline(always)]
fn conv_body<T: Element, const B: usize>(args: ConvArgs<'_, T>) {
    if args.conv.geom.stride == 1 {
        conv_kernel::<T, B, true>(args)
    } else {
        conv_kernel::<T, B, false>(args)
    }
}

/// The one generic kernel body: `B` output pixels per register block,
/// `UNIT` when the stride is 1.
#[inline(always)]
fn conv_kernel<T: Element, const B: usize, const UNIT: bool>(args: ConvArgs<'_, T>) {
    let ConvArgs {
        conv,
        src,
        relu,
        scratch,
        dst,
    } = args;
    let g = &conv.geom;
    let (h, w, pad) = (g.in_h, g.in_w, g.padding);
    let s = if UNIT { 1 } else { g.stride };
    let wp = w + 2 * pad;
    let plane = (h + 2 * pad) * wp;
    let (oh, ow) = (g.out_h(), g.out_w());
    let out_plane = oh * ow;
    // Output pixel (oy, ox) sits at q = oy·wp + ox; tap (ci, ky, kx) reads
    // scratch[ci·plane + ky·wp + kx + s·q].
    let strip = (oh - 1) * wp + ow;
    let taps = g.col_rows();
    let oc = conv.out_channels;
    for (sample, out) in src
        .chunks_exact(conv.in_elems())
        .zip(dst.chunks_exact_mut(oc * out_plane))
    {
        for (ci, plane_src) in sample.chunks_exact(h * w).enumerate() {
            let padded = &mut scratch[ci * plane..(ci + 1) * plane];
            padded[..pad * wp].fill(T::ZERO);
            padded[(pad + h) * wp..].fill(T::ZERO);
            for (row, row_src) in padded[pad * wp..(pad + h) * wp]
                .chunks_exact_mut(wp)
                .zip(plane_src.chunks_exact(w))
            {
                row[..pad].fill(T::ZERO);
                row[pad..pad + w].copy_from_slice(row_src);
                row[pad + w..].fill(T::ZERO);
            }
        }
        let scratch = &*scratch;
        for (blk, wblk) in conv.packed.chunks_exact(taps * OC_BLOCK).enumerate() {
            let c0 = blk * OC_BLOCK;
            let live = OC_BLOCK.min(oc - c0);
            let mut q0 = 0;
            while q0 < strip {
                let mut acc = [[T::ZERO; B]; OC_BLOCK];
                for (wt, &off) in wblk.chunks_exact(OC_BLOCK).zip(&conv.tap_offsets) {
                    let base = off + s * q0;
                    let x: [T; B] = if UNIT {
                        let win = &scratch[base..base + B];
                        std::array::from_fn(|l| win[l])
                    } else {
                        let win = &scratch[base..base + s * (B - 1) + 1];
                        std::array::from_fn(|l| win[s * l])
                    };
                    for (acc_o, &wv) in acc.iter_mut().zip(wt) {
                        if wv == T::ZERO {
                            continue;
                        }
                        for (a, &xv) in acc_o.iter_mut().zip(&x) {
                            *a += wv * xv;
                        }
                    }
                }
                let (oy0, ox0) = (q0 / wp, q0 % wp);
                for (o, acc_o) in acc.iter().enumerate().take(live) {
                    let b = conv.bias[c0 + o];
                    let y: [T; B] = std::array::from_fn(|l| {
                        let v = acc_o[l] + b;
                        if relu {
                            v.maximum(T::ZERO)
                        } else {
                            v
                        }
                    });
                    let out_c = &mut out[(c0 + o) * out_plane..(c0 + o + 1) * out_plane];
                    let (mut oy, mut ox, mut l) = (oy0, ox0, 0);
                    while l < B && oy < oh {
                        if ox < ow {
                            let run = (ow - ox).min(B - l);
                            let d = oy * ow + ox;
                            out_c[d..d + run].copy_from_slice(&y[l..l + run]);
                            l += run;
                            ox += run;
                        } else {
                            let skip = (wp - ox).min(B - l);
                            l += skip;
                            ox += skip;
                        }
                        if ox == wp {
                            ox = 0;
                            oy += 1;
                        }
                    }
                }
                q0 += B;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel: k,
            stride: s,
            padding: p,
        }
    }

    #[test]
    fn output_dims() {
        let g = geom(3, 28, 28, 5, 1, 0);
        assert_eq!((g.out_h(), g.out_w()), (24, 24));
        let g = geom(1, 28, 28, 5, 1, 2);
        assert_eq!((g.out_h(), g.out_w()), (28, 28));
        let g = geom(1, 8, 8, 2, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 just flattens the image.
        let g = geom(2, 3, 3, 1, 1, 0);
        let x = Tensor::linspace(0.0, 17.0, 18).reshape(&[1, 2, 3, 3]);
        let cols = im2col(&x, &g);
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.row(0).as_slice(), &x.as_slice()[..9]);
        assert_eq!(cols.row(1).as_slice(), &x.as_slice()[9..]);
    }

    #[test]
    fn im2col_matches_direct_convolution() {
        // Direct sliding-window conv must equal weight-matrix times im2col.
        let g = geom(2, 5, 5, 3, 1, 1);
        let x = Tensor::from_vec(
            (0..50)
                .map(|i| ((i * 17 % 23) as f64 - 11.0) / 7.0)
                .collect(),
            &[1, 2, 5, 5],
        );
        let wt = Tensor::from_vec(
            (0..2 * 2 * 9)
                .map(|i| ((i * 13 % 19) as f64 - 9.0) / 5.0)
                .collect(),
            &[2, 18],
        );
        let cols = im2col(&x, &g);
        let y = wt.matmul(&cols); // [2, 25]
                                  // Direct computation for a few output pixels.
        let direct = |oc: usize, oy: usize, ox: usize| -> f64 {
            let mut s = 0.0;
            for ci in 0..2 {
                for ky in 0..3 {
                    for kx in 0..3 {
                        let iy = oy as isize + ky as isize - 1;
                        let ix = ox as isize + kx as isize - 1;
                        if iy < 0 || iy >= 5 || ix < 0 || ix >= 5 {
                            continue;
                        }
                        s += wt.at(&[oc, ci * 9 + ky * 3 + kx])
                            * x.at(&[0, ci, iy as usize, ix as usize]);
                    }
                }
            }
            s
        };
        for &(oc, oy, ox) in &[(0, 0, 0), (0, 2, 3), (1, 4, 4), (1, 1, 0)] {
            assert!(
                (y.at(&[oc, oy * 5 + ox]) - direct(oc, oy, ox)).abs() < 1e-10,
                "mismatch at ({oc},{oy},{ox})"
            );
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the conv backward pass relies on.
        let g = geom(2, 6, 6, 3, 2, 1);
        let x = Tensor::from_vec(
            (0..72)
                .map(|i| ((i * 29 % 31) as f64 - 15.0) / 9.0)
                .collect(),
            &[1, 2, 6, 6],
        );
        let cols = im2col(&x, &g);
        let y = Tensor::from_vec(
            (0..cols.len())
                .map(|i| ((i * 41 % 37) as f64 - 18.0) / 11.0)
                .collect(),
            cols.shape(),
        );
        let lhs = cols.dot(&y);
        let back = col2im(&y, &g, 1);
        let rhs = x.dot(&back);
        assert!(
            (lhs - rhs).abs() < 1e-9,
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn im2col_into_reuses_and_matches() {
        let g = geom(2, 6, 6, 3, 2, 1);
        let x1 = Tensor::linspace(-1.0, 1.0, 72).reshape(&[1, 2, 6, 6]);
        let x2 = Tensor::linspace(2.0, -2.0, 72).reshape(&[1, 2, 6, 6]);
        let mut buf = Tensor::default();
        im2col_into(&x1, &g, &mut buf);
        assert_eq!(buf, im2col(&x1, &g));
        // Second call reuses the exact same allocation. (Compare raw data
        // pointers — holding an Arc handle would force a COW detach.)
        let ptr = buf.as_slice().as_ptr() as usize;
        im2col_into(&x2, &g, &mut buf);
        assert_eq!(ptr, buf.as_slice().as_ptr() as usize);
        assert_eq!(buf, im2col(&x2, &g));
        // Stale values from the previous step must not leak through the
        // zero-padded positions.
        assert_eq!(buf.at(&[0, 0]), 0.0, "padding corner must be re-zeroed");
    }

    #[test]
    fn batch_handling() {
        let g = geom(1, 4, 4, 2, 2, 0);
        let x = Tensor::linspace(0.0, 31.0, 32).reshape(&[2, 1, 4, 4]);
        let cols = im2col(&x, &g);
        assert_eq!(cols.shape(), &[4, 8]);
        // First column = top-left patch of sample 0: pixels (0,0),(0,1),(1,0),(1,1).
        assert_eq!(cols.col(0).as_slice(), &[0.0, 1.0, 4.0, 5.0]);
        // Fifth column = top-left patch of sample 1.
        assert_eq!(cols.col(4).as_slice(), &[16.0, 17.0, 20.0, 21.0]);
    }
}
