//! Matrix multiplication: a register-blocked, panel-packed microkernel
//! generic over the element dtype ([`Element`]: `f64`/`f32`), a pooled
//! parallel path, and strided/batched variants that consume [`View`]s so
//! tile extraction and assembly never materialize operands.
//!
//! Parallel partitions execute on the shared [`crate::pool`] — persistent
//! workers instead of a `thread::scope` spawn per GEMM. Every partition
//! strategy accumulates each output element in the same k-order as the
//! serial loop, so results are bit-identical across thread counts.
//!
//! # Kernel structure
//!
//! One generic tile kernel ([`gemm_tile`]) serves every entry point. Small
//! tiles run a direct scalar i-k-j loop (the reference kernel); large tiles
//! take the packed path: A is packed into `MR`-row panels and B into
//! `NR`-column panels (both p-major, reused thread-local scratch via
//! [`Element::take_pack_scratch`]), and an `MR`×`NR` register-tile
//! microkernel sweeps the panels. Both paths accumulate each output element
//! along a single ascending-k chain with the same per-element zero-skip and
//! no FMA contraction, so the packed path is **bit-identical** to the
//! scalar reference per dtype — pinned by the microkernel edge-case tests
//! and the cross-thread determinism suite.

use crate::element::Element;
use crate::tensor::Tensor;
use crate::view::View;
use std::sync::atomic::{AtomicUsize, Ordering};

static GEMM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of threads used by large GEMMs.
///
/// `0` (the default) means "auto": honour the `ONN_THREADS` environment
/// variable, else use [`std::thread::available_parallelism`] capped at 8.
/// Small multiplications always stay on the calling thread.
pub fn set_gemm_threads(n: usize) {
    GEMM_THREADS.store(n, Ordering::Relaxed);
}

/// The effective GEMM thread count (override, `ONN_THREADS`, or auto).
/// Exposed so the serving runtime sizes its worker pool from the same
/// knob the GEMM partitioners use.
pub fn gemm_thread_count() -> usize {
    gemm_threads()
}

fn gemm_threads() -> usize {
    let n = GEMM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    // `available_parallelism` can be a slow syscall on some kernels;
    // query it once and cache.
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(crate::pool::auto_threads)
}

/// Work threshold (in floating-point operations) below which GEMMs stay on
/// the calling thread.
const PAR_FLOP_THRESHOLD: f64 = 2.0e6;

/// Placement of one `m×k`/`k×n`/`m×n` operand inside a flat buffer:
/// element `(i, j)` lives at `offset + i·row_stride + j·col_stride`.
///
/// This is how [`batched_matmul_into`] addresses PTC tiles inside a large
/// weight matrix (offset = tile corner, `row_stride` = full matrix width)
/// and transposed operands (`row_stride`/`col_stride` swapped) without any
/// copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Flat offset of element `(0, 0)`.
    pub offset: usize,
    /// Elements between vertically adjacent entries.
    pub row_stride: usize,
    /// Elements between horizontally adjacent entries.
    pub col_stride: usize,
}

impl Tile {
    /// A dense row-major operand of width `cols` starting at `offset`.
    pub fn contiguous(offset: usize, cols: usize) -> Tile {
        Tile {
            offset,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// The rank-2 placement of a [`View`] (offset + row/col strides).
    ///
    /// # Panics
    ///
    /// Panics if the view is not rank 2.
    pub fn of_view(v: &View) -> Tile {
        assert_eq!(v.rank(), 2, "Tile::of_view expects a rank-2 view");
        Tile {
            offset: v.storage_offset(),
            row_stride: v.strides()[0],
            col_stride: v.strides()[1],
        }
    }

    fn max_index(&self, rows: usize, cols: usize) -> usize {
        if rows == 0 || cols == 0 {
            return self.offset;
        }
        self.offset + (rows - 1) * self.row_stride + (cols - 1) * self.col_stride
    }
}

/// Register-tile height of the packed microkernel (output rows held in
/// accumulator registers at once).
const MR: usize = 4;
/// Register-tile width of the packed microkernel (output columns held in
/// accumulator registers at once).
const NR: usize = 8;
/// k-dimension cache block: one packed B panel covers `KC` inner-dimension
/// steps. k-blocking never splits an element's accumulation chain — blocks
/// are visited in ascending order and the running value round-trips through
/// `C` between blocks, which preserves the exact f64 addition sequence.
const KC: usize = 256;
/// Row cache block of the packed A panel.
const MC: usize = 64;
/// Column cache block of the packed B panel (bounds the packing scratch to
/// `NC·KC` elements per thread).
const NC: usize = 512;
/// Minimum `m·n·k` element product for the packed path. Below it (e.g. the
/// 8×8×8 PTC tile GEMMs) packing costs more than it saves and tiles stay on
/// the direct scalar kernel.
const PACK_MIN_WORK: usize = 16 * 1024;

/// The one generic strided tile GEMM behind every entry point:
/// `C_tile = α·A_tile·B_tile`, or `C_tile += α·A_tile·B_tile` when
/// `accumulate` is set. This collapses the former `gemm_tile_raw` /
/// `gemm_tile_raw_ext` / `gemm_tile_raw_g` triple into a single kernel
/// family parameterized over [`Element`].
///
/// Large tiles take the packed register-blocked microkernel
/// ([`packed_kernel`]); small ones the direct scalar loop
/// ([`scalar_kernel`]). Both monomorphize `accumulate`/`α` so the common
/// `α = 1`/overwrite path costs nothing, and both accumulate every output
/// element along the same ascending-k chain with the same per-element
/// zero-skip — the paths are bit-identical per dtype, so the dispatch
/// threshold is purely a performance choice.
///
/// # Safety
///
/// `c` must be valid for writes over the tile's index set and no other
/// thread may concurrently touch those indices. Bounds are checked against
/// `c_len` via debug assertions only.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tile<T: Element>(
    a: &[T],
    at: Tile,
    b: &[T],
    bt: Tile,
    c: *mut T,
    c_len: usize,
    ct: Tile,
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
    accumulate: bool,
) {
    debug_assert!(at.max_index(m, k) < a.len().max(1) || m * k == 0);
    debug_assert!(bt.max_index(k, n) < b.len().max(1) || k * n == 0);
    debug_assert!(ct.max_index(m, n) < c_len.max(1) || m * n == 0);
    let packed = m >= MR && n >= NR && m * n * k >= PACK_MIN_WORK;
    unsafe {
        match (accumulate, alpha == T::ONE, packed) {
            (false, true, false) => {
                scalar_kernel::<T, false, false>(a, at, b, bt, c, ct, m, k, n, alpha)
            }
            (false, false, false) => {
                scalar_kernel::<T, false, true>(a, at, b, bt, c, ct, m, k, n, alpha)
            }
            (true, true, false) => {
                scalar_kernel::<T, true, false>(a, at, b, bt, c, ct, m, k, n, alpha)
            }
            (true, false, false) => {
                scalar_kernel::<T, true, true>(a, at, b, bt, c, ct, m, k, n, alpha)
            }
            (false, true, true) => {
                packed_kernel::<T, false, false>(a, at, b, bt, c, ct, m, k, n, alpha)
            }
            (false, false, true) => {
                packed_kernel::<T, false, true>(a, at, b, bt, c, ct, m, k, n, alpha)
            }
            (true, true, true) => {
                packed_kernel::<T, true, false>(a, at, b, bt, c, ct, m, k, n, alpha)
            }
            (true, false, true) => {
                packed_kernel::<T, true, true>(a, at, b, bt, c, ct, m, k, n, alpha)
            }
        }
    }
}

/// The direct scalar tile kernel — the reference the packed path must match
/// bit-for-bit. `ACC` selects accumulate-into vs overwrite, `SCALE` whether
/// `alpha` multiplies the streamed `a` element. `α` folds into `a_ip`
/// (`α·a_ip`), so `α = −1` is an exact negation.
///
/// # Safety
///
/// Same contract as [`gemm_tile`].
#[allow(clippy::too_many_arguments)]
unsafe fn scalar_kernel<T: Element, const ACC: bool, const SCALE: bool>(
    a: &[T],
    at: Tile,
    b: &[T],
    bt: Tile,
    c: *mut T,
    ct: Tile,
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
) {
    let fast = bt.col_stride == 1 && ct.col_stride == 1;
    for i in 0..m {
        let c_row = ct.offset + i * ct.row_stride;
        if !ACC {
            for j in 0..n {
                unsafe {
                    *c.add(c_row + j * ct.col_stride) = T::ZERO;
                }
            }
        }
        for p in 0..k {
            let raw = a[at.offset + i * at.row_stride + p * at.col_stride];
            if raw == T::ZERO {
                continue;
            }
            let aip = if SCALE { alpha * raw } else { raw };
            let b_row = bt.offset + p * bt.row_stride;
            if fast {
                // Unit-stride inner loop: stream B and C rows.
                let b_slice = &b[b_row..b_row + n];
                for (j, &bj) in b_slice.iter().enumerate() {
                    unsafe {
                        *c.add(c_row + j) += aip * bj;
                    }
                }
            } else {
                for j in 0..n {
                    unsafe {
                        *c.add(c_row + j * ct.col_stride) += aip * b[b_row + j * bt.col_stride];
                    }
                }
            }
        }
    }
}

/// Packs the `mc`×`kc` block of A at `(ic, pc)` into `MR`-row panels,
/// p-major within each panel (`apack[panel·MR·kc + p·MR + r]`), zero-
/// padding ragged tail rows. Padding rows are skipped by the microkernel's
/// zero-test and never stored, so they cannot affect results.
fn pack_a<T: Element>(
    a: &[T],
    at: Tile,
    apack: &mut Vec<T>,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    apack.clear();
    apack.resize(panels * MR * kc, T::ZERO);
    for pi in 0..panels {
        let rows = MR.min(mc - pi * MR);
        let dst = &mut apack[pi * MR * kc..(pi + 1) * MR * kc];
        for p in 0..kc {
            let col = at.offset + (pc + p) * at.col_stride;
            for r in 0..rows {
                dst[p * MR + r] = a[col + (ic + pi * MR + r) * at.row_stride];
            }
        }
    }
}

/// Packs the `kc`×`nc` block of B at `(pc, jc)` into `NR`-column panels,
/// p-major within each panel (`bpack[panel·NR·kc + p·NR + j]`), zero-
/// padding ragged tail columns (padding accumulates into register lanes
/// that are never stored).
fn pack_b<T: Element>(
    b: &[T],
    bt: Tile,
    bpack: &mut Vec<T>,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    bpack.clear();
    bpack.resize(panels * NR * kc, T::ZERO);
    for pi in 0..panels {
        let cols = NR.min(nc - pi * NR);
        let dst = &mut bpack[pi * NR * kc..(pi + 1) * NR * kc];
        for p in 0..kc {
            let row = bt.offset + (pc + p) * bt.row_stride;
            let col0 = jc + pi * NR;
            if cols == NR && bt.col_stride == 1 {
                dst[p * NR..(p + 1) * NR].copy_from_slice(&b[row + col0..row + col0 + NR]);
            } else {
                for j in 0..cols {
                    dst[p * NR + j] = b[row + (col0 + j) * bt.col_stride];
                }
            }
        }
    }
}

/// The packed register-blocked tile kernel: panel-packs A and B into
/// thread-local scratch and sweeps `MR`×`NR` register microtiles.
///
/// Bit-identity with [`scalar_kernel`] holds because every output element
/// keeps one ascending-k accumulation chain (k-blocks visited in order,
/// register accumulators stored to `C` between blocks), the per-`(i,p)`
/// zero-skip tests the *raw* packed `a` element exactly like the scalar
/// loop, `α` folds into the same `α·a_ip` product, and no FMA contraction
/// is emitted.
///
/// # Safety
///
/// Same contract as [`gemm_tile`].
#[allow(clippy::too_many_arguments)]
unsafe fn packed_kernel<T: Element, const ACC: bool, const SCALE: bool>(
    a: &[T],
    at: Tile,
    b: &[T],
    bt: Tile,
    c: *mut T,
    ct: Tile,
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
) {
    if k == 0 {
        // Degenerate inner dimension: the overwrite path must still zero C.
        if !ACC {
            for i in 0..m {
                let c_row = ct.offset + i * ct.row_stride;
                for j in 0..n {
                    unsafe {
                        *c.add(c_row + j * ct.col_stride) = T::ZERO;
                    }
                }
            }
        }
        return;
    }
    let (mut apack, mut bpack) = T::take_pack_scratch();
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        let mut first = true;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(b, bt, &mut bpack, pc, kc, jc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(a, at, &mut apack, ic, mc, pc, kc);
                let mut jr = 0;
                while jr < nc {
                    let nr = NR.min(nc - jr);
                    let bpanel = &bpack[(jr / NR) * NR * kc..(jr / NR + 1) * NR * kc];
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let apanel = &apack[(ir / MR) * MR * kc..(ir / MR + 1) * MR * kc];
                        unsafe {
                            microkernel::<T, ACC, SCALE>(
                                apanel,
                                bpanel,
                                c,
                                ct,
                                ic + ir,
                                jc + jr,
                                mr,
                                nr,
                                kc,
                                first,
                                alpha,
                            );
                        }
                        ir += MR;
                    }
                    jr += NR;
                }
                ic += mc;
            }
            first = false;
            pc += kc;
        }
        jc += nc;
    }
    T::put_pack_scratch((apack, bpack));
}

/// One `MR`×`NR` register microtile over a packed A panel (`MR`·`kc`,
/// p-major) and B panel (`NR`·`kc`, p-major): load-or-zero the
/// accumulators, stream `kc` rank-1 updates, store the `mr`×`nr` live
/// corner back to `C`.
///
/// # Safety
///
/// Same contract as [`gemm_tile`]; panels must hold at least `kc` p-steps.
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn microkernel<T: Element, const ACC: bool, const SCALE: bool>(
    apanel: &[T],
    bpanel: &[T],
    c: *mut T,
    ct: Tile,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    kc: usize,
    first: bool,
    alpha: T,
) {
    let mut acc = [[T::ZERO; NR]; MR];
    if ACC || !first {
        // Later k-blocks (and the accumulate mode) resume the running sums
        // already stored in C; a register round-trip of the partial value
        // does not change its bits.
        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
            let c_row = ct.offset + (row0 + r) * ct.row_stride;
            for (j, slot) in accr.iter_mut().enumerate().take(nr) {
                *slot = unsafe { *c.add(c_row + (col0 + j) * ct.col_stride) };
            }
        }
    }
    for p in 0..kc {
        let arow = &apanel[p * MR..(p + 1) * MR];
        let brow = &bpanel[p * NR..(p + 1) * NR];
        for r in 0..MR {
            let raw = arow[r];
            if raw == T::ZERO {
                continue;
            }
            let aip = if SCALE { alpha * raw } else { raw };
            let accr = &mut acc[r];
            for j in 0..NR {
                accr[j] += aip * brow[j];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let c_row = ct.offset + (row0 + r) * ct.row_stride;
        for (j, &v) in accr.iter().enumerate().take(nr) {
            unsafe {
                *c.add(c_row + (col0 + j) * ct.col_stride) = v;
            }
        }
    }
}

/// Serial scalar-reference GEMM over contiguous row-major slices. The
/// baseline the microkernel benches and edge-case tests compare against;
/// not part of the supported API.
#[doc(hidden)]
pub fn gemm_scalar_ref_into<T: Element>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "lhs buffer length mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(c.len(), m * n, "out buffer length mismatch");
    let (at, bt, ct) = (
        Tile::contiguous(0, k),
        Tile::contiguous(0, n),
        Tile::contiguous(0, n),
    );
    let p = c.as_mut_ptr();
    unsafe {
        match (accumulate, alpha == T::ONE) {
            (false, true) => scalar_kernel::<T, false, false>(a, at, b, bt, p, ct, m, k, n, alpha),
            (false, false) => scalar_kernel::<T, false, true>(a, at, b, bt, p, ct, m, k, n, alpha),
            (true, true) => scalar_kernel::<T, true, false>(a, at, b, bt, p, ct, m, k, n, alpha),
            (true, false) => scalar_kernel::<T, true, true>(a, at, b, bt, p, ct, m, k, n, alpha),
        }
    }
}

/// Serial packed-microkernel GEMM over contiguous row-major slices,
/// bypassing the size-threshold dispatch. Must be bit-identical to
/// [`gemm_scalar_ref_into`] for every shape and dtype; not part of the
/// supported API.
#[doc(hidden)]
pub fn gemm_micro_into<T: Element>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    alpha: T,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "lhs buffer length mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(c.len(), m * n, "out buffer length mismatch");
    let (at, bt, ct) = (
        Tile::contiguous(0, k),
        Tile::contiguous(0, n),
        Tile::contiguous(0, n),
    );
    let p = c.as_mut_ptr();
    unsafe {
        match (accumulate, alpha == T::ONE) {
            (false, true) => packed_kernel::<T, false, false>(a, at, b, bt, p, ct, m, k, n, alpha),
            (false, false) => packed_kernel::<T, false, true>(a, at, b, bt, p, ct, m, k, n, alpha),
            (true, true) => packed_kernel::<T, true, false>(a, at, b, bt, p, ct, m, k, n, alpha),
            (true, false) => packed_kernel::<T, true, true>(a, at, b, bt, p, ct, m, k, n, alpha),
        }
    }
}

/// Raw mutable pointer that may cross scoped-thread boundaries. The GEMM
/// partitioners guarantee the index sets written through it are disjoint.
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// `C = A · B` for row-major slices: `a` is `m×k`, `b` is `k×n`, `c` is `m×n`.
///
/// `c` is fully overwritten. The kernel uses the i-k-j loop order so the
/// inner loop streams both `b` and `c` rows. Above a work threshold the
/// output is partitioned across scoped threads — by rows when there are
/// enough of them, by *columns* otherwise, so wide single-row GEMMs (common
/// for im2col'd convolutions with one output row) still parallelize.
///
/// Every output element is accumulated in the same k-order regardless of
/// partitioning, so results are bit-identical across thread counts.
///
/// Generic over the element dtype ([`Element`]): f64 call sites (autodiff,
/// training) infer `T = f64` unchanged; the f32 instantiation serves the
/// compiled-inference plans.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn matmul_into<T: Element>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer length mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(c.len(), m * n, "out buffer length mismatch");
    gemm_dispatch(
        a,
        Tile::contiguous(0, k),
        b,
        Tile::contiguous(0, n),
        c,
        Tile::contiguous(0, n),
        m,
        k,
        n,
    );
}

/// Output-column width of one job in the wide-GEMM ragged sweep.
/// Bounded so each job's `k × cols` B-slab stays cache-resident and the
/// flop-balanced chunker has enough granularity to fill every thread.
///
/// 512 won a `[16, 144] · [144, 4096]` im2col'd conv sweep over widths
/// 128…2048 (1024 occasionally tied): a `144×512` f64 B-slab (~0.56 MiB)
/// comfortably fits L2. Chunk width only repartitions disjoint output
/// blocks, never an element's k-order, so it never changes results.
const WIDE_COL_CHUNK: usize = 512;

/// Whether a GEMM should run as a ragged [`GemmSpec`] sweep instead of a
/// one-axis partition: the output is much wider than tall — the shape of an
/// im2col'd convolution forward `W·cols` with many output pixels, where a
/// row partition would stream the whole `k×n` right operand per thread and
/// a column partition has only `threads` coarse cells to balance.
fn is_wide(m: usize, n: usize) -> bool {
    m >= 2 && n >= 2 * WIDE_COL_CHUNK && n >= 8 * m
}

/// One strided GEMM over [`Tile`] operands, serial below the work threshold
/// and partitioned across pooled threads above it: by rows when there are
/// enough of them, by columns for single-row outputs, and as a 2D ragged
/// [`GemmSpec`] sweep for the wide few-row shapes of im2col'd convolution
/// forwards (so those no longer funnel through one one-axis partition).
/// Every output element accumulates in the same k-order regardless of
/// partitioning, so results are bit-identical across thread counts.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch<T: Element>(
    a: &[T],
    at: Tile,
    b: &[T],
    bt: Tile,
    c: &mut [T],
    ct: Tile,
    m: usize,
    k: usize,
    n: usize,
) {
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let threads = gemm_threads();
    let c_len = c.len();
    let c_ptr = SendPtr(c.as_mut_ptr());
    if threads <= 1 || flops < PAR_FLOP_THRESHOLD || m * n == 0 {
        unsafe {
            gemm_tile(a, at, b, bt, c_ptr.0, c_len, ct, m, k, n, T::ONE, false);
        }
        return;
    }
    if is_wide(m, n) {
        // Wide few-row output: all-row × column-block jobs fed to the
        // flop-balanced ragged sweep, so every thread works on a bounded
        // B-slab instead of streaming the whole k×n right operand.
        let specs = wide_gemm_specs(at, bt, ct, m, k, n, threads);
        // SAFETY: the column blocks tile the output disjointly.
        unsafe {
            batched_matmul_ragged_into(a, b, c, &specs, T::ONE, false);
        }
        return;
    }
    partition_one_axis(a, at, b, bt, c_ptr, c_len, ct, m, k, n, threads);
}

/// The legacy one-axis parallel partition: by rows when there are enough of
/// them, by columns otherwise (the only way to spread a 1×n GEMM). Runs on
/// the shared pool; each job owns a disjoint slab of the output.
#[allow(clippy::too_many_arguments)]
fn partition_one_axis<T: Element>(
    a: &[T],
    at: Tile,
    b: &[T],
    bt: Tile,
    c_ptr: SendPtr<T>,
    c_len: usize,
    ct: Tile,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    if m >= threads || m >= n {
        // Row partition: thread t owns rows [r0, r0 + take).
        let threads = threads.min(m);
        let rows_per = m.div_ceil(threads);
        crate::pool::scope(|scope| {
            let mut row0 = 0;
            while row0 < m {
                let take = rows_per.min(m - row0);
                let at_chunk = Tile {
                    offset: at.offset + row0 * at.row_stride,
                    ..at
                };
                let ct_chunk = Tile {
                    offset: ct.offset + row0 * ct.row_stride,
                    ..ct
                };
                scope.spawn(move || unsafe {
                    let c_ptr = c_ptr;
                    gemm_tile(
                        a,
                        at_chunk,
                        b,
                        bt,
                        c_ptr.0,
                        c_len,
                        ct_chunk,
                        take,
                        k,
                        n,
                        T::ONE,
                        false,
                    );
                });
                row0 += take;
            }
        });
    } else {
        // Column partition: thread t owns columns [c0, c0 + take) of every
        // row.
        let threads = threads.min(n);
        let cols_per = n.div_ceil(threads);
        crate::pool::scope(|scope| {
            let mut col0 = 0;
            while col0 < n {
                let take = cols_per.min(n - col0);
                let bt_chunk = Tile {
                    offset: bt.offset + col0 * bt.col_stride,
                    ..bt
                };
                let ct_chunk = Tile {
                    offset: ct.offset + col0 * ct.col_stride,
                    ..ct
                };
                scope.spawn(move || unsafe {
                    let c_ptr = c_ptr;
                    gemm_tile(
                        a,
                        at,
                        b,
                        bt_chunk,
                        c_ptr.0,
                        c_len,
                        ct_chunk,
                        m,
                        k,
                        take,
                        T::ONE,
                        false,
                    );
                });
                col0 += take;
            }
        });
    }
}

/// The column-block job list of the wide-GEMM ragged sweep: every job
/// covers all `m` rows of one column block. Blocks are at most
/// [`WIDE_COL_CHUNK`] wide (cache-bounded B-slabs) and shrink further when needed
/// so at least `threads` jobs exist — a moderately wide output must not
/// occupy fewer threads than the row partition it replaced.
fn wide_gemm_specs(
    at: Tile,
    bt: Tile,
    ct: Tile,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) -> Vec<GemmSpec> {
    let chunk = WIDE_COL_CHUNK.min(n.div_ceil(threads.max(1))).max(64);
    let col_blocks = n.div_ceil(chunk);
    let mut specs = Vec::with_capacity(col_blocks);
    let mut col0 = 0;
    while col0 < n {
        let take = chunk.min(n - col0);
        specs.push(GemmSpec::new(
            at,
            Tile {
                offset: bt.offset + col0 * bt.col_stride,
                ..bt
            },
            Tile {
                offset: ct.offset + col0 * ct.col_stride,
                ..ct
            },
            m,
            k,
            take,
        ));
        col0 += take;
    }
    specs
}

/// Batched strided GEMM: for every `t`, `C[t] = A[t] · B[t]` where all
/// operands are `m×k` / `k×n` / `m×n` tiles addressed by [`Tile`]
/// descriptors into flat buffers.
///
/// This is the kernel that multiplies all `P×Q` PTC tiles of a layer in one
/// sweep: the per-tile descriptors point straight into the stacked factor
/// buffers (or into a large weight matrix), so no tile is ever copied out.
/// Tiles are partitioned across scoped threads when the total work is large
/// enough; each output element is accumulated in the same k-order as the
/// serial loop, so results are bit-identical to per-tile [`matmul_into`].
///
/// For the common contiguous cases prefer the safe wrappers
/// [`Tensor::batched_matmul`] / [`Tensor::batched_matmul_opt`], which
/// construct disjoint descriptors by design.
///
/// # Safety
///
/// The index sets the `c_tiles` descriptors address must be pairwise
/// disjoint. Overlapping output tiles would be written concurrently from
/// different threads on the parallel path — a data race. Grid assembly and
/// stacked batches satisfy disjointness by construction.
///
/// # Panics
///
/// Panics if the descriptor counts differ or any tile indexes out of
/// bounds.
#[allow(clippy::too_many_arguments)]
pub unsafe fn batched_matmul_into<T: Element>(
    a: &[T],
    a_tiles: &[Tile],
    b: &[T],
    b_tiles: &[Tile],
    c: &mut [T],
    c_tiles: &[Tile],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a_tiles.len(), b_tiles.len(), "tile count mismatch (a vs b)");
    assert_eq!(a_tiles.len(), c_tiles.len(), "tile count mismatch (a vs c)");
    let batch = a_tiles.len();
    if batch == 0 || m * n == 0 {
        return;
    }
    for t in 0..batch {
        assert!(
            a_tiles[t].max_index(m, k) < a.len(),
            "a tile {t} out of bounds"
        );
        assert!(
            b_tiles[t].max_index(k, n) < b.len(),
            "b tile {t} out of bounds"
        );
        assert!(
            c_tiles[t].max_index(m, n) < c.len(),
            "c tile {t} out of bounds"
        );
    }
    let threads = gemm_threads();
    let flops = 2.0 * batch as f64 * m as f64 * n as f64 * k as f64;
    let c_len = c.len();
    let c_ptr = SendPtr(c.as_mut_ptr());
    if threads <= 1 || flops < PAR_FLOP_THRESHOLD || batch == 1 {
        for t in 0..batch {
            unsafe {
                gemm_tile(
                    a,
                    a_tiles[t],
                    b,
                    b_tiles[t],
                    c_ptr.0,
                    c_len,
                    c_tiles[t],
                    m,
                    k,
                    n,
                    T::ONE,
                    false,
                );
            }
        }
        return;
    }
    let threads = threads.min(batch);
    let per = batch.div_ceil(threads);
    crate::pool::scope(|scope| {
        let mut t0 = 0;
        while t0 < batch {
            let take = per.min(batch - t0);
            let (ats, bts, cts) = (
                &a_tiles[t0..t0 + take],
                &b_tiles[t0..t0 + take],
                &c_tiles[t0..t0 + take],
            );
            scope.spawn(move || {
                let c_ptr = c_ptr;
                for t in 0..take {
                    unsafe {
                        gemm_tile(
                            a,
                            ats[t],
                            b,
                            bts[t],
                            c_ptr.0,
                            c_len,
                            cts[t],
                            m,
                            k,
                            n,
                            T::ONE,
                            false,
                        );
                    }
                }
            });
            t0 += take;
        }
    });
}

/// One GEMM of a *ragged* batched sweep: operand placements plus per-job
/// dimensions, so jobs of different shapes (e.g. the cropped edge tiles of
/// a non-multiple-of-K weight) run in the same sweep as the full interior
/// tiles instead of falling back to per-tile GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSpec {
    /// Placement of the `m×k` left operand.
    pub a: Tile,
    /// Placement of the `k×n` right operand.
    pub b: Tile,
    /// Placement of the `m×n` output.
    pub c: Tile,
    /// Output rows of this job.
    pub m: usize,
    /// Inner dimension of this job.
    pub k: usize,
    /// Output columns of this job.
    pub n: usize,
}

impl GemmSpec {
    /// A uniform-shape job (same `m/k/n` as its neighbours).
    pub fn new(a: Tile, b: Tile, c: Tile, m: usize, k: usize, n: usize) -> GemmSpec {
        GemmSpec { a, b, c, m, k, n }
    }

    fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }
}

/// Ragged batched strided GEMM: for every job `s`,
/// `C_s = α·A_s·B_s` (or `C_s += α·A_s·B_s` when `accumulate` is set),
/// where each job carries its *own* `m/k/n`.
///
/// This is the mixed-shape extension of [`batched_matmul_into`]: cropped
/// edge tiles of a non-multiple-of-K layer carry smaller `m`/`n` and join
/// the same sweep as the full interior tiles. Jobs are partitioned across
/// scoped threads by cumulative flop count; each output element accumulates
/// in the same k-order as the serial loop, and `α` is folded into the
/// streamed `a` element, so `α = 1` results are bit-identical to per-job
/// [`matmul_into`] and `α = −1` is an exact negation.
///
/// # Safety
///
/// The index sets the job `c` tiles address must be pairwise disjoint
/// (overlapping outputs would race on the parallel path).
///
/// # Panics
///
/// Panics if any job's operand placement indexes out of bounds.
pub unsafe fn batched_matmul_ragged_into<T: Element>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    specs: &[GemmSpec],
    alpha: T,
    accumulate: bool,
) {
    for (t, s) in specs.iter().enumerate() {
        assert!(
            s.a.max_index(s.m, s.k) < a.len() || s.m * s.k == 0,
            "a placement of job {t} out of bounds"
        );
        assert!(
            s.b.max_index(s.k, s.n) < b.len() || s.k * s.n == 0,
            "b placement of job {t} out of bounds"
        );
        assert!(
            s.c.max_index(s.m, s.n) < c.len() || s.m * s.n == 0,
            "c placement of job {t} out of bounds"
        );
    }
    let threads = gemm_threads();
    let total_flops: f64 = specs.iter().map(GemmSpec::flops).sum();
    let c_len = c.len();
    let c_ptr = SendPtr(c.as_mut_ptr());
    if threads <= 1 || total_flops < PAR_FLOP_THRESHOLD || specs.len() <= 1 {
        for s in specs {
            unsafe {
                gemm_tile(
                    a, s.a, b, s.b, c_ptr.0, c_len, s.c, s.m, s.k, s.n, alpha, accumulate,
                );
            }
        }
        return;
    }
    // Partition jobs into contiguous chunks of roughly equal flops.
    let per_thread = total_flops / threads as f64;
    crate::pool::scope(|scope| {
        let mut start = 0;
        while start < specs.len() {
            let mut end = start;
            let mut chunk_flops = 0.0;
            while end < specs.len() && (chunk_flops < per_thread || end == start) {
                chunk_flops += specs[end].flops();
                end += 1;
            }
            let chunk = &specs[start..end];
            scope.spawn(move || {
                let c_ptr = c_ptr;
                for s in chunk {
                    unsafe {
                        gemm_tile(
                            a, s.a, b, s.b, c_ptr.0, c_len, s.c, s.m, s.k, s.n, alpha, accumulate,
                        );
                    }
                }
            });
            start = end;
        }
    });
}

/// Matrix product of two rank-2 views.
///
/// Transposed, sliced and tiled operands run straight off their strides and
/// share the threaded row/column partitioner with [`matmul_into`]. One
/// exception: above the parallel work threshold a column-strided `b` (e.g.
/// a transposed view) is materialized once so the inner loop can stream
/// rows; small products stay allocation-free.
///
/// # Panics
///
/// Panics on rank or inner-dimension mismatch.
pub fn matmul_view(a: &View, b: &View) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_view lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_view rhs must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k, k2,
        "matmul_view inner dimension mismatch: {m}x{k} vs {k2}x{n}"
    );
    let mut out = Tensor::zeros(&[m, n]);
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let b_mat;
    let (b_slice, b_tile) = if b.strides()[1] != 1 && flops >= PAR_FLOP_THRESHOLD {
        // Column-strided rhs (e.g. a transposed view) above the parallel
        // threshold: one O(k·n) materialization buys the streaming inner
        // loop for the O(m·k·n) product. Small products stay copy-free.
        b_mat = b.materialize();
        (b_mat.as_slice(), Tile::contiguous(0, n))
    } else {
        (b.storage_slice(), Tile::of_view(b))
    };
    gemm_dispatch(
        a.storage_slice(),
        Tile::of_view(a),
        b_slice,
        b_tile,
        out.as_mut_slice(),
        Tile::contiguous(0, n),
        m,
        k,
        n,
    );
    out
}

impl Tensor {
    /// Matrix product `self · rhs`.
    ///
    /// Both operands must be rank 2 with an agreeing inner dimension.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    ///
    /// # Examples
    ///
    /// ```
    /// use adept_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
    /// let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]);
    /// assert_eq!(a.matmul(&b).as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be a matrix");
        assert_eq!(rhs.rank(), 2, "matmul rhs must be a matrix");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: {m}x{k} vs {k2}x{n}"
        );
        let mut out = Tensor::zeros(&[m, n]);
        matmul_into(self.as_slice(), rhs.as_slice(), out.as_mut_slice(), m, k, n);
        out
    }

    /// Batched matrix product of rank-3 tensors:
    /// `[T, m, k] · [T, k, n] → [T, m, n]`.
    ///
    /// Runs all `T` products in one [`batched_matmul_into`] sweep.
    ///
    /// # Panics
    ///
    /// Panics on rank, batch or inner-dimension mismatch.
    pub fn batched_matmul(&self, rhs: &Tensor) -> Tensor {
        self.batched_matmul_opt(rhs, false, false)
    }

    /// Batched matrix product with optional per-item transposes:
    /// `out[t] = opA(self[t]) · opB(rhs[t])` where `op` transposes when the
    /// corresponding flag is set.
    ///
    /// Transposes are pure stride swaps in the tile descriptors — nothing
    /// is materialized. This is what makes the batched autodiff backward
    /// pass (`dA[t] = dC[t]·B[t]ᵀ`, `dB[t] = A[t]ᵀ·dC[t]`) allocation-free
    /// apart from the gradient buffers themselves.
    ///
    /// # Panics
    ///
    /// Panics on rank, batch or inner-dimension mismatch.
    pub fn batched_matmul_opt(&self, rhs: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
        assert_eq!(self.rank(), 3, "batched_matmul lhs must be rank 3");
        assert_eq!(rhs.rank(), 3, "batched_matmul rhs must be rank 3");
        let (t, ar, ac) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (t2, br, bc) = (rhs.shape()[0], rhs.shape()[1], rhs.shape()[2]);
        assert_eq!(t, t2, "batch size mismatch: {t} vs {t2}");
        let (m, k) = if trans_a { (ac, ar) } else { (ar, ac) };
        let (k2, n) = if trans_b { (bc, br) } else { (br, bc) };
        assert_eq!(k, k2, "batched inner dimension mismatch");
        let a_tile = |i: usize| {
            if trans_a {
                Tile {
                    offset: i * ar * ac,
                    row_stride: 1,
                    col_stride: ac,
                }
            } else {
                Tile::contiguous(i * ar * ac, ac)
            }
        };
        let b_tile = |i: usize| {
            if trans_b {
                Tile {
                    offset: i * br * bc,
                    row_stride: 1,
                    col_stride: bc,
                }
            } else {
                Tile::contiguous(i * br * bc, bc)
            }
        };
        let a_tiles: Vec<Tile> = (0..t).map(a_tile).collect();
        let b_tiles: Vec<Tile> = (0..t).map(b_tile).collect();
        let c_tiles: Vec<Tile> = (0..t).map(|i| Tile::contiguous(i * m * n, n)).collect();
        let mut out = Tensor::zeros(&[t, m, n]);
        // SAFETY: c_tiles are non-overlapping contiguous [m, n] slabs.
        unsafe {
            batched_matmul_into(
                self.as_slice(),
                &a_tiles,
                rhs.as_slice(),
                &b_tiles,
                out.as_mut_slice(),
                &c_tiles,
                m,
                k,
                n,
            );
        }
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a matrix or dimensions disagree.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec lhs must be a matrix");
        assert_eq!(v.rank(), 1, "matvec rhs must be a vector");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        assert_eq!(k, v.len(), "matvec dimension mismatch");
        let mut out = Tensor::zeros(&[m]);
        let lhs = self.as_slice();
        let rhs = v.as_slice();
        let dst = out.as_mut_slice();
        for (i, slot) in dst.iter_mut().enumerate() {
            *slot = lhs[i * k..(i + 1) * k]
                .iter()
                .zip(rhs)
                .map(|(a, b)| a * b)
                .sum();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that override the process-global GEMM thread count must not
    /// interleave, or the partition paths they exercise go untested.
    static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

    fn thread_override_lock() -> std::sync::MutexGuard<'static, ()> {
        adept_telemetry::sync::lock_recover(&THREAD_OVERRIDE)
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
                }
                c.as_mut_slice()[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::linspace(1.0, 12.0, 12).reshape(&[3, 4]);
        assert!(a.matmul(&Tensor::eye(4)).allclose(&a, 1e-12));
        assert!(Tensor::eye(3).matmul(&a).allclose(&a, 1e-12));
    }

    #[test]
    fn matches_naive_small() {
        let a = Tensor::linspace(-2.0, 2.0, 6).reshape(&[2, 3]);
        let b = Tensor::linspace(0.5, 4.0, 12).reshape(&[3, 4]);
        assert!(a.matmul(&b).allclose(&naive(&a, &b), 1e-12));
    }

    #[test]
    fn matches_naive_threaded() {
        // Large enough to cross the threading threshold.
        let m = 96;
        let k = 64;
        let n = 80;
        let a = Tensor::from_vec(
            (0..m * k)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
                .collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n)
                .map(|i| ((i * 53 % 97) as f64 - 48.0) / 24.0)
                .collect(),
            &[k, n],
        );
        assert!(a.matmul(&b).allclose(&naive(&a, &b), 1e-9));
    }

    #[test]
    fn single_row_wide_gemm_uses_column_partition() {
        // m = 1 with n·k far above the parallel threshold: the column
        // partition must produce bit-identical results to the serial path.
        let k = 700;
        let n = 2400;
        let a = Tensor::from_vec(
            (0..k)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
                .collect(),
            &[1, k],
        );
        let b = Tensor::from_vec(
            (0..k * n)
                .map(|i| ((i * 53 % 97) as f64 - 48.0) / 24.0)
                .collect(),
            &[k, n],
        );
        let _guard = thread_override_lock();
        set_gemm_threads(4);
        let par = a.matmul(&b);
        set_gemm_threads(1);
        let ser = a.matmul(&b);
        set_gemm_threads(0);
        assert_eq!(par.as_slice(), ser.as_slice(), "must be bit-identical");
    }

    #[test]
    fn two_row_gemm_still_partitions_columns() {
        // m = 2 < threads: wide GEMMs with few rows take the column path.
        let k = 600;
        let n = 1500;
        let a = Tensor::from_vec(
            (0..2 * k)
                .map(|i| ((i * 31 % 89) as f64 - 44.0) / 22.0)
                .collect(),
            &[2, k],
        );
        let b = Tensor::from_vec(
            (0..k * n)
                .map(|i| ((i * 41 % 83) as f64 - 41.0) / 21.0)
                .collect(),
            &[k, n],
        );
        let _guard = thread_override_lock();
        set_gemm_threads(6);
        let par = a.matmul(&b);
        set_gemm_threads(1);
        let ser = a.matmul(&b);
        set_gemm_threads(0);
        assert_eq!(par.as_slice(), ser.as_slice());
    }

    #[test]
    fn wide_conv_shape_takes_ragged_sweep_and_matches_serial_bitwise() {
        // The im2col'd conv forward shape: 16 output channels, thousands of
        // output-pixel columns. This must select the ragged sweep and stay
        // bit-identical to the serial kernel.
        let (m, k, n) = (16usize, 96usize, 2048usize);
        assert!(super::is_wide(m, n), "conv shape must take the wide path");
        let a = Tensor::from_vec(
            (0..m * k)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
                .collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n)
                .map(|i| ((i * 53 % 97) as f64 - 48.0) / 24.0)
                .collect(),
            &[k, n],
        );
        let _guard = thread_override_lock();
        set_gemm_threads(4);
        let ragged = a.matmul(&b);
        set_gemm_threads(1);
        let serial = a.matmul(&b);
        set_gemm_threads(0);
        assert_eq!(ragged.as_slice(), serial.as_slice());
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let a = Tensor::linspace(0.0, 5.0, 6).reshape(&[2, 3]);
        let v = Tensor::from_vec(vec![1.0, -1.0, 2.0], &[3]);
        let via_mm = a.matmul(&v.reshape(&[3, 1])).reshape(&[2]);
        assert!(a.matvec(&v).allclose(&via_mm, 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn thread_override_roundtrip() {
        let _guard = thread_override_lock();
        set_gemm_threads(2);
        let a = Tensor::ones(&[64, 64]);
        let b = Tensor::ones(&[64, 64]);
        let c = a.matmul(&b);
        assert!((c.at(&[0, 0]) - 64.0).abs() < 1e-12);
        set_gemm_threads(0);
    }

    #[test]
    fn matmul_view_handles_transposes_and_tiles() {
        let a = Tensor::linspace(-1.0, 1.0, 12).reshape(&[3, 4]);
        let b = Tensor::linspace(0.0, 1.0, 12).reshape(&[3, 4]);
        // aᵀ · b without materializing aᵀ.
        let got = matmul_view(&a.t_view(), &b.view());
        let want = naive(&a.block(0, 0, 3, 4).t_view().materialize(), &b);
        assert!(got.allclose(&want, 1e-12));
        // Tile × tile straight out of the parents.
        let big = Tensor::linspace(0.0, 35.0, 36).reshape(&[6, 6]);
        let t1 = big.block_view(1, 1, 2, 3);
        let t2 = big.block_view(2, 0, 3, 2);
        let got = matmul_view(&t1, &t2);
        let want = naive(&t1.materialize(), &t2.materialize());
        assert!(got.allclose(&want, 1e-12));
    }

    #[test]
    fn batched_matches_looped_bitwise() {
        let t = 5;
        let (m, k, n) = (4, 6, 3);
        let a = Tensor::from_vec(
            (0..t * m * k)
                .map(|i| ((i * 29 % 31) as f64 - 15.0) / 9.0)
                .collect(),
            &[t, m, k],
        );
        let b = Tensor::from_vec(
            (0..t * k * n)
                .map(|i| ((i * 17 % 23) as f64 - 11.0) / 7.0)
                .collect(),
            &[t, k, n],
        );
        let batched = a.batched_matmul(&b);
        for ti in 0..t {
            let looped = a.subtensor(ti).matmul(&b.subtensor(ti));
            assert_eq!(
                batched.subtensor(ti).as_slice(),
                looped.as_slice(),
                "tile {ti} must match bit-for-bit"
            );
        }
    }

    #[test]
    fn batched_transpose_flags_match_materialized() {
        let t = 3;
        let a = Tensor::linspace(-1.0, 1.0, t * 2 * 4).reshape(&[t, 2, 4]);
        let b = Tensor::linspace(0.0, 2.0, t * 2 * 5).reshape(&[t, 2, 5]);
        // aᵀ·b per batch: [4,2]·[2,5] → [4,5].
        let got = a.batched_matmul_opt(&b, true, false);
        for ti in 0..t {
            let want = a.subtensor(ti).transpose().matmul(&b.subtensor(ti));
            assert_eq!(got.subtensor(ti).as_slice(), want.as_slice());
        }
        // a·bᵀ per batch with b as [t, 5, 4].
        let b2 = Tensor::linspace(0.0, 2.0, t * 5 * 4).reshape(&[t, 5, 4]);
        let got = a.batched_matmul_opt(&b2, false, true);
        for ti in 0..t {
            let want = a.subtensor(ti).matmul(&b2.subtensor(ti).transpose());
            assert_eq!(got.subtensor(ti).as_slice(), want.as_slice());
        }
    }

    #[test]
    fn ragged_sweep_threaded_matches_serial_bitwise() {
        // Enough flops to cross PAR_FLOP_THRESHOLD so the chunked
        // scope::spawn path runs; mixed job shapes; results must be
        // bit-identical to the serial sweep.
        let (big_m, big_k, big_n) = (48usize, 64usize, 48usize);
        let jobs = 24usize;
        let a = Tensor::from_vec(
            (0..jobs * big_m * big_k)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
                .collect(),
            &[jobs, big_m, big_k],
        );
        let b = Tensor::from_vec(
            (0..jobs * big_k * big_n)
                .map(|i| ((i * 53 % 97) as f64 - 48.0) / 24.0)
                .collect(),
            &[jobs, big_k, big_n],
        );
        // Every third job is "ragged": a cropped edge tile.
        let specs: Vec<GemmSpec> = (0..jobs)
            .map(|t| {
                let (m, n) = if t % 3 == 2 {
                    (big_m - 5, big_n - 7)
                } else {
                    (big_m, big_n)
                };
                GemmSpec::new(
                    Tile::contiguous(t * big_m * big_k, big_k),
                    Tile::contiguous(t * big_k * big_n, big_n),
                    Tile::contiguous(t * big_m * big_n, big_n),
                    m,
                    big_k,
                    n,
                )
            })
            .collect();
        let total_flops: f64 = specs.iter().map(|s| 2.0 * (s.m * s.k * s.n) as f64).sum();
        assert!(total_flops > PAR_FLOP_THRESHOLD, "must exercise threads");
        let run = |threads: usize| {
            let _guard = thread_override_lock();
            set_gemm_threads(threads);
            let mut out = Tensor::zeros(&[jobs, big_m, big_n]);
            // SAFETY: per-job output slabs are disjoint.
            unsafe {
                batched_matmul_ragged_into(
                    a.as_slice(),
                    b.as_slice(),
                    out.as_mut_slice(),
                    &specs,
                    1.0,
                    false,
                );
            }
            set_gemm_threads(0);
            out
        };
        let par = run(6);
        let ser = run(1);
        assert_eq!(par.as_slice(), ser.as_slice(), "must be bit-identical");
        // Spot-check a ragged job against the per-item reference.
        let want = a.subtensor(2).matmul(&b.subtensor(2));
        for i in 0..big_m - 5 {
            for j in 0..big_n - 7 {
                assert_eq!(par.subtensor(2).at(&[i, j]), want.at(&[i, j]));
            }
        }
    }

    #[test]
    fn ragged_sweep_alpha_and_accumulate() {
        // C ← A·B, then C += (−1)·A·B must return C to exactly zero: this
        // exercises the accumulate monomorphizations and the exactness of
        // α = −1 (negation folds into the streamed a element).
        let (m, k, n) = (5usize, 7usize, 4usize);
        let a = Tensor::linspace(-1.3, 1.7, m * k).reshape(&[1, m, k]);
        let b = Tensor::linspace(0.2, -2.1, k * n).reshape(&[1, k, n]);
        let specs = [GemmSpec::new(
            Tile::contiguous(0, k),
            Tile::contiguous(0, n),
            Tile::contiguous(0, n),
            m,
            k,
            n,
        )];
        let mut out = Tensor::zeros(&[m, n]);
        // SAFETY: single job, exclusive output.
        unsafe {
            batched_matmul_ragged_into(
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                &specs,
                1.0,
                false,
            );
        }
        assert!(out.allclose(&a.subtensor(0).matmul(&b.subtensor(0)), 1e-12));
        // Accumulate with α = 2: out becomes 3·A·B (within reassociation
        // rounding, since the two sweeps' running sums interleave).
        let mut tripled = out.clone();
        unsafe {
            batched_matmul_ragged_into(
                a.as_slice(),
                b.as_slice(),
                tripled.as_mut_slice(),
                &specs,
                2.0,
                true,
            );
        }
        assert!(tripled.allclose(&out.scale(3.0), 1e-12));
        // α = −1 accumulate cancels the overwrite sweep (up to the usual
        // reassociation rounding — each −a_ip·b term is exact, but the
        // running sums associate differently).
        let mut zeroed = out.clone();
        unsafe {
            batched_matmul_ragged_into(
                a.as_slice(),
                b.as_slice(),
                zeroed.as_mut_slice(),
                &specs,
                -1.0,
                true,
            );
        }
        assert!(
            zeroed.allclose(&Tensor::zeros(&[m, n]), 1e-12),
            "α = −1 accumulation must cancel to rounding error"
        );
    }

    #[test]
    fn batched_tiles_address_into_large_matrices() {
        // Extract two 2x2 tiles of a 4x4 matrix, multiply each by its own
        // rhs, and scatter into a 2x4 output — all through descriptors.
        let big = Tensor::linspace(0.0, 15.0, 16).reshape(&[4, 4]);
        let rhs = Tensor::linspace(1.0, 8.0, 8).reshape(&[2, 2, 2]);
        let mut out = Tensor::zeros(&[2, 4]);
        let a_tiles = [
            Tile {
                offset: 0,
                row_stride: 4,
                col_stride: 1,
            },
            Tile {
                offset: 10,
                row_stride: 4,
                col_stride: 1,
            },
        ];
        let b_tiles = [Tile::contiguous(0, 2), Tile::contiguous(4, 2)];
        let c_tiles = [
            Tile {
                offset: 0,
                row_stride: 4,
                col_stride: 1,
            },
            Tile {
                offset: 2,
                row_stride: 4,
                col_stride: 1,
            },
        ];
        // SAFETY: the two c tiles address disjoint halves of the output.
        unsafe {
            batched_matmul_into(
                big.as_slice(),
                &a_tiles,
                rhs.as_slice(),
                &b_tiles,
                out.as_mut_slice(),
                &c_tiles,
                2,
                2,
                2,
            );
        }
        let want0 = big.block(0, 0, 2, 2).matmul(&rhs.subtensor(0));
        let want1 = big.block(2, 2, 2, 2).matmul(&rhs.subtensor(1));
        assert_eq!(out.block(0, 0, 2, 2), want0);
        assert_eq!(out.block(0, 2, 2, 2), want1);
    }
}
