//! Allocation accounting for the zero-copy tensor substrate.
//!
//! These tests pin the acceptance criterion of the COW/view refactor: tile
//! extraction and tile assembly on the PTC hot path must perform **zero
//! full-tensor clones**. A counting global allocator measures the bytes
//! allocated inside each operation; view/descriptor bookkeeping is allowed
//! (small vectors of dims/strides), buffer copies are not.

use adept_tensor::{batched_matmul_into, Tensor, Tile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per-thread accounting so the parallel test harness can't attribute
    // its allocations to a measurement running on another thread.
    // `const`-initialized Cell has no lazy init and no destructor, so it is
    // safe to touch from inside the allocator.
    static LOCAL_BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward the caller's layout and pointer to `System`
// unchanged, so `System` upholds the `GlobalAlloc` contract; the count is a
// const-initialized thread-local `Cell`, which never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LOCAL_BYTES.try_with(|b| b.set(b.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while running `f`.
fn bytes_allocated<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LOCAL_BYTES.with(Cell::get);
    let out = f();
    (LOCAL_BYTES.with(Cell::get) - before, out)
}

#[test]
fn clone_reshape_row_are_not_buffer_copies() {
    let t = Tensor::linspace(0.0, 1.0, 64 * 64).reshape(&[64, 64]);
    let buffer_bytes = 64 * 64 * 8;
    let (b, c) = bytes_allocated(|| t.clone());
    assert!(b < buffer_bytes / 8, "clone allocated {b} bytes");
    assert!(c.shares_storage(&t));
    let (b, r) = bytes_allocated(|| t.reshape(&[4096]));
    assert!(b < buffer_bytes / 8, "reshape allocated {b} bytes");
    assert!(r.shares_storage(&t));
    let (b, row) = bytes_allocated(|| t.row(17));
    assert!(b < buffer_bytes / 8, "row allocated {b} bytes");
    assert!(row.shares_storage(&t));
}

#[test]
fn tile_extraction_of_full_weight_is_zero_copy() {
    // All 64 K=8 tiles of a 64x64 weight: extraction must cost descriptor
    // bookkeeping only — far less than one buffer copy.
    let k = 8;
    let w = Tensor::linspace(-1.0, 1.0, 64 * 64).reshape(&[64, 64]);
    let buffer_bytes = 64 * 64 * 8;
    let (b, views) = bytes_allocated(|| {
        let mut views = Vec::new();
        for r in 0..8 {
            for c in 0..8 {
                views.push(w.block_view(r * k, c * k, k, k));
            }
        }
        views
    });
    assert_eq!(views.len(), 64);
    assert!(views.iter().all(|v| v.shares_storage(&w)));
    assert!(
        b < buffer_bytes,
        "extracting 64 tile views allocated {b} bytes (≥ one full buffer)"
    );
}

#[test]
fn batched_tile_multiply_allocates_nothing_beyond_outputs() {
    // The stage-2 inner-loop shape: multiply every K=8 tile of a 64x64
    // weight by its own 8x8 rhs straight out of the parent buffers.
    let k = 8;
    let w = Tensor::linspace(-1.0, 1.0, 64 * 64).reshape(&[64, 64]);
    let rhs = Tensor::linspace(0.0, 1.0, 64 * k * k).reshape(&[64, k, k]);
    let mut out = Tensor::zeros(&[64, k, k]);
    let a_tiles: Vec<Tile> = (0..64)
        .map(|t| Tile {
            offset: (t / 8) * k * 64 + (t % 8) * k,
            row_stride: 64,
            col_stride: 1,
        })
        .collect();
    let b_tiles: Vec<Tile> = (0..64).map(|t| Tile::contiguous(t * k * k, k)).collect();
    let c_tiles = b_tiles.clone();
    let out_slice = out.as_mut_slice();
    let (b, ()) = bytes_allocated(|| {
        batched_matmul_into(
            w.as_slice(),
            &a_tiles,
            rhs.as_slice(),
            &b_tiles,
            out_slice,
            &c_tiles,
            k,
            k,
            k,
        );
    });
    assert!(
        b < k * k * 8,
        "batched tile sweep allocated {b} bytes (≥ one tile buffer)"
    );
}

#[test]
fn autodiff_value_reads_share_storage() {
    use adept_autodiff::Graph;
    let g = Graph::new();
    let t = Tensor::linspace(0.0, 1.0, 4096).reshape(&[64, 64]);
    let v = g.leaf(t.clone());
    let buffer_bytes = 4096 * 8;
    let (b, val) = bytes_allocated(|| v.value());
    assert!(b < buffer_bytes / 8, "Var::value() allocated {b} bytes");
    assert!(val.shares_storage(&t), "tape reads must be zero-copy");
}

#[test]
fn assemble_backward_hands_out_shared_gradient_windows() {
    // The discriminating check for the batched tile pipeline: gradients
    // flowing back to the individual blocks of an assembled grid must all
    // be windows of ONE [T, kr, kc] gradient buffer (stack's backward is
    // zero-copy slicing). The seed's per-tile implementation produced an
    // independent `g.block(...)` copy per block, which fails this test.
    use adept_autodiff::{assemble_blocks, Graph};
    let g = Graph::new();
    let blocks: Vec<_> = (0..4)
        .map(|i| g.leaf(Tensor::full(&[8, 8], i as f64)))
        .collect();
    let big = assemble_blocks(&blocks, 2, 2);
    let grads = g.backward(big.square().sum());
    let g0 = grads.grad(blocks[0]).unwrap();
    for (i, b) in blocks.iter().enumerate().skip(1) {
        assert!(
            grads.grad(*b).unwrap().shares_storage(g0),
            "block {i} gradient must window the shared stack gradient"
        );
    }
}

#[test]
fn batched_unitary_build_allocates_far_less_than_per_tile() {
    // The batched builder carries one [T, K, K] running product per mesh
    // block instead of T per-tile chains: for a 64x64 K=8 weight its whole
    // forward build must allocate several times less than the per-tile
    // reference and stay within a fixed budget of weight-buffer
    // equivalents (stack buffers + per-block products + the output grid).
    use adept_nn::onn::PtcWeight;
    use adept_nn::{ForwardCtx, ParamStore};
    use adept_photonics::BlockMeshTopology;
    let mut store = ParamStore::new();
    let topo = BlockMeshTopology::butterfly(8);
    let w = PtcWeight::new(&mut store, "w", 64, 64, topo.clone(), topo, 1);
    let graph = adept_autodiff::Graph::new();
    let ctx = ForwardCtx::new(&graph, &store, false, 0);
    let _ = w.build(&ctx); // warm up parameter leaves
    let (batched_bytes, built) = bytes_allocated(|| w.build(&ctx));
    assert_eq!(built.shape(), vec![64, 64]);
    let (per_tile_bytes, _) = bytes_allocated(|| w.build_per_tile(&ctx));
    let buffer_bytes = 64 * 64 * 8;
    assert!(
        batched_bytes < 80 * buffer_bytes,
        "batched build allocated {batched_bytes} bytes (> 80 weight buffers)"
    );
    assert!(
        3 * batched_bytes < per_tile_bytes,
        "batched ({batched_bytes}B) must allocate <1/3 of per-tile ({per_tile_bytes}B)"
    );
}

#[test]
fn batched_unitary_backward_writes_only_gradient_buffers() {
    // The grid tile-product node's backward pass must run off stride-swapped
    // descriptors: four [T, K, K] gradient buffers plus view bookkeeping,
    // never a materialized transpose or per-tile temporary.
    use adept_autodiff::{batched_tile_product_grid, Graph};
    let (gr, gc, k) = (4usize, 4usize, 8usize);
    let t = gr * gc;
    let stacks: Vec<Tensor> = (0..4)
        .map(|i| Tensor::linspace(-1.0 - i as f64, 1.0 + i as f64, t * k * k).reshape(&[t, k, k]))
        .collect();
    let g = Graph::new();
    let vars: Vec<_> = stacks.iter().map(|s| g.leaf(s.clone())).collect();
    // Ragged output: edge tiles cropped to 30×29.
    let prod = batched_tile_product_grid(vars[0], vars[1], vars[2], vars[3], gr, gc, 30, 29);
    let loss = prod.square().sum();
    let (bytes, grads) = bytes_allocated(|| g.backward(loss));
    for v in &vars {
        assert_eq!(grads.grad(*v).unwrap().shape(), &[t, k, k]);
    }
    // Budget: the four [T, K, K] gradient stacks and the two elementwise
    // intermediates of square/sum, with slack for descriptor vectors —
    // far below what materialized transposes (4 more stacks per batch
    // item) would cost.
    let stack_bytes = t * k * k * 8;
    assert!(
        bytes < 12 * stack_bytes,
        "grid-product backward allocated {bytes} bytes (> 12 gradient stacks)"
    );
}

#[test]
fn im2col_scratch_reuse_does_not_reallocate() {
    // Once warm, a training step's im2col must reuse the previous step's
    // buffer: the patch matrix was the largest per-step allocation.
    use adept_tensor::{im2col_into, Conv2dGeometry};
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 12,
        in_w: 12,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let x = Tensor::linspace(-1.0, 1.0, 16 * 8 * 12 * 12).reshape(&[16, 8, 12, 12]);
    let mut scratch = Tensor::default();
    im2col_into(&x, &geom, &mut scratch); // warm: allocates once
    let full_bytes = scratch.len() * 8;
    let (bytes, ()) = bytes_allocated(|| im2col_into(&x, &geom, &mut scratch));
    assert!(
        bytes < full_bytes / 8,
        "warm im2col_into allocated {bytes} bytes (≥ 1/8 of the patch matrix)"
    );
}

#[test]
fn ptc_weight_forward_performs_no_per_tile_block_copies() {
    // End-to-end canary: building a 64x64 K=8 PtcWeight (64 tiles) is
    // dominated by the per-tile unitary construction; the tile *pipeline*
    // itself adds only the four [T,K,K] stacks, two batched products and
    // one assembly. The generous budget below is a regression tripwire —
    // reintroducing per-tile extraction/assembly copies (plus the per-tile
    // matmul nodes they imply) blows well past it.
    use adept_nn::onn::PtcWeight;
    use adept_nn::{ForwardCtx, ParamStore};
    use adept_photonics::BlockMeshTopology;
    let mut store = ParamStore::new();
    let topo = BlockMeshTopology::butterfly(8);
    let w = PtcWeight::new(&mut store, "w", 64, 64, topo.clone(), topo, 1);
    let graph = adept_autodiff::Graph::new();
    let ctx = ForwardCtx::new(&graph, &store, false, 0);
    // Warm up once so lazily allocated parameter leaves don't count.
    let _ = w.build(&ctx);
    let buffer_bytes = 64 * 64 * 8;
    let (b, built) = bytes_allocated(|| w.build(&ctx));
    assert_eq!(built.shape(), vec![64, 64]);
    assert!(
        b < 400 * buffer_bytes,
        "PtcWeight::build allocated {b} bytes (> 400 weight buffers)"
    );
}
