//! Layers on the autodiff tape: the one [`Linear`] and the one [`Conv2d`],
//! each over a [`Weight`] that is electronic, the MZI-ONN baseline or a
//! photonic tensor core, plus the electronic batch norm, activations,
//! pooling and [`Sequential`].

use crate::lower::{LowerError, LoweredStep};
use crate::mesh::MeshWeight;
use crate::onn::Weight;
use crate::param::{ForwardCtx, ParamId, ParamStore};
use adept_autodiff::Var;
use adept_photonics::DeviceCount;
use adept_tensor::{col2im, Conv2dGeometry, Tensor};

/// A trainable or stateless network layer.
///
/// Layers take `&mut self` so stateful layers (batch-norm running statistics)
/// can update during training-mode forwards.
pub trait Layer {
    /// Runs the layer on the tape.
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g>;

    /// Parameters owned by this layer.
    fn param_ids(&self) -> Vec<ParamId> {
        Vec::new()
    }

    /// Sets the Gaussian phase-drift std on photonic layers (no-op for
    /// electronic ones). Used by variation-aware training and the Fig. 4
    /// robustness sweeps.
    fn set_phase_noise(&mut self, _std: f64) {}

    /// Device count of the layer's photonic tensor core, if it has one.
    fn device_count(&self) -> Option<DeviceCount> {
        None
    }

    /// Mesh weights this layer materializes each step, in forward order.
    ///
    /// The build engine ([`crate::mesh::prebuild_mesh_weights`]) collects
    /// these across a model and records them in this order before the
    /// forward pass; layers without photonic weights report none.
    fn mesh_weights<'g>(&self) -> Vec<&dyn MeshWeight<'g>> {
        Vec::new()
    }

    /// Non-parameter state that must survive checkpointing, as named flat
    /// f64 vectors — batch-norm running statistics are the one case in
    /// this workspace. Stateless layers report none. Names are
    /// `{layer}.{stat}` (e.g. `bn1.running_mean`), unique within a model,
    /// so a [`Sequential`] can concatenate its children's entries.
    fn state(&self) -> Vec<(String, Vec<f64>)> {
        Vec::new()
    }

    /// Restores state captured by [`Layer::state`]. Each layer picks out
    /// its own entries by name and ignores the rest, so a [`Sequential`]
    /// can broadcast one flat map to every child. Returns an error naming
    /// the entry on a missing stat or a length mismatch.
    fn load_state(&mut self, _state: &[(String, Vec<f64>)]) -> Result<(), String> {
        Ok(())
    }

    /// Appends this layer's tape-free inference steps to `out`
    /// (see [`crate::lower`]). `ctx` is the prebuild context of
    /// [`crate::lower::lower_model`]: photonic layers build their frozen
    /// weight matrices through it, consuming the prebuilt cache and the
    /// shared RNG exactly as a tape forward would. The default declines,
    /// naming the layer type — only layers whose eval-mode arithmetic is
    /// expressible as [`LoweredStep`]s opt in.
    fn lower<'g>(
        &self,
        _ctx: &ForwardCtx<'g, '_>,
        _out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        Err(LowerError::unsupported(std::any::type_name::<Self>()))
    }
}

/// A sequence of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (boxing happens internally, so `seq.push(Relu)`
    /// just works).
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let mut h = x;
        for layer in &mut self.layers {
            h = layer.forward(ctx, h);
        }
        h
    }

    fn param_ids(&self) -> Vec<ParamId> {
        self.layers.iter().flat_map(|l| l.param_ids()).collect()
    }

    fn set_phase_noise(&mut self, std: f64) {
        for layer in &mut self.layers {
            layer.set_phase_noise(std);
        }
    }

    fn device_count(&self) -> Option<DeviceCount> {
        self.layers.iter().find_map(|l| l.device_count())
    }

    fn mesh_weights<'g>(&self) -> Vec<&dyn MeshWeight<'g>> {
        self.layers.iter().flat_map(|l| l.mesh_weights()).collect()
    }

    fn state(&self) -> Vec<(String, Vec<f64>)> {
        self.layers.iter().flat_map(|l| l.state()).collect()
    }

    fn load_state(&mut self, state: &[(String, Vec<f64>)]) -> Result<(), String> {
        for layer in &mut self.layers {
            layer.load_state(state)?;
        }
        Ok(())
    }

    fn lower<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        // Forward order — photonic layers consume prebuilt weights and any
        // noise draws in the same sequence as the tape forward.
        for layer in &self.layers {
            layer.lower(ctx, out)?;
        }
        Ok(())
    }
}

/// Rectified linear unit.
#[derive(Debug, Default, Clone, Copy)]
pub struct Relu;

impl Layer for Relu {
    fn forward<'g>(&mut self, _ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        x.relu()
    }

    fn lower<'g>(
        &self,
        _ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        out.push(LoweredStep::Relu);
        Ok(())
    }
}

/// Flattens `[N, …]` to `[N, features]`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Flatten;

impl Layer for Flatten {
    fn forward<'g>(&mut self, _ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let shape = x.shape();
        let n = shape[0];
        let rest: usize = shape[1..].iter().product();
        x.reshape(&[n, rest])
    }

    fn lower<'g>(
        &self,
        _ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        out.push(LoweredStep::Flatten);
        Ok(())
    }
}

/// Affine layer `y = x·Wᵀ + b` over any [`Weight`] realization.
pub struct Linear {
    weight: Weight,
    bias: ParamId,
}

impl Linear {
    /// Registers a Kaiming-initialized electronic layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        seed: u64,
    ) -> Self {
        let weight = Weight::dense(store, name, in_features, out_features, seed, None);
        Self::with_weight(store, name, out_features, weight)
    }

    /// Registers the bias `{name}.b` of a layer over an already registered
    /// `out_features`-row weight (see [`crate::models::Backend::linear`]).
    pub fn with_weight(
        store: &mut ParamStore,
        name: &str,
        out_features: usize,
        weight: Weight,
    ) -> Self {
        Self {
            weight,
            bias: store.register(format!("{name}.b"), Tensor::zeros(&[out_features]), 0.0),
        }
    }
}

impl Layer for Linear {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let w = self.weight.build(ctx);
        let b = ctx.param(self.bias);
        x.matmul(w.transpose()).add(b)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.weight.param_ids();
        ids.push(self.bias);
        ids
    }

    fn set_phase_noise(&mut self, std: f64) {
        self.weight.set_phase_noise(std);
    }

    fn device_count(&self) -> Option<DeviceCount> {
        self.weight.device_count()
    }

    fn mesh_weights<'g>(&self) -> Vec<&dyn MeshWeight<'g>> {
        self.weight.mesh_weights()
    }

    fn lower<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        // The weight's tape value — consuming a prebuilt PTC variable and
        // any noise draws, so the frozen matrix is bit-identical to the
        // forward pass's. The tape multiplies by its transpose, so capture
        // exactly that tensor.
        out.push(LoweredStep::Linear {
            w_t: self.weight.build(ctx).value().transpose(),
            bias: ctx.store.value(self.bias).clone(),
        });
        Ok(())
    }
}

/// 2-D convolution over any [`Weight`] realization of its
/// `[out_channels, C·k·k]` matrix (see [`conv2d`]).
pub struct Conv2d {
    weight: Weight,
    bias: ParamId,
    geom: Conv2dGeometry,
    /// Patch-matrix scratch reused across training steps.
    scratch: Tensor,
}

impl Conv2d {
    /// Registers a Kaiming-initialized electronic convolution.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        geom: Conv2dGeometry,
        out_channels: usize,
        seed: u64,
    ) -> Self {
        let weight = Weight::dense(store, name, geom.col_rows(), out_channels, seed, None);
        Self::with_weight(store, name, geom, out_channels, weight)
    }

    /// Registers the bias `{name}.b` of a convolution over an already
    /// registered `[out_channels, C·k·k]` weight (see
    /// [`crate::models::Backend::conv`]).
    pub fn with_weight(
        store: &mut ParamStore,
        name: &str,
        geom: Conv2dGeometry,
        out_channels: usize,
        weight: Weight,
    ) -> Self {
        Self {
            weight,
            bias: store.register(format!("{name}.b"), Tensor::zeros(&[out_channels]), 0.0),
            geom,
            scratch: Tensor::default(),
        }
    }
}

impl Layer for Conv2d {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let w = self.weight.build(ctx);
        let b = ctx.param(self.bias);
        conv2d(x, w, b, self.geom, &mut self.scratch)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.weight.param_ids();
        ids.push(self.bias);
        ids
    }

    fn set_phase_noise(&mut self, std: f64) {
        self.weight.set_phase_noise(std);
    }

    fn device_count(&self) -> Option<DeviceCount> {
        self.weight.device_count()
    }

    fn mesh_weights<'g>(&self) -> Vec<&dyn MeshWeight<'g>> {
        self.weight.mesh_weights()
    }

    fn lower<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        let w = self.weight.build(ctx).value();
        out.push(LoweredStep::Conv2d {
            out_channels: w.shape()[0],
            w,
            bias: ctx.store.value(self.bias).clone(),
            geom: self.geom,
        });
        Ok(())
    }
}

/// The tape convolution `w ⊛ x + b` over NCHW input: `im2col` into
/// `scratch`, one `[OC, C·k·k] × [C·k·k, N·OH·OW]` GEMM, the reorder to
/// `[N, OC, OH, OW]`, and the per-channel bias.
pub fn conv2d<'g>(
    x: Var<'g>,
    w: Var<'g>,
    bias: Var<'g>,
    geom: Conv2dGeometry,
    scratch: &mut Tensor,
) -> Var<'g> {
    let oc = w.shape()[0];
    let cols = im2col_var_scratch(x, geom, scratch);
    let y = cols_to_nchw(w.matmul(cols), x.shape()[0], oc, geom.out_h(), geom.out_w());
    y.add(bias.reshape(&[oc, 1, 1]))
}

/// Differentiable `im2col` node (backward is `col2im`) writing into a
/// reusable `scratch` buffer.
///
/// The unrolled patch matrix is the largest per-step allocation of a
/// convolution layer. Each layer keeps one scratch tensor across training
/// steps: the tape's handle from step `n` is dropped with the graph, so by
/// step `n+1` the scratch owns its buffer exclusively again and
/// [`adept_tensor::im2col_into`] fills it in place without allocating.
/// After the call, `scratch` and the tape node share the same storage
/// (a refcount bump, not a copy).
fn im2col_var_scratch<'g>(x: Var<'g>, geom: Conv2dGeometry, scratch: &mut Tensor) -> Var<'g> {
    let input = x.value();
    let n = input.shape()[0];
    let mut cols = std::mem::take(scratch);
    adept_tensor::im2col_into(&input, &geom, &mut cols);
    *scratch = cols.clone();
    x.graph().custom(
        &[x],
        cols,
        Box::new(move |g| vec![Some(col2im(g, &geom, n))]),
    )
}

/// Reorders a `[OC, N·P]` column matrix into NCHW `[N, OC, OH, OW]`.
fn cols_to_nchw<'g>(y: Var<'g>, n: usize, oc: usize, oh: usize, ow: usize) -> Var<'g> {
    let p = oh * ow;
    let mut positions = Vec::with_capacity(n * oc * p);
    for ni in 0..n {
        for c in 0..oc {
            for pix in 0..p {
                positions.push(c * (n * p) + ni * p + pix);
            }
        }
    }
    y.reshape(&[oc * n * p])
        .gather(&positions)
        .reshape(&[n, oc, oh, ow])
}

/// Differentiable batch normalization primitive over NCHW input.
///
/// When `training` is true, batch statistics are computed from `x`; in eval
/// mode the supplied `running` statistics are used. Returns the normalized
/// output plus the `(mean, var)` actually used, so stateful layers can
/// update their running averages.
///
/// # Panics
///
/// Panics if shapes disagree or eval mode is requested without statistics.
pub fn batch_norm2d_op<'g>(
    x: Var<'g>,
    gamma: Var<'g>,
    beta: Var<'g>,
    training: bool,
    running: Option<(&[f64], &[f64])>,
    eps: f64,
) -> (Var<'g>, Vec<f64>, Vec<f64>) {
    let v = x.value();
    assert_eq!(v.rank(), 4, "batch_norm2d_op expects NCHW");
    let (n, c, h, w) = (v.shape()[0], v.shape()[1], v.shape()[2], v.shape()[3]);
    let hw = h * w;
    let per = (n * hw) as f64;
    let src = v.as_slice();
    // Every loop below walks (sample, channel) planes: plane `ni * c + ci`
    // is the contiguous run `[(ni * c + ci) * hw, … + hw)`.
    let plane = move |ni: usize, ci: usize| (ni * c + ci) * hw..(ni * c + ci + 1) * hw;
    let (mean, var) = if training {
        let mut mean = vec![0.0f64; c];
        let mut var = vec![0.0f64; c];
        for ci in 0..c {
            let mut s = 0.0;
            for ni in 0..n {
                s += src[plane(ni, ci)].iter().sum::<f64>();
            }
            mean[ci] = s / per;
            let mut s2 = 0.0;
            for ni in 0..n {
                s2 += src[plane(ni, ci)]
                    .iter()
                    .map(|&x| (x - mean[ci]) * (x - mean[ci]))
                    .sum::<f64>();
            }
            var[ci] = s2 / per;
        }
        (mean, var)
    } else {
        let (m, vv) = running.expect("eval mode requires running statistics");
        (m.to_vec(), vv.to_vec())
    };
    let inv_std: Vec<f64> = var.iter().map(|&x| 1.0 / (x + eps).sqrt()).collect();
    let gval = gamma.value();
    let bval = beta.value();
    let (gam, bet) = (gval.as_slice(), bval.as_slice());
    let mut xhat = vec![0.0; src.len()];
    let mut out = vec![0.0; src.len()];
    for ni in 0..n {
        for ci in 0..c {
            let r = plane(ni, ci);
            let planes = xhat[r.clone()].iter_mut().zip(&mut out[r.clone()]);
            for ((xh, y), &x) in planes.zip(&src[r]) {
                *xh = (x - mean[ci]) * inv_std[ci];
                *y = *xh * gam[ci] + bet[ci];
            }
        }
    }
    let xhat_saved = xhat;
    let inv_std_saved = inv_std;
    let mean_out = mean.clone();
    let var_out = var.clone();
    let node = x.graph().custom(
        &[x, gamma, beta],
        Tensor::from_vec(out, &[n, c, h, w]),
        Box::new(move |g| {
            let (g, xhat) = (g.as_slice(), &xhat_saved[..]);
            let gam = gval.as_slice();
            let mut dgamma = vec![0.0; c];
            let mut dbeta = vec![0.0; c];
            let mut dx = vec![0.0; g.len()];
            for ci in 0..c {
                let mut sum_g = 0.0;
                let mut sum_gx = 0.0;
                for ni in 0..n {
                    let r = plane(ni, ci);
                    for (&gi, &xh) in g[r.clone()].iter().zip(&xhat[r]) {
                        sum_g += gi;
                        sum_gx += gi * xh;
                    }
                }
                dbeta[ci] = sum_g;
                dgamma[ci] = sum_gx;
                for ni in 0..n {
                    let r = plane(ni, ci);
                    let grads = g[r.clone()].iter().zip(&xhat[r.clone()]);
                    for (d, (&gi, &xh)) in dx[r].iter_mut().zip(grads) {
                        *d = if training {
                            gam[ci] * inv_std_saved[ci] * (gi - sum_g / per - xh * sum_gx / per)
                        } else {
                            gam[ci] * inv_std_saved[ci] * gi
                        };
                    }
                }
            }
            vec![
                Some(Tensor::from_vec(dx, &[n, c, h, w])),
                Some(Tensor::from_vec(dgamma, &[c])),
                Some(Tensor::from_vec(dbeta, &[c])),
            ]
        }),
    );
    (node, mean_out, var_out)
}

/// Batch normalization over NCHW batches (per-channel statistics).
pub struct BatchNorm2d {
    gamma: ParamId,
    beta: ParamId,
    /// Construction name; keys the running statistics in [`Layer::state`].
    name: String,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    momentum: f64,
    eps: f64,
    channels: usize,
}

impl BatchNorm2d {
    /// Registers a batch-norm layer for `channels` feature maps.
    pub fn new(store: &mut ParamStore, name: &str, channels: usize) -> Self {
        Self {
            gamma: store.register(format!("{name}.gamma"), Tensor::ones(&[channels]), 0.0),
            beta: store.register(format!("{name}.beta"), Tensor::zeros(&[channels]), 0.0),
            name: name.to_owned(),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        assert_eq!(x.shape()[1], self.channels, "channel mismatch");
        let gamma = ctx.param(self.gamma);
        let beta = ctx.param(self.beta);
        let (y, mean, var) = batch_norm2d_op(
            x,
            gamma,
            beta,
            ctx.training,
            Some((&self.running_mean, &self.running_var)),
            self.eps,
        );
        if ctx.training {
            for ci in 0..self.channels {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
            }
        }
        y
    }

    fn param_ids(&self) -> Vec<ParamId> {
        vec![self.gamma, self.beta]
    }

    fn state(&self) -> Vec<(String, Vec<f64>)> {
        vec![
            (
                format!("{}.running_mean", self.name),
                self.running_mean.clone(),
            ),
            (
                format!("{}.running_var", self.name),
                self.running_var.clone(),
            ),
        ]
    }

    fn load_state(&mut self, state: &[(String, Vec<f64>)]) -> Result<(), String> {
        for (field, dst) in [
            ("running_mean", &mut self.running_mean),
            ("running_var", &mut self.running_var),
        ] {
            let key = format!("{}.{field}", self.name);
            let entry = state
                .iter()
                .find(|(name, _)| *name == key)
                .ok_or_else(|| format!("missing layer state `{key}`"))?;
            if entry.1.len() != self.channels {
                return Err(format!(
                    "layer state `{key}` holds {} values, expected {}",
                    entry.1.len(),
                    self.channels
                ));
            }
            dst.copy_from_slice(&entry.1);
        }
        Ok(())
    }

    fn lower<'g>(
        &self,
        ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        // Freeze the eval-mode path of `batch_norm2d_op`: running stats
        // with inv_std precomputed the same way (`1/sqrt(var + eps)`).
        out.push(LoweredStep::BatchNorm2d {
            mean: self.running_mean.clone(),
            inv_std: self
                .running_var
                .iter()
                .map(|&v| 1.0 / (v + self.eps).sqrt())
                .collect(),
            gamma: ctx.store.value(self.gamma).as_slice().to_vec(),
            beta: ctx.store.value(self.beta).as_slice().to_vec(),
        });
        Ok(())
    }
}

/// Average pooling with square window and equal stride.
#[derive(Debug, Clone, Copy)]
pub struct AvgPool2d {
    kernel: usize,
}

impl AvgPool2d {
    /// Creates a pool with window `kernel` (stride = kernel).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        Self { kernel }
    }
}

impl Layer for AvgPool2d {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let v = x.value();
        assert_eq!(v.rank(), 4, "AvgPool2d expects NCHW");
        let (n, c, h, w) = (v.shape()[0], v.shape()[1], v.shape()[2], v.shape()[3]);
        let k = self.kernel;
        assert!(
            h >= k && w >= k,
            "pool window {k} larger than input {h}x{w}"
        );
        let (oh, ow) = (h / k, w / k);
        let (hw, ohw) = (h * w, oh * ow);
        // Each (sample, channel) plane pools on its own: input plane `i`
        // is `src[i * hw..]`, output plane `i` is `out[i * ohw..]`.
        let src = v.as_slice();
        let mut out = vec![0.0; n * c * ohw];
        for i in 0..n * c {
            let xp = &src[i * hw..(i + 1) * hw];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut s = 0.0;
                    for dy in 0..k {
                        let row = (oy * k + dy) * w + ox * k;
                        for &x in &xp[row..row + k] {
                            s += x;
                        }
                    }
                    out[i * ohw + oy * ow + ox] = s / (k * k) as f64;
                }
            }
        }
        ctx.graph.custom(
            &[x],
            Tensor::from_vec(out, &[n, c, oh, ow]),
            Box::new(move |g| {
                let g = g.as_slice();
                let mut dx = vec![0.0; n * c * hw];
                let scale = 1.0 / (k * k) as f64;
                for i in 0..n * c {
                    let dp = &mut dx[i * hw..(i + 1) * hw];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let gi = g[i * ohw + oy * ow + ox] * scale;
                            for dy in 0..k {
                                let row = (oy * k + dy) * w + ox * k;
                                for d in &mut dp[row..row + k] {
                                    *d += gi;
                                }
                            }
                        }
                    }
                }
                vec![Some(Tensor::from_vec(dx, &[n, c, h, w]))]
            }),
        )
    }

    fn lower<'g>(
        &self,
        _ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        out.push(LoweredStep::AvgPool2d {
            kernel: self.kernel,
        });
        Ok(())
    }
}

/// Max pooling with square window and equal stride.
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2d {
    kernel: usize,
}

impl MaxPool2d {
    /// Creates a pool with window `kernel` (stride = kernel).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        Self { kernel }
    }
}

impl Layer for MaxPool2d {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let v = x.value();
        assert_eq!(v.rank(), 4, "MaxPool2d expects NCHW");
        let (n, c, h, w) = (v.shape()[0], v.shape()[1], v.shape()[2], v.shape()[3]);
        let k = self.kernel;
        assert!(
            h >= k && w >= k,
            "pool window {k} larger than input {h}x{w}"
        );
        let (oh, ow) = (h / k, w / k);
        let (hw, ohw) = (h * w, oh * ow);
        let src = v.as_slice();
        let mut out = vec![0.0; n * c * ohw];
        // Flat input offset of each output's window maximum.
        let mut argmax = vec![0usize; n * c * ohw];
        for i in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    // A window of -inf or NaN values never beats `best`;
                    // its gradient then goes to the window's first element,
                    // never outside the window.
                    let first = i * hw + oy * k * w + ox * k;
                    let mut best = f64::NEG_INFINITY;
                    let mut best_off = first;
                    for dy in 0..k {
                        for off in first + dy * w..first + dy * w + k {
                            if src[off] > best {
                                best = src[off];
                                best_off = off;
                            }
                        }
                    }
                    out[i * ohw + oy * ow + ox] = best;
                    argmax[i * ohw + oy * ow + ox] = best_off;
                }
            }
        }
        ctx.graph.custom(
            &[x],
            Tensor::from_vec(out, &[n, c, oh, ow]),
            Box::new(move |g| {
                let mut dx = vec![0.0; n * c * hw];
                for (&off, &gi) in argmax.iter().zip(g.as_slice()) {
                    dx[off] += gi;
                }
                vec![Some(Tensor::from_vec(dx, &[n, c, h, w]))]
            }),
        )
    }

    fn lower<'g>(
        &self,
        _ctx: &ForwardCtx<'g, '_>,
        out: &mut Vec<LoweredStep>,
    ) -> Result<(), LowerError> {
        out.push(LoweredStep::MaxPool2d {
            kernel: self.kernel,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_autodiff::{check_gradients, Graph};
    use adept_tensor::im2col;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn linear_forward_shape_and_grad() {
        let mut store = ParamStore::new();
        let mut lin = Linear::new(&mut store, "fc", 4, 3, 0);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let x = graph.constant(Tensor::ones(&[2, 4]));
        let y = lin.forward(&ctx, x);
        assert_eq!(y.shape(), vec![2, 3]);
        let grads = graph.backward(y.sum());
        let updates = ctx.into_param_grads(&grads);
        store.accumulate_many(&updates);
        assert!(store.grad(lin.param_ids()[0]).norm() > 0.0);
        assert_eq!(store.grad(lin.param_ids()[1]).as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn conv_matches_im2col_reference() {
        let geom = Conv2dGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut store = ParamStore::new();
        let mut conv = Conv2d::new(&mut store, "c", geom, 4, 1);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let xval = Tensor::linspace(-1.0, 1.0, 50).reshape(&[1, 2, 5, 5]);
        let x = graph.constant(xval.clone());
        let y = conv.forward(&ctx, x);
        assert_eq!(y.shape(), vec![1, 4, 5, 5]);
        // Reference: weight · im2col + bias.
        let wv = store.value(conv.param_ids()[0]).clone();
        let cols = im2col(&xval, &geom);
        let want = wv.matmul(&cols);
        for oc in 0..4 {
            for p in 0..25 {
                let got = y.value().at(&[0, oc, p / 5, p % 5]);
                assert!((got - want.at(&[oc, p])).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn conv_gradcheck() {
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        let x = Tensor::linspace(-1.0, 1.0, 16).reshape(&[1, 1, 4, 4]);
        let w = Tensor::linspace(0.5, -0.5, 9).reshape(&[1, 9]);
        check_gradients(
            |g, vars| {
                let cols = im2col_var_scratch(vars[0], geom, &mut Tensor::default());
                let y = Var::matmul(vars[1], cols);
                let _ = g;
                y.square().sum()
            },
            &[x, w],
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn batchnorm_normalizes_and_gradchecks() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm2d::new(&mut store, "bn", 2);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let xv = Tensor::rand_normal(&mut rng, &[4, 2, 3, 3], 3.0, 2.0);
        let x = graph.constant(xv);
        let y = bn.forward(&ctx, x).value();
        // Per-channel output stats ≈ (0, 1).
        for c in 0..2 {
            let mut vals = Vec::new();
            for n in 0..4 {
                for i in 0..3 {
                    for j in 0..3 {
                        vals.push(y.at(&[n, c, i, j]));
                    }
                }
            }
            let m: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let v: f64 = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / vals.len() as f64;
            assert!(m.abs() < 1e-9, "mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "var {v}");
        }
        // Gradient check of the primitive in both training and eval modes.
        let xv = Tensor::rand_normal(&mut rng, &[2, 2, 2, 2], 0.0, 1.0);
        let gamma = Tensor::from_vec(vec![1.2, 0.8], &[2]);
        let beta = Tensor::from_vec(vec![0.1, -0.2], &[2]);
        check_gradients(
            |_, vars| {
                let (y, _, _) = batch_norm2d_op(vars[0], vars[1], vars[2], true, None, 1e-5);
                y.square().sum()
            },
            &[xv.clone(), gamma.clone(), beta.clone()],
            1e-5,
            1e-4,
        )
        .unwrap();
        let rm = [0.3, -0.1];
        let rv = [1.5, 0.7];
        check_gradients(
            |_, vars| {
                let (y, _, _) =
                    batch_norm2d_op(vars[0], vars[1], vars[2], false, Some((&rm, &rv)), 1e-5);
                y.square().sum()
            },
            &[xv, gamma, beta],
            1e-5,
            1e-5,
        )
        .unwrap();
    }

    #[test]
    fn avg_and_max_pool() {
        let mut store = ParamStore::new();
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let x = graph.leaf(Tensor::linspace(1.0, 16.0, 16).reshape(&[1, 1, 4, 4]));
        let mut avg = AvgPool2d::new(2);
        let y = avg.forward(&ctx, x);
        assert_eq!(y.shape(), vec![1, 1, 2, 2]);
        assert!((y.value().at(&[0, 0, 0, 0]) - 3.5).abs() < 1e-12);
        let mut maxp = MaxPool2d::new(2);
        let ym = maxp.forward(&ctx, x);
        assert_eq!(ym.value().at(&[0, 0, 0, 0]), 6.0);
        assert_eq!(ym.value().at(&[0, 0, 1, 1]), 16.0);
        // Max-pool gradient lands on the argmax only.
        let grads = graph.backward(ym.sum());
        let gx = grads.grad(x).unwrap();
        assert_eq!(gx.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(gx.at(&[0, 0, 0, 0]), 0.0);
        let _ = store.ids();
        store.zero_grads();
    }

    #[test]
    fn max_pool_gradient_stays_in_its_window() {
        // No value of sample 1's window beats the -inf start (all -inf, or
        // all NaN), so its gradient goes to the window's first element, not
        // to sample 0's first pixel.
        for fill in [f64::NEG_INFINITY, f64::NAN] {
            let store = ParamStore::new();
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, 0);
            let data = vec![1.0, 2.0, 3.0, 4.0, fill, fill, fill, fill];
            let x = graph.leaf(Tensor::from_vec(data, &[2, 1, 2, 2]));
            let y = MaxPool2d::new(2).forward(&ctx, x);
            let grads = graph.backward(y.sum());
            assert_eq!(
                grads.grad(x).unwrap().as_slice(),
                &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                "window filled with {fill}"
            );
        }
    }

    #[test]
    fn pooling_gradchecks() {
        let x = Tensor::linspace(-2.0, 2.0, 16).reshape(&[1, 1, 4, 4]);
        check_gradients(
            |g, vars| {
                let st = ParamStore::new();
                let ctx = ForwardCtx::new(g, &st, true, 0);
                AvgPool2d::new(2).forward(&ctx, vars[0]).square().sum()
            },
            &[x.clone()],
            1e-6,
            1e-6,
        )
        .unwrap();
        check_gradients(
            |g, vars| {
                let st = ParamStore::new();
                let ctx = ForwardCtx::new(g, &st, true, 0);
                MaxPool2d::new(2).forward(&ctx, vars[0]).square().sum()
            },
            &[x],
            1e-6,
            1e-6,
        )
        .unwrap();
    }

    #[test]
    fn sequential_composes() {
        let mut store = ParamStore::new();
        let mut seq = Sequential::new();
        seq.push(Flatten);
        seq.push(Linear::new(&mut store, "fc", 8, 4, 1));
        seq.push(Relu);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.param_ids().len(), 2);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        let x = graph.constant(Tensor::ones(&[3, 2, 2, 2]));
        let y = seq.forward(&ctx, x);
        assert_eq!(y.shape(), vec![3, 4]);
        assert!(y.value().min() >= 0.0, "relu output must be non-negative");
    }
}
