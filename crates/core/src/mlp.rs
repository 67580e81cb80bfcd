//! Multi-layer perceptrons with handwritten derivative kernels.
//!
//! Implements the embedding (`E₂∘E₁∘E₀`) and fitting (`F₃∘F₂∘F₁∘F₀`)
//! networks of the paper with four sweeps, each over a *row range* of a
//! frame-wide flat buffer (all rows that go through one network are
//! contiguous, so a sweep is a handful of tall GEMMs and elementwise
//! passes, not a loop over atoms):
//!
//! * [`Mlp::forward_rows`] — primal evaluation into a [`Tape`],
//! * [`Mlp::backward_rows`] — reverse-mode: input gradients + parameter
//!   gradients (the paper's Opt1 handwritten derivative kernels),
//! * [`Mlp::jvp_rows`] — forward-tangent (JVP) propagation: given input
//!   tangents `ẋ` produce output tangents `ẏ` with parameters held
//!   fixed. Because the atomic *forces* are position-tangents of the
//!   energy, this sweep is how the model evaluates `cᵀF` directly,
//! * [`Mlp::dual_backward_rows`] — reverse-mode *over the JVP*:
//!   gradients of a scalar function of `(y, ẏ)` with respect to inputs,
//!   input tangents and parameters. This gives the exact `∇_θ (cᵀF)`
//!   the Kalman-filter force updates need without `create_graph`-style
//!   double backprop (§3.4). It takes several tangents at once and runs
//!   the tangent-independent half of the sweep only once.
//!
//! No sweep allocates once its tape and scratch have seen a frame of
//! the current size. No row's value depends on which other rows share
//! the call; parameter gradients are reduced one zero-seeded partial per
//! [`Segs`] segment, so their association is fixed by the segment table.
//!
//! Elementwise chains are fused into single loops (one kernel launch
//! each); matrix products use the substrate GEMM kernels. The
//! [`dp_tensor::kernel::fused`] wrappers around whole sweeps model the
//! paper's Opt2 (`torch.compile`) on top.

use dp_tensor::backend::Backend;
use dp_tensor::kernel;
use dp_tensor::Mat;
use rand::Rng;

/// Layer flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// `y = tanh(xW + b)`.
    Tanh,
    /// `y = x + tanh(xW + b)` (requires square `W`).
    TanhResidual,
    /// `y = xW + b`.
    Linear,
}

/// One dense layer.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Weight matrix, `in × out`.
    pub w: Mat,
    /// Bias row, `1 × out`.
    pub b: Mat,
    /// Flavour.
    pub kind: LayerKind,
}

impl Layer {
    /// Number of parameters (weights + biases).
    pub fn n_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// A feed-forward network.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// The layers, applied in order.
    pub layers: Vec<Layer>,
}

/// Forward tape of one network family over the rows of a frame.
///
/// All networks of a family (every embedding net, or every fitting net)
/// have the same layer shapes, so one tape holds the whole frame: each
/// network writes the row range it owns. Per layer the tape keeps the
/// layer output; for residual layers also the bare `tanh` (for plain
/// `tanh` layers the output *is* the `tanh`). Buffers are recycled:
/// [`Tape::prepare`] only reallocates when a frame is larger than any
/// the tape has seen.
#[derive(Debug, Default)]
pub struct Tape {
    /// `acts[l]` is the output of layer `l`, `rows × out_l`.
    acts: Vec<Vec<f64>>,
    /// `ts[l]` is `tanh(z_l)`, `rows × out_l`, for residual layers only.
    ts: Vec<Vec<f64>>,
}

impl Tape {
    /// Size the tape for `rows` rows of networks shaped like `mlp`.
    pub fn prepare(&mut self, mlp: &Mlp, rows: usize) {
        let n = mlp.layers.len();
        self.acts.resize_with(n, Vec::new);
        self.ts.resize_with(n, Vec::new);
        for (l, layer) in mlp.layers.iter().enumerate() {
            let len = rows * layer.w.cols();
            self.acts[l].resize(len, 0.0);
            let residual = layer.kind == LayerKind::TanhResidual;
            self.ts[l].resize(if residual { len } else { 0 }, 0.0);
        }
    }

    /// Size only the output buffer (`rows × width`) — for callers that
    /// produce the network output by other means (spline tables).
    pub fn prepare_output(&mut self, rows: usize, width: usize) {
        self.acts.resize_with(1, Vec::new);
        self.ts.clear();
        self.acts[0].resize(rows * width, 0.0);
    }

    /// The network output, `rows × n_out`.
    pub fn output(&self) -> &[f64] {
        self.acts.last().expect("tape was prepared")
    }

    /// Mutable view of the network output.
    pub fn output_mut(&mut self) -> &mut [f64] {
        self.acts.last_mut().expect("tape was prepared")
    }

    /// Rows `[r0, r1)` of the input of layer `l` (`x` is the network
    /// input, `rows × n_in`).
    fn input<'a>(&'a self, x: &'a [f64], l: usize, k: usize, r0: usize, r1: usize) -> &'a [f64] {
        let src = if l == 0 { x } else { &self.acts[l - 1] };
        &src[r0 * k..r1 * k]
    }

    /// Rows `[r0, r1)` of `tanh(z_l)`.
    fn tanh_of(&self, kind: LayerKind, l: usize, w: usize, r0: usize, r1: usize) -> &[f64] {
        let src = if kind == LayerKind::TanhResidual { &self.ts[l] } else { &self.acts[l] };
        &src[r0 * w..r1 * w]
    }
}

/// Forward-tangent tape for several tangents, tangent-major and indexed
/// by [`Rows`] (`t · stride + d0`). Grow-only, so tiles of varying size
/// share one.
#[derive(Debug, Default)]
pub struct DualTape {
    /// `ydots[l]`: output tangent of layer `l` (the input tangent of
    /// layer `l + 1`).
    ydots: Vec<Vec<f64>>,
    /// `zdots[l] = ẋ_l·W_l` for the tanh layers (for linear layers it
    /// is `ydots[l]`).
    zdots: Vec<Vec<f64>>,
}

impl DualTape {
    /// Make room for `n_tangents × rows` rows of networks shaped like
    /// `mlp`.
    pub fn prepare(&mut self, mlp: &Mlp, rows: usize, n_tangents: usize) {
        let n = mlp.layers.len();
        self.ydots.resize_with(n, Vec::new);
        self.zdots.resize_with(n, Vec::new);
        for (l, layer) in mlp.layers.iter().enumerate() {
            let len = n_tangents * rows * layer.w.cols();
            grow(&mut self.ydots[l], len);
            grow(&mut self.zdots[l], if layer.kind == LayerKind::Linear { 0 } else { len });
        }
    }

    /// The output tangents (at least `n_tangents × rows × n_out`).
    pub fn output(&self) -> &[f64] {
        self.ydots.last().expect("dual tape was prepared")
    }

    /// Tangent `t`'s rows of the input tangent of layer `l`.
    fn input<'a>(&'a self, xdot: &'a [f64], l: usize, k: usize, rows: Rows, t: usize) -> &'a [f64] {
        let src = if l == 0 { xdot } else { &self.ydots[l - 1] };
        &src[rows.buf(t, k)]
    }
}

/// Grow `v` to at least `len` elements (never shrink: buffers shared by
/// tiles and networks of different sizes must not reallocate).
fn grow(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Where the rows of a derivative sweep live. The forward tape and the
/// network input are frame-wide: the sweep covers their rows
/// `[r0, r1)`. Everything the sweep itself reads and writes —
/// gradients, tangents, the dual tape — may be a smaller per-tile
/// buffer: there the same rows start at `d0`, and the rows of tangent
/// `t` start at `t · stride + d0`.
#[derive(Clone, Copy, Debug)]
pub struct Rows {
    /// First row in the forward tape.
    pub r0: usize,
    /// End row in the forward tape.
    pub r1: usize,
    /// First row in the sweep's own buffers.
    pub d0: usize,
    /// Rows per tangent in the sweep's own buffers.
    pub stride: usize,
}

impl Rows {
    /// Sweep buffers indexed like the tape (`rows` rows in all).
    pub fn whole(r0: usize, r1: usize, rows: usize) -> Rows {
        Rows { r0, r1, d0: r0, stride: rows }
    }

    fn n(&self) -> usize {
        self.r1 - self.r0
    }

    /// Element range of tangent `t`'s rows in a sweep buffer `w` wide.
    fn buf(&self, t: usize, w: usize) -> std::ops::Range<usize> {
        let start = (t * self.stride + self.d0) * w;
        start..start + self.n() * w
    }
}

/// How the rows of a sweep group into parameter-gradient partial sums:
/// each segment's `xᵀ·g` is summed from zero and the partials are added
/// to the gradient in list order, so the association of a reduction is
/// fixed by the segments — not by how many rows one call covers.
#[derive(Clone, Copy, Debug)]
pub enum Segs<'a> {
    /// Every row is its own segment (the fitting nets: one row per atom).
    EachRow,
    /// `(first row, length)` per segment, ascending, absolute row
    /// indices inside the swept range.
    List(&'a [(usize, usize)]),
}

/// Recycled working memory of the reverse sweeps.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Ping-pong buffers of the running output gradient.
    a: Vec<f64>,
    b: Vec<f64>,
    /// `gz` of the current layer.
    gz: Vec<f64>,
    /// Per layer, `gẏ` entering the layer and `gẏ ⊙ h` — the half of
    /// the dual sweep that does not depend on the tangent.
    gyd: Vec<Vec<f64>>,
    gyh: Vec<Vec<f64>>,
    /// One segment's zero-seeded `xᵀ·g` (then its column sums).
    partial: Vec<f64>,
}

impl SweepScratch {
    fn prepare(&mut self, mlp: &Mlp, n: usize) {
        let width = mlp.layers.iter().map(|l| l.w.rows().max(l.w.cols())).max().unwrap_or(0);
        let wsize = mlp.layers.iter().map(|l| l.w.len()).max().unwrap_or(0);
        for v in [&mut self.a, &mut self.b, &mut self.gz] {
            grow(v, n * width);
        }
        grow(&mut self.partial, wsize.max(width));
    }

    /// [`SweepScratch::prepare`] plus the per-layer buffers of the dual
    /// sweep.
    fn prepare_dual(&mut self, mlp: &Mlp, n: usize) {
        self.prepare(mlp, n);
        for per_layer in [&mut self.gyd, &mut self.gyh] {
            // Embedding and fitting nets share one scratch and have
            // different depths.
            if per_layer.len() < mlp.layers.len() {
                per_layer.resize_with(mlp.layers.len(), Vec::new);
            }
            for (g, l) in per_layer.iter_mut().zip(&mlp.layers) {
                grow(g, n * l.w.cols());
            }
        }
    }
}

/// `gw += Σ_seg x_segᵀ·g_seg` and, when `second` is given, after each
/// segment's first term also `ẋ_segᵀ·g2_seg` (the dual sweep's two-term
/// weight gradient, in the order `x`-term then `ẋ`-term per segment).
#[allow(clippy::too_many_arguments)]
fn add_weight_grads(
    be: &dyn Backend,
    segs: Segs<'_>,
    r0: usize,
    (k, w): (usize, usize),
    (x, g): (&[f64], &[f64]),
    second: Option<(&[f64], &[f64])>,
    gw: &mut [f64],
    partial: &mut [f64],
) {
    kernel::launch("gemm_tn");
    kernel::launch("axpy");
    match segs {
        // One row: xᵀ·g is the outer product, whose zero-seeded sum
        // followed by `gw += 1·partial` rounds exactly like `gw += xᵢ·g`.
        Segs::EachRow => {
            for r in 0..g.len() / w {
                for (x, g) in [Some((x, g)), second].into_iter().flatten() {
                    let gr = &g[r * w..(r + 1) * w];
                    for (i, &xi) in x[r * k..(r + 1) * k].iter().enumerate() {
                        be.axpy(xi, gr, &mut gw[i * w..(i + 1) * w]);
                    }
                }
            }
        }
        Segs::List(list) => {
            let p = &mut partial[..k * w];
            for &(s, len) in list {
                let (a, b) = (s - r0, s - r0 + len);
                for (x, g) in [Some((x, g)), second].into_iter().flatten() {
                    p.fill(0.0);
                    be.gemm_tn_acc(&x[a * k..b * k], &g[a * w..b * w], len, k, w, p);
                    be.axpy(1.0, p, gw);
                }
            }
        }
    }
}

/// `gb += Σ_seg colsum(g_seg)`, one zero-seeded partial per segment.
fn add_bias_grads(
    be: &dyn Backend,
    segs: Segs<'_>,
    r0: usize,
    w: usize,
    g: &[f64],
    gb: &mut [f64],
    partial: &mut [f64],
) {
    kernel::launch("colsum");
    match segs {
        Segs::EachRow => {
            for gr in g.chunks_exact(w) {
                be.axpy(1.0, gr, gb);
            }
        }
        Segs::List(list) => {
            let p = &mut partial[..w];
            for &(s, len) in list {
                p.fill(0.0);
                for gr in g[(s - r0) * w..(s - r0 + len) * w].chunks_exact(w) {
                    for (o, v) in p.iter_mut().zip(gr) {
                        *o += v;
                    }
                }
                be.axpy(1.0, p, gb);
            }
        }
    }
}

/// `(gW, gb)` slices of layer `l` inside one network's flat gradient
/// (layer order, `W` row-major then `b` — the parameter-vector order).
fn layer_grads<'a>(mlp: &Mlp, grads: &'a mut [f64], l: usize) -> (&'a mut [f64], &'a mut [f64]) {
    let off: usize = mlp.layers[..l].iter().map(Layer::n_params).sum();
    let layer = &mlp.layers[l];
    grads[off..off + layer.n_params()].split_at_mut(layer.w.len())
}

impl Mlp {
    /// Build an MLP from `(in, out, kind)` layer specs with scaled
    /// normal initialization (`σ = 1/√fan_in`), biases zero.
    pub fn init(specs: &[(usize, usize, LayerKind)], rng: &mut impl Rng) -> Self {
        let layers = specs
            .iter()
            .map(|&(n_in, n_out, kind)| {
                if kind == LayerKind::TanhResidual {
                    assert_eq!(n_in, n_out, "residual layers must be square");
                }
                let scale = 1.0 / (n_in as f64).sqrt();
                let w = Mat::from_fn(n_in, n_out, |_, _| normal(rng) * scale);
                Layer { w, b: Mat::zeros(1, n_out), kind }
            })
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.layers[0].w.rows()
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.layers.last().unwrap().w.cols()
    }

    /// Total parameter count.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Layer::n_params).sum()
    }

    /// Primal forward pass over rows `[r0, r1)` of `x` (`rows × n_in`)
    /// into the same rows of `tape`. One GEMM per layer over the whole
    /// range; no row's result depends on the others.
    pub fn forward_rows(&self, be: &dyn Backend, x: &[f64], tape: &mut Tape, r0: usize, r1: usize) {
        kernel::fused("mlp_forward", || {
            for (l, layer) in self.layers.iter().enumerate() {
                let (k, w) = (layer.w.rows(), layer.w.cols());
                let (prev, rest) = tape.acts.split_at_mut(l);
                let xin = if l == 0 { &x[r0 * k..r1 * k] } else { &prev[l - 1][r0 * k..r1 * k] };
                let out = &mut rest[0][r0 * w..r1 * w];
                let z = match layer.kind {
                    LayerKind::TanhResidual => &mut tape.ts[l][r0 * w..r1 * w],
                    _ => &mut *out,
                };
                kernel::launch("gemm");
                be.gemm(xin, layer.w.as_slice(), k, w, z);
                kernel::launch("add_bcast");
                for row in z.chunks_exact_mut(w) {
                    for (o, &b) in row.iter_mut().zip(layer.b.as_slice()) {
                        *o += b;
                    }
                }
                if layer.kind != LayerKind::Linear {
                    kernel::launch("tanh");
                    be.tanh(z);
                }
                if layer.kind == LayerKind::TanhResidual {
                    kernel::launch("add");
                    let t = &tape.ts[l][r0 * w..r1 * w];
                    for ((o, &xv), &tv) in out.iter_mut().zip(xin).zip(t) {
                        *o = xv + tv;
                    }
                }
            }
        })
    }

    /// Reverse sweep over `rows`: `gy` (`n_out` wide) is the output
    /// gradient; the input gradient goes to the same rows of `gx`
    /// (`n_in` wide) when given, and parameter gradients are added to
    /// `grads` (this network's flat gradient) when given, one partial
    /// per segment of `segs`.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_rows(
        &self,
        be: &dyn Backend,
        x: &[f64],
        tape: &Tape,
        rows: Rows,
        gy: &[f64],
        segs: Segs<'_>,
        mut grads: Option<&mut [f64]>,
        sc: &mut SweepScratch,
        gx: Option<&mut [f64]>,
    ) {
        kernel::fused("mlp_backward", || {
            let (r0, r1, n) = (rows.r0, rows.r1, rows.n());
            sc.prepare(self, n);
            let SweepScratch { a: cur, b: nxt, gz: gz_buf, partial, .. } = sc;
            let w_out = self.n_out();
            cur[..n * w_out].copy_from_slice(&gy[rows.buf(0, w_out)]);
            for (l, layer) in self.layers.iter().enumerate().rev() {
                let (k, w) = (layer.w.rows(), layer.w.cols());
                let xin = tape.input(x, l, k, r0, r1);
                // gz = gy ⊙ (1 − t²), in place unless the residual hop
                // needs gy again.
                let gz: &[f64] = match layer.kind {
                    LayerKind::Linear => &cur[..n * w],
                    LayerKind::Tanh => {
                        kernel::launch("tanh_bwd_fused");
                        let t = tape.tanh_of(layer.kind, l, w, r0, r1);
                        for (g, &tv) in cur[..n * w].iter_mut().zip(t) {
                            *g *= 1.0 - tv * tv;
                        }
                        &cur[..n * w]
                    }
                    LayerKind::TanhResidual => {
                        kernel::launch("tanh_bwd_fused");
                        let t = tape.tanh_of(layer.kind, l, w, r0, r1);
                        for ((z, &g), &tv) in gz_buf[..n * w].iter_mut().zip(&cur[..n * w]).zip(t) {
                            *z = g * (1.0 - tv * tv);
                        }
                        &gz_buf[..n * w]
                    }
                };
                if let Some(gr) = grads.as_deref_mut() {
                    let (gw, gb) = layer_grads(self, gr, l);
                    add_weight_grads(be, segs, r0, (k, w), (xin, gz), None, gw, partial);
                    add_bias_grads(be, segs, r0, w, gz, gb, partial);
                }
                if l == 0 && gx.is_none() {
                    return;
                }
                kernel::launch("gemm_nt");
                be.gemm_nt(gz, layer.w.as_slice(), w, k, &mut nxt[..n * k]);
                if layer.kind == LayerKind::TanhResidual {
                    kernel::launch("add");
                    for (o, &g) in nxt[..n * k].iter_mut().zip(&cur[..n * k]) {
                        *o += g;
                    }
                }
                std::mem::swap(cur, nxt);
            }
            if let Some(gx) = gx {
                let k = self.n_in();
                gx[rows.buf(0, k)].copy_from_slice(&cur[..n * k]);
            }
        })
    }

    /// Forward-tangent sweep over `rows` for `n_tangents` input
    /// tangents `xdot` (tangent-major, `n_in` wide), parameters held
    /// fixed.
    pub fn jvp_rows(
        &self,
        be: &dyn Backend,
        tape: &Tape,
        rows: Rows,
        n_tangents: usize,
        xdot: &[f64],
        dual: &mut DualTape,
    ) {
        kernel::fused("mlp_jvp", || {
            let (r0, r1) = (rows.r0, rows.r1);
            for (l, layer) in self.layers.iter().enumerate() {
                let (k, w) = (layer.w.rows(), layer.w.cols());
                for t in 0..n_tangents {
                    let (prev, rest) = dual.ydots.split_at_mut(l);
                    let xd = if l == 0 { &xdot[rows.buf(t, k)] } else { &prev[l - 1][rows.buf(t, k)] };
                    let yd = &mut rest[0][rows.buf(t, w)];
                    kernel::launch("gemm");
                    if layer.kind == LayerKind::Linear {
                        be.gemm(xd, layer.w.as_slice(), k, w, yd);
                        continue;
                    }
                    let zd = &mut dual.zdots[l][rows.buf(t, w)];
                    be.gemm(xd, layer.w.as_slice(), k, w, zd);
                    // ẏ = (1 − t²) ⊙ ż (+ ẋ for residual) — fused.
                    kernel::launch("tanh_jvp_fused");
                    let tv = tape.tanh_of(layer.kind, l, w, r0, r1);
                    for ((y, &z), &tv) in yd.iter_mut().zip(zd.iter()).zip(tv) {
                        *y = z * (1.0 - tv * tv);
                    }
                    if layer.kind == LayerKind::TanhResidual {
                        be.axpy(1.0, xd, yd);
                    }
                }
            }
        })
    }

    /// Reverse sweep over the JVP for `n_tangents` tangents at once.
    ///
    /// Given the gradients of one scalar per tangent with respect to
    /// the outputs — `gy` (tangent-major) and `gydot` (one tangent's
    /// worth, **shared**: in the force sweep `∂φ/∂ẏ` does not depend on
    /// the tangent) — write `gx`
    /// (tangent-major) and `gxdot` (shared) when given and add tangent
    /// `t`'s parameter gradient into `grads.0[t]` at offset `grads.1`
    /// (where this network's parameters start in the caller's flat
    /// gradient). The tangent count is `grads.0.len()`.
    ///
    /// Layer rules (h = 1 − t², ż = ẋW):
    /// `gt = gy − 2·gẏ⊙ż⊙t`, `gz = gt⊙h`,
    /// `gx = gz·Wᵀ (+ gy)`, `gẋ = (gẏ⊙h)·Wᵀ (+ gẏ)`,
    /// `gW += xᵀgz + ẋᵀ(gẏ⊙h)`, `gb += Σ_rows gz`.
    ///
    /// The `gẏ` chain is tangent-independent and runs once; only the
    /// `gy` chain and the reductions run per tangent.
    #[allow(clippy::too_many_arguments)]
    pub fn dual_backward_rows<G: AsMut<[f64]>>(
        &self,
        be: &dyn Backend,
        (x, xdot): (&[f64], &[f64]),
        (tape, dual): (&Tape, &DualTape),
        rows: Rows,
        (gy, gydot): (&[f64], &[f64]),
        segs: Segs<'_>,
        (grads, off): (&mut [G], usize),
        sc: &mut SweepScratch,
        mut gx: Option<&mut [f64]>,
        gxdot: Option<&mut [f64]>,
    ) {
        kernel::fused("mlp_dual_backward", || {
            let (r0, r1, n) = (rows.r0, rows.r1, rows.n());
            let n_layers = self.layers.len();
            sc.prepare_dual(self, n);
            let SweepScratch { a: cur, b: nxt, gz: gz_buf, gyd, gyh, partial } = sc;
            let (w_out, k_in) = (self.n_out(), self.n_in());
            // The shared chain, top-down: gẏ entering each layer and
            // gẏ⊙h, then gẋ at the bottom.
            gyd[n_layers - 1][..n * w_out].copy_from_slice(&gydot[rows.buf(0, w_out)]);
            for (l, layer) in self.layers.iter().enumerate().rev() {
                let (k, w) = (layer.w.rows(), layer.w.cols());
                if layer.kind == LayerKind::Linear {
                    gyh[l][..n * w].copy_from_slice(&gyd[l][..n * w]);
                } else {
                    kernel::launch("tanh_dual_bwd_fused");
                    let t = tape.tanh_of(layer.kind, l, w, r0, r1);
                    for ((o, &g), &tv) in gyh[l][..n * w].iter_mut().zip(&gyd[l][..n * w]).zip(t) {
                        *o = g * (1.0 - tv * tv);
                    }
                }
                let (below, here) = gyd[..n_layers].split_at_mut(l);
                let out = match below.last_mut() {
                    Some(next) => &mut next[..n * k],
                    None if gxdot.is_some() => &mut nxt[..n * k],
                    None => break,
                };
                kernel::launch("gemm_nt");
                be.gemm_nt(&gyh[l][..n * w], layer.w.as_slice(), w, k, out);
                if layer.kind == LayerKind::TanhResidual {
                    for (o, &g) in out.iter_mut().zip(&here[0][..n * k]) {
                        *o += g;
                    }
                }
            }
            if let Some(gxdot) = gxdot {
                gxdot[rows.buf(0, k_in)].copy_from_slice(&nxt[..n * k_in]);
            }
            // The per-tangent chain.
            for (t, grads) in grads.iter_mut().enumerate() {
                let grads = &mut grads.as_mut()[off..off + self.n_params()];
                cur[..n * w_out].copy_from_slice(&gy[rows.buf(t, w_out)]);
                for (l, layer) in self.layers.iter().enumerate().rev() {
                    let (k, w) = (layer.w.rows(), layer.w.cols());
                    let xin = tape.input(x, l, k, r0, r1);
                    let xdin = dual.input(xdot, l, k, rows, t);
                    let gz: &[f64] = if layer.kind == LayerKind::Linear {
                        &cur[..n * w]
                    } else {
                        // Fused elementwise: gz from gy, gẏ, ż and t.
                        kernel::launch("tanh_dual_bwd_fused");
                        let tv = tape.tanh_of(layer.kind, l, w, r0, r1);
                        let zd = &dual.zdots[l][rows.buf(t, w)];
                        let gyd = &gyd[l][..n * w];
                        for i in 0..n * w {
                            let h = 1.0 - tv[i] * tv[i];
                            let gt = cur[i] - 2.0 * gyd[i] * zd[i] * tv[i];
                            gz_buf[i] = gt * h;
                        }
                        &gz_buf[..n * w]
                    };
                    let (gw, gb) = layer_grads(self, grads, l);
                    let second = Some((xdin, &gyh[l][..n * w]));
                    add_weight_grads(be, segs, r0, (k, w), (xin, gz), second, gw, partial);
                    add_bias_grads(be, segs, r0, w, gz, gb, partial);
                    if l == 0 && gx.is_none() {
                        break;
                    }
                    kernel::launch("gemm_nt");
                    be.gemm_nt(gz, layer.w.as_slice(), w, k, &mut nxt[..n * k]);
                    if layer.kind == LayerKind::TanhResidual {
                        for (o, &g) in nxt[..n * k].iter_mut().zip(&cur[..n * k]) {
                            *o += g;
                        }
                    }
                    std::mem::swap(cur, nxt);
                }
                if let Some(gx) = gx.as_deref_mut() {
                    gx[rows.buf(t, k_in)].copy_from_slice(&cur[..n * k_in]);
                }
            }
        })
    }
}

/// Standard normal deviate (Box–Muller).
fn normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_tensor::backend;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_mlp(seed: u64) -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Mlp::init(
            &[(3, 5, LayerKind::Tanh), (5, 5, LayerKind::TanhResidual), (5, 1, LayerKind::Linear)],
            &mut rng,
        )
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Whole-buffer wrappers around the row sweeps, one segment.
    struct Run {
        rows: usize,
        tape: Tape,
        dual: DualTape,
        sc: SweepScratch,
    }

    impl Run {
        fn forward(mlp: &Mlp, x: &[f64]) -> (Vec<f64>, Run) {
            let rows = x.len() / mlp.n_in();
            let mut tape = Tape::default();
            tape.prepare(mlp, rows);
            mlp.forward_rows(backend::active(), x, &mut tape, 0, rows);
            let y = tape.output().to_vec();
            (y, Run { rows, tape, dual: DualTape::default(), sc: SweepScratch::default() })
        }

        fn backward(&mut self, mlp: &Mlp, x: &[f64], gy: &[f64], grads: Option<&mut [f64]>) -> Vec<f64> {
            let mut gx = vec![0.0; x.len()];
            let segs = [(0, self.rows)];
            mlp.backward_rows(
                backend::active(),
                x,
                &self.tape,
                Rows::whole(0, self.rows, self.rows),
                gy,
                Segs::List(&segs),
                grads,
                &mut self.sc,
                Some(&mut gx),
            );
            gx
        }

        fn jvp(&mut self, mlp: &Mlp, xdot: &[f64]) -> Vec<f64> {
            self.dual.prepare(mlp, self.rows, 1);
            mlp.jvp_rows(
                backend::active(),
                &self.tape,
                Rows::whole(0, self.rows, self.rows),
                1,
                xdot,
                &mut self.dual,
            );
            self.dual.output().to_vec()
        }

        fn dual_backward(
            &mut self,
            mlp: &Mlp,
            (x, xdot): (&[f64], &[f64]),
            (gy, gydot): (&[f64], &[f64]),
            grads: &mut [f64],
        ) -> (Vec<f64>, Vec<f64>) {
            let (mut gx, mut gxdot) = (vec![0.0; x.len()], vec![0.0; x.len()]);
            let segs = [(0, self.rows)];
            mlp.dual_backward_rows(
                backend::active(),
                (x, xdot),
                (&self.tape, &self.dual),
                Rows::whole(0, self.rows, self.rows),
                (gy, gydot),
                Segs::List(&segs),
                (&mut [grads], 0),
                &mut self.sc,
                Some(&mut gx),
                Some(&mut gxdot),
            );
            (gx, gxdot)
        }
    }

    /// Scalar objective over the network outputs: Σ y².
    fn objective(y: &[f64]) -> f64 {
        y.iter().map(|v| v * v).sum()
    }

    fn objective_grad(y: &[f64]) -> Vec<f64> {
        y.iter().map(|v| 2.0 * v).collect()
    }

    /// Parameter `e` of the flat (layer-order, W then b) vector.
    fn param_mut(mlp: &mut Mlp, mut e: usize) -> &mut f64 {
        for layer in &mut mlp.layers {
            for m in [&mut layer.w, &mut layer.b] {
                if e < m.len() {
                    return &mut m.as_mut_slice()[e];
                }
                e -= m.len();
            }
        }
        panic!("parameter index out of range");
    }

    #[test]
    fn backward_input_gradient_matches_fd() {
        let mlp = test_mlp(1);
        let x = rand_vec(4 * 3, 2);
        let (y, mut run) = Run::forward(&mlp, &x);
        let gx = run.backward(&mlp, &x, &objective_grad(&y), None);
        let h = 1e-6;
        for e in 0..x.len() {
            let mut xp = x.clone();
            xp[e] += h;
            let mut xm = x.clone();
            xm[e] -= h;
            let fd =
                (objective(&Run::forward(&mlp, &xp).0) - objective(&Run::forward(&mlp, &xm).0)) / (2.0 * h);
            assert!((fd - gx[e]).abs() < 1e-5 * (1.0 + fd.abs()), "entry {e}: fd {fd} vs {}", gx[e]);
        }
    }

    #[test]
    fn backward_param_gradient_matches_fd() {
        let mlp = test_mlp(3);
        let x = rand_vec(4 * 3, 4);
        let (y, mut run) = Run::forward(&mlp, &x);
        let mut grads = vec![0.0; mlp.n_params()];
        run.backward(&mlp, &x, &objective_grad(&y), Some(&mut grads));
        let h = 1e-6;
        for (e, &an) in grads.iter().enumerate() {
            let eval = |delta: f64| {
                let mut m = mlp.clone();
                *param_mut(&mut m, e) += delta;
                objective(&Run::forward(&m, &x).0)
            };
            let fd = (eval(h) - eval(-h)) / (2.0 * h);
            assert!((fd - an).abs() < 1e-5 * (1.0 + fd.abs()), "param {e}: fd {fd} vs {an}");
        }
    }

    #[test]
    fn jvp_matches_directional_finite_difference() {
        let mlp = test_mlp(5);
        let x = rand_vec(4 * 3, 6);
        let xdot = rand_vec(4 * 3, 7);
        let (_, mut run) = Run::forward(&mlp, &x);
        let ydot = run.jvp(&mlp, &xdot);
        let h = 1e-6;
        let shifted = |s: f64| -> Vec<f64> { x.iter().zip(&xdot).map(|(a, b)| a + s * b).collect() };
        let yp = Run::forward(&mlp, &shifted(h)).0;
        let ym = Run::forward(&mlp, &shifted(-h)).0;
        for e in 0..ydot.len() {
            let fd = (yp[e] - ym[e]) / (2.0 * h);
            assert!((fd - ydot[e]).abs() < 1e-5 * (1.0 + fd.abs()), "output {e}: fd {fd} vs {}", ydot[e]);
        }
    }

    /// Scalar over `(y, ẏ)` for dual-backward tests: Σ ẏ² + Σ y·ẏ.
    fn dual_objective(mlp: &Mlp, x: &[f64], xdot: &[f64]) -> f64 {
        let (y, mut run) = Run::forward(mlp, x);
        let ydot = run.jvp(mlp, xdot);
        y.iter().zip(&ydot).map(|(a, b)| b * b + a * b).sum()
    }

    /// `(gy, gẏ) = (ẏ, 2ẏ + y)` of [`dual_objective`], and the sweep.
    fn dual_sweep(mlp: &Mlp, x: &[f64], xdot: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (y, mut run) = Run::forward(mlp, x);
        let ydot = run.jvp(mlp, xdot);
        let gydot: Vec<f64> = ydot.iter().zip(&y).map(|(d, v)| 2.0 * d + v).collect();
        let mut grads = vec![0.0; mlp.n_params()];
        let (gx, gxdot) = run.dual_backward(mlp, (x, xdot), (&ydot, &gydot), &mut grads);
        (grads, gx, gxdot)
    }

    #[test]
    fn dual_backward_param_gradient_matches_fd() {
        let mlp = test_mlp(8);
        let x = rand_vec(3 * 3, 9);
        let xdot = rand_vec(3 * 3, 10);
        let (grads, _, _) = dual_sweep(&mlp, &x, &xdot);
        let h = 1e-6;
        for (e, &an) in grads.iter().enumerate() {
            let eval = |delta: f64| {
                let mut m = mlp.clone();
                *param_mut(&mut m, e) += delta;
                dual_objective(&m, &x, &xdot)
            };
            let fd = (eval(h) - eval(-h)) / (2.0 * h);
            assert!((fd - an).abs() < 2e-5 * (1.0 + fd.abs()), "param {e}: fd {fd} vs {an}");
        }
    }

    #[test]
    fn dual_backward_input_gradients_match_fd() {
        let mlp = test_mlp(11);
        let x = rand_vec(3 * 3, 12);
        let xdot = rand_vec(3 * 3, 13);
        let (_, gx, gxdot) = dual_sweep(&mlp, &x, &xdot);
        let h = 1e-6;
        let bump = |v: &[f64], e: usize, d: f64| {
            let mut v = v.to_vec();
            v[e] += d;
            v
        };
        for e in 0..x.len() {
            let fd = (dual_objective(&mlp, &bump(&x, e, h), &xdot)
                - dual_objective(&mlp, &bump(&x, e, -h), &xdot))
                / (2.0 * h);
            assert!((fd - gx[e]).abs() < 2e-5 * (1.0 + fd.abs()), "gx[{e}]: fd {fd} vs {}", gx[e]);
            let fd = (dual_objective(&mlp, &x, &bump(&xdot, e, h))
                - dual_objective(&mlp, &x, &bump(&xdot, e, -h)))
                / (2.0 * h);
            assert!((fd - gxdot[e]).abs() < 2e-5 * (1.0 + fd.abs()), "gxdot[{e}]: fd {fd} vs {}", gxdot[e]);
        }
    }

    /// Rows swept in two calls, and reductions over several segments or
    /// one row at a time, give the bits of one call over everything
    /// when the association is the same.
    #[test]
    fn row_ranges_and_segments_do_not_change_the_bits() {
        let mlp = test_mlp(14);
        let rows = 11;
        let x = rand_vec(rows * 3, 15);
        let (y, mut whole) = Run::forward(&mlp, &x);
        // Forward in two ranges.
        let mut tape = Tape::default();
        tape.prepare(&mlp, rows);
        mlp.forward_rows(backend::active(), &x, &mut tape, 0, 4);
        mlp.forward_rows(backend::active(), &x, &mut tape, 4, rows);
        assert_eq!(tape.output(), &y[..]);
        // One-row segments through the list form and through EachRow.
        let gy = objective_grad(&y);
        let segs: Vec<(usize, usize)> = (0..rows).map(|r| (r, 1)).collect();
        let mut sweep = |segs: Segs<'_>| {
            let mut grads = vec![0.0; mlp.n_params()];
            let mut gx = vec![0.0; x.len()];
            mlp.backward_rows(
                backend::active(),
                &x,
                &whole.tape,
                Rows::whole(0, rows, rows),
                &gy,
                segs,
                Some(&mut grads),
                &mut whole.sc,
                Some(&mut gx),
            );
            (grads, gx)
        };
        let (g_list, gx_list) = sweep(Segs::List(&segs));
        let (g_rows, gx_rows) = sweep(Segs::EachRow);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g_list), bits(&g_rows));
        assert_eq!(bits(&gx_list), bits(&gx_rows));
    }

    #[test]
    fn param_count_matches_paper_formula() {
        // The paper's single-species net: embedding [1→25, 25→25, 25→25]
        // and fitting [400→50, 50→50, 50→50, 50→1]:
        // 1350 + 25251 = 26601 weights+biases.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let emb = Mlp::init(
            &[(1, 25, LayerKind::Tanh), (25, 25, LayerKind::TanhResidual), (25, 25, LayerKind::TanhResidual)],
            &mut rng,
        );
        let fit = Mlp::init(
            &[
                (400, 50, LayerKind::Tanh),
                (50, 50, LayerKind::TanhResidual),
                (50, 50, LayerKind::TanhResidual),
                (50, 1, LayerKind::Linear),
            ],
            &mut rng,
        );
        assert_eq!(emb.n_params(), 50 + 650 + 650);
        assert_eq!(fit.n_params(), 20050 + 2550 + 2550 + 51);
        // Total 26551 ≈ the paper's 26651 (the 100-parameter difference
        // is their type-embedding bookkeeping).
        assert_eq!(emb.n_params() + fit.n_params(), 26551);
    }

    #[test]
    #[should_panic(expected = "residual layers must be square")]
    fn non_square_residual_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = Mlp::init(&[(3, 5, LayerKind::TanhResidual)], &mut rng);
    }
}
