//! The frame-batched evaluation core.
//!
//! Every model evaluation — training, online retraining, serving, MD,
//! the compressed and quantized tiers — runs through the stages here.
//! A frame is laid out once ([`Layout`]) and then each embedding net and
//! each fitting net runs **once per frame** on a tall matrix, instead of
//! once per atom on an `nᵢ × M` one:
//!
//! ```text
//! neighbour rows, block-major:   (t₀,t₀) (t₀,t₁) … (t₁,t₀) …   block b = tᵢ·n_types + tⱼ
//!   inside a block:              centre atoms of type tᵢ, ascending
//!   inside a centre's segment:   its neighbours of type tⱼ, in env order
//! centre slots, type-major:      atoms of type t₀ ascending, then t₁ …
//! ```
//!
//! The segment table maps (centre slot, neighbour type) to a row range.
//! The per-centre stages (descriptor, its reverse, force assembly) walk
//! it over views into the flat buffers; the parameter-gradient
//! reductions use it to keep one zero-seeded partial per (atom,
//! neighbour-type) segment, added in ascending atom order — the
//! association the per-atom implementation had, so a scalar-backend run
//! is bitwise what it was.
//!
//! The forward state is frame-wide. The derivative sweeps walk the
//! centres in *tiles* — runs of consecutive slots of one type, about
//! [`TILE_ROWS`] neighbour rows each — and take every stage of a tile
//! (fitting reverse, descriptor reverse, embedding reverse) before the
//! next, so their scratch is tile-sized and stays in cache; no value
//! depends on where the tile boundaries fall.
//!
//! All buffers belong to a [`Workspace`] and are recycled: once a
//! workspace has seen a frame of the current size, forward → forces →
//! `∇θE` → `∇θΣcF` allocate nothing.

use crate::compress::SplineTable;
use crate::config::ModelConfig;
use crate::env::Envs;
use crate::mlp::{DualTape, Mlp, Rows, Segs, SweepScratch, Tape};
use dp_mdsim::Vec3;
use dp_tensor::backend;
use dp_tensor::kernel;
use std::sync::Mutex;

/// `atom_slot` value of an atom that is not evaluated as a centre.
const NO_SLOT: usize = usize::MAX;

/// Neighbour rows per tile of the derivative sweeps (a tile holds at
/// least one centre). At the dual sweep's ~340 scratch values per row
/// and 4 tangents this keeps a tile's working set near 1.5 MB.
const TILE_ROWS: usize = 512;

/// The rows of one tile in one neighbour-type block: frame rows
/// `[ra, rb)` (contiguous, because the tile's slots are), held from row
/// `l0` in the tile-local buffers.
#[derive(Clone, Copy, Debug)]
struct TileBlock {
    ra: usize,
    rb: usize,
    l0: usize,
}

impl TileBlock {
    /// Tile-local index of frame row `row`.
    fn local(&self, row: usize) -> usize {
        self.l0 + row - self.ra
    }

    /// The block as a sweep range over tile buffers of `stride` rows.
    fn rows(&self, stride: usize) -> Rows {
        Rows { r0: self.ra, r1: self.rb, d0: self.l0, stride }
    }
}

/// Row order and segment table of one frame.
#[derive(Debug, Default)]
struct Layout {
    nt: usize,
    /// Centre atoms sorted by (type, index).
    slot_atom: Vec<usize>,
    /// Inverse of `slot_atom` ([`NO_SLOT`] for non-centres).
    atom_slot: Vec<usize>,
    /// Type `t` owns slots `type_slots[t]..type_slots[t + 1]`.
    type_slots: Vec<usize>,
    /// First row and length of segment (slot, neighbour type), indexed
    /// `slot · nt + tj`.
    seg_row: Vec<usize>,
    seg_len: Vec<usize>,
    /// Block `b` owns rows `block_rows[b]..block_rows[b + 1]`.
    block_rows: Vec<usize>,
    /// The non-empty segments as `(row, len)`, block-major; block `b`
    /// owns `segs[block_segs[b]..block_segs[b + 1]]`, and `seg_idx`
    /// (indexed like `seg_row`) is where a slot's segment sits — or
    /// would sit, if empty — in that list.
    segs: Vec<(usize, usize)>,
    block_segs: Vec<usize>,
    seg_idx: Vec<usize>,
    /// The sweep tiles as `(type, first slot, end slot)`, ascending.
    tiles: Vec<(usize, usize, usize)>,
}

impl Layout {
    fn build(&mut self, nt: usize, types: &[usize], envs: &Envs, centres: Option<&[bool]>) {
        assert_eq!(types.len(), envs.n_atoms(), "one environment per atom");
        assert_eq!(envs.n_types(), nt, "environments grouped by the model's types");
        assert!(types.iter().all(|&t| t < nt), "atom type out of range");
        self.nt = nt;
        self.slot_atom.clear();
        self.atom_slot.clear();
        self.atom_slot.resize(types.len(), NO_SLOT);
        self.type_slots.clear();
        for ti in 0..nt {
            self.type_slots.push(self.slot_atom.len());
            for (i, &t) in types.iter().enumerate() {
                if t == ti && centres.is_none_or(|c| c[i]) {
                    self.atom_slot[i] = self.slot_atom.len();
                    self.slot_atom.push(i);
                }
            }
        }
        self.type_slots.push(self.slot_atom.len());
        let n_slots = self.slot_atom.len();
        self.seg_row.clear();
        self.seg_row.resize(n_slots * nt, 0);
        self.seg_len.clear();
        self.seg_len.resize(n_slots * nt, 0);
        self.seg_idx.clear();
        self.seg_idx.resize(n_slots * nt, 0);
        self.block_rows.clear();
        self.segs.clear();
        self.block_segs.clear();
        let mut row = 0;
        for ti in 0..nt {
            for tj in 0..nt {
                self.block_rows.push(row);
                self.block_segs.push(self.segs.len());
                for c in self.type_slots[ti]..self.type_slots[ti + 1] {
                    let len = envs.range(self.slot_atom[c], tj).len();
                    self.seg_row[c * nt + tj] = row;
                    self.seg_len[c * nt + tj] = len;
                    self.seg_idx[c * nt + tj] = self.segs.len();
                    if len > 0 {
                        self.segs.push((row, len));
                    }
                    row += len;
                }
            }
        }
        self.block_rows.push(row);
        self.block_segs.push(self.segs.len());
        self.tiles.clear();
        for ti in 0..nt {
            let (mut c0, mut rows) = (self.type_slots[ti], 0);
            for c in self.type_slots[ti]..self.type_slots[ti + 1] {
                let slot_rows: usize = self.seg_len[c * nt..(c + 1) * nt].iter().sum();
                if c > c0 && rows + slot_rows > TILE_ROWS {
                    self.tiles.push((ti, c0, c));
                    (c0, rows) = (c, 0);
                }
                rows += slot_rows;
            }
            if c0 < self.type_slots[ti + 1] {
                self.tiles.push((ti, c0, self.type_slots[ti + 1]));
            }
        }
    }

    /// Lay tile slots `[c0, c1)` out in tile-local row buffers: one
    /// [`TileBlock`] per neighbour type, block after block. Returns the
    /// tile's row count.
    fn tile_blocks(&self, c0: usize, c1: usize, out: &mut Vec<TileBlock>) -> usize {
        out.clear();
        let mut l0 = 0;
        for tj in 0..self.nt {
            let last = (c1 - 1) * self.nt + tj;
            let (ra, rb) = (self.seg_row[c0 * self.nt + tj], self.seg_row[last] + self.seg_len[last]);
            out.push(TileBlock { ra, rb, l0 });
            l0 += rb - ra;
        }
        l0
    }

    /// The segments of tile slots `[c0, c1)` in block `tj` of their type.
    fn tile_segments(&self, c0: usize, c1: usize, tj: usize) -> Segs<'_> {
        let last = (c1 - 1) * self.nt + tj;
        let end = self.seg_idx[last] + usize::from(self.seg_len[last] > 0);
        Segs::List(&self.segs[self.seg_idx[c0 * self.nt + tj]..end])
    }

    fn n_rows(&self) -> usize {
        *self.block_rows.last().unwrap_or(&0)
    }

    fn n_slots(&self) -> usize {
        self.slot_atom.len()
    }

    /// Non-empty blocks as `(block index, first row, end row)`.
    fn blocks(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.block_rows.windows(2).enumerate().filter(|(_, w)| w[1] > w[0]).map(|(b, w)| (b, w[0], w[1]))
    }

    /// Non-empty type groups as `(type, first slot, end slot)`.
    fn type_groups(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.type_slots.windows(2).enumerate().filter(|(_, w)| w[1] > w[0]).map(|(t, w)| (t, w[0], w[1]))
    }

    /// The non-empty segments of slot `c` as `(row, len)`, ascending
    /// neighbour type — the order of the atom's environment entries.
    fn slot_segments(&self, c: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (c * self.nt..(c + 1) * self.nt)
            .map(|s| (self.seg_row[s], self.seg_len[s]))
            .filter(|&(_, len)| len > 0)
    }
}

/// Everything a forward pass leaves behind for the derivative sweeps.
#[derive(Debug, Default)]
pub(crate) struct PassState {
    layout: Layout,
    /// Environment rows `R̃`, `rows × 4`.
    r: Vec<f64>,
    /// Embedding input `s̃ = R̃[:, 0]`, `rows`.
    s: Vec<f64>,
    /// Embedding tape; its output is `G`, `rows × M`.
    emb: Tape,
    /// `U = R̃ᵀG / n_scale` per slot, `slots × 4M`.
    u: Vec<f64>,
    /// Flattened descriptor per slot (the fitting input), `slots × M·M^<`.
    d: Vec<f64>,
    /// Fitting tape; its output is the per-slot energy.
    fit: Tape,
    /// Per-slot temporaries.
    small: Vec<f64>,
    /// One-row tape for neighbours right of a spline table's domain.
    row_tape: Tape,
}

impl PassState {
    /// Number of atoms in the frame (centres or not).
    pub(crate) fn n_atoms(&self) -> usize {
        self.layout.atom_slot.len()
    }

    /// Fitting-net output of atom `i` (0 for a non-centre).
    pub(crate) fn atom_energy(&self, i: usize) -> f64 {
        match self.layout.atom_slot[i] {
            NO_SLOT => 0.0,
            c => self.fit.output()[c],
        }
    }

    /// Every centre's flattened descriptor, back to back.
    pub(crate) fn descriptors(&self) -> &[f64] {
        &self.d
    }

    /// The flattened descriptor of centre atom `i`.
    pub(crate) fn descriptor(&self, i: usize) -> &[f64] {
        let dd = self.d.len() / self.layout.n_slots();
        let c = self.layout.atom_slot[i];
        &self.d[c * dd..(c + 1) * dd]
    }
}

/// Working memory of the derivative sweeps. Row buffers are tile-local
/// (a tile's rows, neighbour-type block after block) except `g_r` and
/// `g_s`, which the force assembly reads frame-wide.
#[derive(Debug, Default)]
struct Scratch {
    mlp: SweepScratch,
    /// Seeds of the fitting sweeps: `∂E/∂Eᵢ = 1`; for the dual sweep
    /// `∂φ/∂Eᵢ = 0` per tangent and `∂φ/∂Ėᵢ = −1`.
    ones: Vec<f64>,
    zeros: Vec<f64>,
    /// `∂·/∂D` per slot (tangent-major in the dual sweep) and `∂φ/∂Ḋ`.
    gd: Vec<f64>,
    gd_dot: Vec<f64>,
    /// `∂·/∂G` (tangent-major in the dual sweep), `∂φ/∂Ġ`, `∂E/∂R̃`,
    /// `∂E/∂s̃`, and one more `rows × M` buffer.
    g_g: Vec<f64>,
    g_gdot: Vec<f64>,
    g_r: Vec<f64>,
    g_s: Vec<f64>,
    rows_tmp: Vec<f64>,
    /// Per-slot temporaries.
    small: Vec<f64>,
    /// The current tile's neighbour-type blocks.
    tile_blocks: Vec<TileBlock>,
    /// Tangent environment rows and their first column, tangent-major.
    r_dot: Vec<f64>,
    s_dot: Vec<f64>,
    emb_dual: DualTape,
    /// `U̇` and `Ḋ` per slot, tangent-major; `∂φ/∂U̇` per slot.
    u_dot: Vec<f64>,
    d_dot: Vec<f64>,
    gu_dot: Vec<f64>,
    fit_dual: DualTape,
    /// One-row tapes for neighbours right of a spline table's domain.
    row_tape: Tape,
    row_dual: DualTape,
}

/// The recycled buffers of one evaluation stream: the forward state and
/// the sweep scratch. Give each concurrent evaluator its own — one per
/// gradient-reduction block, per serving thread, per MD domain — and
/// reuse it frame after frame; buffers grow to the largest frame seen
/// and stay.
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) state: PassState,
    /// Behind a lock so the sweeps can take `&ForwardPass`; each pass
    /// has one evaluator, so it is never contended.
    scratch: Mutex<Scratch>,
}

/// Split `buf` (grown as needed) into consecutive pieces of `sizes`.
fn carve<const N: usize>(buf: &mut Vec<f64>, sizes: [usize; N]) -> [&mut [f64]; N] {
    buf.resize(sizes.iter().sum(), 0.0);
    let mut rest = buf.as_mut_slice();
    sizes.map(|n| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        head
    })
}

/// Copy the first `m_sub` columns of the `4 × m` matrix `u` into `v`.
fn leading_cols(u: &[f64], m: usize, m_sub: usize, v: &mut [f64]) {
    for (vr, ur) in v.chunks_exact_mut(m_sub).zip(u.chunks_exact(m)) {
        vr.copy_from_slice(&ur[..m_sub]);
    }
}

/// `dst[:, ..m_sub] += add` for the `4 × m` matrix `dst`.
fn add_leading_cols(dst: &mut [f64], m: usize, m_sub: usize, add: &[f64]) {
    for (dr, ar) in dst.chunks_exact_mut(m).zip(add.chunks_exact(m_sub)) {
        for (d, a) in dr.iter_mut().zip(ar) {
            *d += a;
        }
    }
}

/// `dst[i] = a[i] + b[i]`.
fn sum_into(dst: &mut [f64], a: &[f64], b: &[f64]) {
    for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
        *d = x + y;
    }
}

/// The networks of one model, as the stages need them. The master model
/// evaluates its embedding nets; the compressed and quantized tiers read
/// spline tables and keep the nets for inputs right of the table domain.
pub(crate) struct Nets<'a> {
    pub cfg: &'a ModelConfig,
    /// The descriptor normalizer `EnvStats::n_scale`.
    pub n_scale: f64,
    /// Indexed `ti · n_types + tj`.
    pub embeddings: &'a [Mlp],
    /// Tabulated embeddings, indexed like `embeddings`.
    pub tables: Option<&'a [SplineTable]>,
    /// Indexed by centre type.
    pub fittings: &'a [Mlp],
}

impl Nets<'_> {
    fn emb_params(&self) -> usize {
        self.embeddings[0].n_params()
    }

    fn fit_params(&self) -> usize {
        self.fittings[0].n_params()
    }

    /// Offset of embedding net `b` in the flat parameter vector.
    fn emb_off(&self, b: usize) -> usize {
        b * self.emb_params()
    }

    /// Offset of fitting net `ti` in the flat parameter vector.
    fn fit_off(&self, ti: usize) -> usize {
        self.embeddings.len() * self.emb_params() + ti * self.fit_params()
    }

    /// Lay the frame out, run embedding → descriptor → fitting, and
    /// return the sum of the per-atom energies in ascending atom order.
    /// Only atoms flagged in `centres` (all, when `None`) are evaluated;
    /// the others can still appear as neighbours.
    pub(crate) fn forward(
        &self,
        types: &[usize],
        envs: &Envs,
        centres: Option<&[bool]>,
        st: &mut PassState,
    ) -> f64 {
        self.descriptors(types, envs, centres, st);
        let PassState { layout, d, fit, .. } = st;
        let be = backend::active();
        fit.prepare(&self.fittings[0], layout.n_slots());
        for (ti, s0, s1) in layout.type_groups() {
            self.fittings[ti].forward_rows(be, d, fit, s0, s1);
        }
        let e = fit.output();
        let mut energy = 0.0;
        for &c in layout.atom_slot.iter().filter(|&&c| c != NO_SLOT) {
            energy += e[c];
        }
        energy
    }

    /// The first half of [`Nets::forward`]: layout, embedding rows and
    /// the per-centre descriptors (all the quantized tier takes from
    /// here — its fitting nets are integer).
    pub(crate) fn descriptors(
        &self,
        types: &[usize],
        envs: &Envs,
        centres: Option<&[bool]>,
        st: &mut PassState,
    ) {
        let be = backend::active();
        let (nt, m, m_sub) = (self.cfg.n_types, self.cfg.m, self.cfg.m_sub);
        let dd = self.cfg.descriptor_dim();
        let inv_n = 1.0 / self.n_scale;
        let PassState { layout, r, s, emb, u, d, small, row_tape, .. } = st;
        layout.build(nt, types, envs, centres);
        let (n_rows, n_slots) = (layout.n_rows(), layout.n_slots());

        kernel::launch("env_rows");
        r.resize(n_rows * 4, 0.0);
        s.resize(n_rows, 0.0);
        for (c, &i) in layout.slot_atom.iter().enumerate() {
            for tj in 0..nt {
                let row0 = layout.seg_row[c * nt + tj];
                for (k, e) in envs.of(i, tj).iter().enumerate() {
                    r[(row0 + k) * 4..(row0 + k + 1) * 4].copy_from_slice(&e.row);
                    s[row0 + k] = e.row[0];
                }
            }
        }

        match self.tables {
            None => {
                emb.prepare(&self.embeddings[0], n_rows);
                for (b, r0, r1) in layout.blocks() {
                    self.embeddings[b].forward_rows(be, s, emb, r0, r1);
                }
            }
            Some(tables) => {
                kernel::launch("table_lookup");
                emb.prepare_output(n_rows, m);
                let g = emb.output_mut();
                for (b, r0, r1) in layout.blocks() {
                    for row in r0..r1 {
                        let out = &mut g[row * m..(row + 1) * m];
                        if tables[b].covers(s[row]) {
                            tables[b].eval_into(s[row], out);
                        } else {
                            row_tape.prepare(&self.embeddings[b], 1);
                            self.embeddings[b].forward_rows(be, &s[row..=row], row_tape, 0, 1);
                            out.copy_from_slice(row_tape.output());
                        }
                    }
                }
            }
        }
        let g = emb.output();

        // U = R̃ᵀG / n_scale and D = UᵀU^< per centre.
        kernel::launch("descriptor_fwd");
        u.clear();
        u.resize(n_slots * 4 * m, 0.0);
        d.clear();
        d.resize(n_slots * dd, 0.0);
        let [v] = carve(small, [4 * m_sub]);
        for c in 0..n_slots {
            let uc = &mut u[c * 4 * m..(c + 1) * 4 * m];
            for (row, len) in layout.slot_segments(c) {
                be.gemm_tn_acc(&r[row * 4..(row + len) * 4], &g[row * m..(row + len) * m], len, 4, m, uc);
            }
            be.scale(inv_n, uc);
            leading_cols(uc, m, m_sub, v);
            be.gemm_tn_acc(uc, v, 4, m, m_sub, &mut d[c * dd..(c + 1) * dd]);
        }
    }

    /// Reverse sweep seeded with `dE/dEᵢ = 1`: adds `∇θ E` into `grads`
    /// (the flat parameter-vector layout) and/or writes `F = −∇_r E`.
    pub(crate) fn backward_energy(
        &self,
        ws: &Workspace,
        envs: &Envs,
        mut grads: Option<&mut [f64]>,
        forces: Option<&mut [Vec3]>,
    ) {
        let be = backend::active();
        let (nt, m, m_sub) = (self.cfg.n_types, self.cfg.m, self.cfg.m_sub);
        let dd = self.cfg.descriptor_dim();
        let inv_n = 1.0 / self.n_scale;
        let st = &ws.state;
        let lay = &st.layout;
        let g = st.emb.output();
        let mut guard = ws.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let sc = &mut *guard;
        let want_forces = forces.is_some();
        let n_rows = if want_forces { lay.n_rows() } else { 0 };
        sc.g_r.resize(n_rows * 4, 0.0);
        sc.g_s.resize(n_rows, 0.0);
        let mut blocks = std::mem::take(&mut sc.tile_blocks);

        for &(ti, c0, c1) in &lay.tiles {
            let ns = c1 - c0;
            let nl = lay.tile_blocks(c0, c1, &mut blocks);

            // Fitting backward: dE/dD per centre.
            sc.ones.clear();
            sc.ones.resize(ns, 1.0);
            sc.gd.resize(ns * dd, 0.0);
            let fit = &self.fittings[ti];
            let gr = grads.as_deref_mut().map(|g| &mut g[self.fit_off(ti)..][..fit.n_params()]);
            let slots = Rows { r0: c0, r1: c1, d0: 0, stride: ns };
            fit.backward_rows(
                be,
                &st.d,
                &st.fit,
                slots,
                &sc.ones,
                Segs::EachRow,
                gr,
                &mut sc.mlp,
                Some(&mut sc.gd),
            );

            // Descriptor backward (paper Eq. 4, product rule):
            // dE/dU = V·gdᵀ, plus U·gd into the first M^< columns; then
            // dE/dG = R̃·gU / n and (for forces) dE/dR̃ = G·gUᵀ / n.
            sc.g_g.resize(nl * m, 0.0);
            kernel::fused("descriptor_bwd", || {
                kernel::launch("descriptor_bwd");
                let [v, gu, add] = carve(&mut sc.small, [4 * m_sub, 4 * m, 4 * m_sub]);
                for c in c0..c1 {
                    let uc = &st.u[c * 4 * m..(c + 1) * 4 * m];
                    let gd = &sc.gd[(c - c0) * dd..(c - c0 + 1) * dd];
                    leading_cols(uc, m, m_sub, v);
                    be.gemm_nt(v, gd, m_sub, m, gu);
                    be.gemm(uc, gd, m, m_sub, add);
                    add_leading_cols(gu, m, m_sub, add);
                    for (tj, blk) in blocks.iter().enumerate() {
                        let (row, len) = (lay.seg_row[c * nt + tj], lay.seg_len[c * nt + tj]);
                        let lr = blk.local(row);
                        be.gemm(
                            &st.r[row * 4..(row + len) * 4],
                            gu,
                            4,
                            m,
                            &mut sc.g_g[lr * m..(lr + len) * m],
                        );
                        if want_forces {
                            be.gemm_nt(
                                &g[row * m..(row + len) * m],
                                gu,
                                m,
                                4,
                                &mut sc.g_r[row * 4..(row + len) * 4],
                            );
                        }
                    }
                }
                be.scale(inv_n, &mut sc.g_g[..nl * m]);
            });

            // Embedding backward: dE/ds̃ per row.
            for (tj, blk) in blocks.iter().enumerate() {
                let TileBlock { ra, rb, l0 } = *blk;
                if ra == rb {
                    continue;
                }
                let b = ti * nt + tj;
                let net = &self.embeddings[b];
                match self.tables {
                    None => {
                        let rows = blk.rows(nl);
                        let gr = grads.as_deref_mut().map(|g| &mut g[self.emb_off(b)..][..net.n_params()]);
                        sc.rows_tmp.resize(if want_forces { nl } else { 0 }, 0.0);
                        let gs = want_forces.then_some(&mut sc.rows_tmp[..]);
                        net.backward_rows(
                            be,
                            &st.s,
                            &st.emb,
                            rows,
                            &sc.g_g,
                            lay.tile_segments(c0, c1, tj),
                            gr,
                            &mut sc.mlp,
                            gs,
                        );
                        if want_forces {
                            sc.g_s[ra..rb].copy_from_slice(&sc.rows_tmp[l0..l0 + rb - ra]);
                        }
                    }
                    Some(tables) if want_forces => {
                        // dE/ds̃ = ⟨dE/dG, dG/ds̃⟩ with the spline's own
                        // derivative (the exact net's JVP right of the
                        // table's domain).
                        let [dg] = carve(&mut sc.small, [m]);
                        for row in ra..rb {
                            let x = st.s[row];
                            if tables[b].covers(x) {
                                tables[b].eval_deriv_into(x, dg);
                            } else {
                                let one = Rows::whole(0, 1, 1);
                                sc.row_tape.prepare(net, 1);
                                net.forward_rows(be, &[x], &mut sc.row_tape, 0, 1);
                                sc.row_dual.prepare(net, 1, 1);
                                net.jvp_rows(be, &sc.row_tape, one, 1, &[1.0], &mut sc.row_dual);
                                dg.copy_from_slice(&sc.row_dual.output()[..m]);
                            }
                            let lr = l0 + row - ra;
                            sc.g_s[row] = be.dot(&sc.g_g[lr * m..(lr + 1) * m], dg);
                        }
                    }
                    Some(_) => {}
                }
            }
        }

        sc.tile_blocks = blocks;

        if let Some(forces) = forces {
            be.scale(inv_n, &mut sc.g_r);
            kernel::launch("force_assembly");
            forces.fill(Vec3::ZERO);
            // Atoms in index order, not slot order: each atom's force is
            // a sum over centres, kept in ascending centre index.
            for (i, &c) in lay.atom_slot.iter().enumerate() {
                if c == NO_SLOT {
                    continue;
                }
                for tj in 0..nt {
                    let row0 = lay.seg_row[c * nt + tj];
                    for (k, e) in envs.of(i, tj).iter().enumerate() {
                        let row = row0 + k;
                        let g_r = &sc.g_r[row * 4..(row + 1) * 4];
                        let mut dvec = [0.0; 3];
                        for (ax, dva) in dvec.iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for (gr, drow) in g_r.iter().zip(&e.drow) {
                                acc += gr * drow[ax];
                            }
                            // The embedding input is the same normalized s
                            // as row[0]; chain its gradient through drow[0].
                            acc += sc.g_s[row] * e.drow[0][ax];
                            *dva = acc;
                        }
                        let dv = Vec3(dvec);
                        forces[e.j] += dv;
                        forces[i] -= dv;
                    }
                }
            }
            // F = −dE/dr.
            for f in forces.iter_mut() {
                *f = -*f;
            }
        }
    }

    /// Exact `∇θ (Σ_k c_k · F_k)` for several contraction vectors at
    /// once: `coeffs` holds one `3 · n_atoms` vector per tangent and
    /// tangent `t`'s gradient is added into `grads[t]`. The forward
    /// tangents, the fitting stage and every reduction run per tangent
    /// (each into its own gradient, in ascending atom order); the
    /// `∂φ/∂ẏ` half of the reverse sweep does not depend on the tangent
    /// and runs once.
    pub(crate) fn grad_force_sums<G: AsMut<[f64]>>(
        &self,
        ws: &Workspace,
        envs: &Envs,
        coeffs: &[f64],
        grads: &mut [G],
    ) {
        let be = backend::active();
        let nt_an = grads.len();
        let (nt, m, m_sub) = (self.cfg.n_types, self.cfg.m, self.cfg.m_sub);
        let dd = self.cfg.descriptor_dim();
        let inv_n = 1.0 / self.n_scale;
        let st = &ws.state;
        let lay = &st.layout;
        let n_atoms = st.n_atoms();
        assert_eq!(coeffs.len(), nt_an * 3 * n_atoms, "coeffs must be 3·n_atoms long per tangent");
        assert!(self.tables.is_none(), "parameter gradients need the exact embedding nets");
        let g = st.emb.output();
        let mut guard = ws.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let sc = &mut *guard;
        let mut blocks = std::mem::take(&mut sc.tile_blocks);

        for &(ti, c0, c1) in &lay.tiles {
            let ns = c1 - c0;
            let nl = lay.tile_blocks(c0, c1, &mut blocks);
            let slots = Rows { r0: c0, r1: c1, d0: 0, stride: ns };

            // Tangent env rows: ṙow[c] = drow[c]·(c_j − c_i); ṡ is
            // column 0.
            kernel::launch("env_tangent");
            sc.r_dot.resize(nt_an * nl * 4, 0.0);
            sc.s_dot.resize(nt_an * nl, 0.0);
            for t in 0..nt_an {
                let ct = &coeffs[t * 3 * n_atoms..(t + 1) * 3 * n_atoms];
                let c_at = |k: usize| Vec3::new(ct[3 * k], ct[3 * k + 1], ct[3 * k + 2]);
                for c in c0..c1 {
                    let i = lay.slot_atom[c];
                    for (tj, blk) in blocks.iter().enumerate() {
                        let row0 = t * nl + blk.local(lay.seg_row[c * nt + tj]);
                        for (k, e) in envs.of(i, tj).iter().enumerate() {
                            let rel = c_at(e.j) - c_at(i);
                            let out = &mut sc.r_dot[(row0 + k) * 4..(row0 + k + 1) * 4];
                            for (o, drow) in out.iter_mut().zip(&e.drow) {
                                let mut acc = 0.0;
                                for (dr, rl) in drow.iter().zip(&rel.0) {
                                    acc += dr * rl;
                                }
                                *o = acc;
                            }
                            sc.s_dot[row0 + k] = out[0];
                        }
                    }
                }
            }

            // Embedding JVP: Ġ per tangent.
            sc.emb_dual.prepare(&self.embeddings[0], nl, nt_an);
            for (tj, blk) in blocks.iter().enumerate() {
                if blk.ra < blk.rb {
                    let rows = blk.rows(nl);
                    self.embeddings[ti * nt + tj].jvp_rows(
                        be,
                        &st.emb,
                        rows,
                        nt_an,
                        &sc.s_dot,
                        &mut sc.emb_dual,
                    );
                }
            }
            let g_dot = sc.emb_dual.output();

            // Descriptor JVP: U̇ = (ṘᵀG + R̃ᵀĠ)/n, Ḋ = U̇ᵀV + UᵀV̇.
            kernel::launch("descriptor_jvp");
            sc.u_dot.resize(nt_an * ns * 4 * m, 0.0);
            sc.d_dot.resize(nt_an * ns * dd, 0.0);
            {
                let [v, v_dot, ta, tb, da, db] =
                    carve(&mut sc.small, [4 * m_sub, 4 * m_sub, 4 * m, 4 * m, dd, dd]);
                for t in 0..nt_an {
                    for c in c0..c1 {
                        let uc = &st.u[c * 4 * m..(c + 1) * 4 * m];
                        let ud = &mut sc.u_dot[(t * ns + c - c0) * 4 * m..][..4 * m];
                        ta.fill(0.0);
                        tb.fill(0.0);
                        for (tj, blk) in blocks.iter().enumerate() {
                            let (row, len) = (lay.seg_row[c * nt + tj], lay.seg_len[c * nt + tj]);
                            let tr = t * nl + blk.local(row);
                            be.gemm_tn_acc(
                                &sc.r_dot[tr * 4..(tr + len) * 4],
                                &g[row * m..(row + len) * m],
                                len,
                                4,
                                m,
                                ta,
                            );
                            be.gemm_tn_acc(
                                &st.r[row * 4..(row + len) * 4],
                                &g_dot[tr * m..(tr + len) * m],
                                len,
                                4,
                                m,
                                tb,
                            );
                        }
                        sum_into(ud, ta, tb);
                        be.scale(inv_n, ud);
                        leading_cols(uc, m, m_sub, v);
                        leading_cols(ud, m, m_sub, v_dot);
                        da.fill(0.0);
                        db.fill(0.0);
                        be.gemm_tn_acc(ud, v, 4, m, m_sub, da);
                        be.gemm_tn_acc(uc, v_dot, 4, m, m_sub, db);
                        sum_into(&mut sc.d_dot[(t * ns + c - c0) * dd..][..dd], da, db);
                    }
                }
            }

            // Fitting JVP + dual reverse. φ = Σ c·F = −Ė with position
            // tangent ṙ = c, so the seeds are dφ/dEᵢ = 0 and dφ/dĖᵢ = −1.
            sc.fit_dual.prepare(&self.fittings[0], ns, nt_an);
            sc.zeros.clear();
            sc.zeros.resize(nt_an * ns, 0.0);
            sc.ones.clear();
            sc.ones.resize(ns, -1.0);
            sc.gd.resize(nt_an * ns * dd, 0.0);
            sc.gd_dot.resize(ns * dd, 0.0);
            let fit = &self.fittings[ti];
            fit.jvp_rows(be, &st.fit, slots, nt_an, &sc.d_dot, &mut sc.fit_dual);
            fit.dual_backward_rows(
                be,
                (&st.d, &sc.d_dot),
                (&st.fit, &sc.fit_dual),
                slots,
                (&sc.zeros, &sc.ones),
                Segs::EachRow,
                (grads, self.fit_off(ti)),
                &mut sc.mlp,
                Some(&mut sc.gd),
                Some(&mut sc.gd_dot),
            );

            // Descriptor dual reverse, with A = dφ/dD, B = dφ/dḊ:
            // gU̇ = V·Bᵀ,        first M^< cols += U·B          (shared)
            // gU  = V̇·Bᵀ + V·Aᵀ, first M^< cols += U̇·B + U·A  (per tangent)
            // gĠ = R̃·gU̇/n ; gG = (R̃·gU + Ṙ·gU̇)/n.
            sc.gu_dot.resize(ns * 4 * m, 0.0);
            sc.g_gdot.resize(nl * m, 0.0);
            sc.g_g.resize(nt_an * nl * m, 0.0);
            sc.rows_tmp.resize(nl * m, 0.0);
            kernel::fused("descriptor_dual_bwd", || {
                kernel::launch("descriptor_dual_bwd");
                let [v, v_dot, gu, ta, add, tc] =
                    carve(&mut sc.small, [4 * m_sub, 4 * m_sub, 4 * m, 4 * m, 4 * m_sub, 4 * m_sub]);
                for c in c0..c1 {
                    let uc = &st.u[c * 4 * m..(c + 1) * 4 * m];
                    let bm = &sc.gd_dot[(c - c0) * dd..(c - c0 + 1) * dd];
                    let gud = &mut sc.gu_dot[(c - c0) * 4 * m..(c - c0 + 1) * 4 * m];
                    leading_cols(uc, m, m_sub, v);
                    be.gemm_nt(v, bm, m_sub, m, gud);
                    be.gemm(uc, bm, m, m_sub, add);
                    add_leading_cols(gud, m, m_sub, add);
                    for (tj, blk) in blocks.iter().enumerate() {
                        let (row, len) = (lay.seg_row[c * nt + tj], lay.seg_len[c * nt + tj]);
                        let lr = blk.local(row);
                        be.gemm(
                            &st.r[row * 4..(row + len) * 4],
                            gud,
                            4,
                            m,
                            &mut sc.g_gdot[lr * m..(lr + len) * m],
                        );
                    }
                }
                be.scale(inv_n, &mut sc.g_gdot[..nl * m]);
                for t in 0..nt_an {
                    let g_g = &mut sc.g_g[t * nl * m..(t + 1) * nl * m];
                    for c in c0..c1 {
                        let uc = &st.u[c * 4 * m..(c + 1) * 4 * m];
                        let ud = &sc.u_dot[(t * ns + c - c0) * 4 * m..][..4 * m];
                        let am = &sc.gd[(t * ns + c - c0) * dd..][..dd];
                        let bm = &sc.gd_dot[(c - c0) * dd..(c - c0 + 1) * dd];
                        let gud = &sc.gu_dot[(c - c0) * 4 * m..(c - c0 + 1) * 4 * m];
                        leading_cols(uc, m, m_sub, v);
                        leading_cols(ud, m, m_sub, v_dot);
                        be.gemm_nt(v_dot, bm, m_sub, m, gu);
                        be.gemm_nt(v, am, m_sub, m, ta);
                        for (o, x) in gu.iter_mut().zip(ta.iter()) {
                            *o += x;
                        }
                        be.gemm(ud, bm, m, m_sub, add);
                        be.gemm(uc, am, m, m_sub, tc);
                        for (o, x) in add.iter_mut().zip(tc.iter()) {
                            *o += x;
                        }
                        add_leading_cols(gu, m, m_sub, add);
                        for (tj, blk) in blocks.iter().enumerate() {
                            let (row, len) = (lay.seg_row[c * nt + tj], lay.seg_len[c * nt + tj]);
                            let lr = blk.local(row);
                            let tr = t * nl + lr;
                            be.gemm(
                                &st.r[row * 4..(row + len) * 4],
                                gu,
                                4,
                                m,
                                &mut g_g[lr * m..(lr + len) * m],
                            );
                            be.gemm(
                                &sc.r_dot[tr * 4..(tr + len) * 4],
                                gud,
                                4,
                                m,
                                &mut sc.rows_tmp[lr * m..(lr + len) * m],
                            );
                        }
                    }
                    be.add_assign(g_g, &sc.rows_tmp[..nl * m]);
                    be.scale(inv_n, g_g);
                }
            });

            // Embedding dual reverse per neighbour-type block.
            for (tj, blk) in blocks.iter().enumerate() {
                if blk.ra == blk.rb {
                    continue;
                }
                let b = ti * nt + tj;
                self.embeddings[b].dual_backward_rows(
                    be,
                    (&st.s, &sc.s_dot),
                    (&st.emb, &sc.emb_dual),
                    blk.rows(nl),
                    (&sc.g_g, &sc.g_gdot),
                    lay.tile_segments(c0, c1, tj),
                    (grads, self.emb_off(b)),
                    &mut sc.mlp,
                    None,
                    None,
                );
            }
        }
        sc.tile_blocks = blocks;
    }
}
