//! Smooth environment matrix `R̃` and its position derivatives.
//!
//! For every atom `i`, each neighbour `j` within `r_c` contributes the
//! row `s(r)·(1, x/r, y/r, z/r)` where `s(r)` is `1/r` below `r_cs` and
//! decays to zero at `r_c` with a quintic switch (zero first and second
//! derivatives at the cutoff), exactly as in §2.1 of the paper.
//!
//! Rows are normalized with dataset statistics (DeePMD's `davg`/`dstd`)
//! so the embedding-net inputs are O(1); the normalization is folded
//! into the row derivatives, keeping forces exact.

use crate::config::ModelConfig;
use dp_data::dataset::{Dataset, Snapshot};
use dp_mdsim::cell::Cell;
use dp_mdsim::neighbor::{Lists, NeighborList};
use dp_mdsim::Vec3;
use std::cell::RefCell;
use std::ops::Range;

/// Switching function `s(r)` and its derivative.
///
/// * `r < r_cs`: `s = 1/r`,
/// * `r_cs ≤ r < r_c`: `s = (1/r)·(x³(−6x² + 15x − 10) + 1)` with
///   `x = (r − r_cs)/(r_c − r_cs)`,
/// * `r ≥ r_c`: `s = 0`.
pub fn switch(r: f64, rcs: f64, rc: f64) -> (f64, f64) {
    debug_assert!(r > 0.0);
    if r >= rc {
        return (0.0, 0.0);
    }
    if r < rcs {
        return (1.0 / r, -1.0 / (r * r));
    }
    let w = rc - rcs;
    let x = (r - rcs) / w;
    let poly = x * x * x * (-6.0 * x * x + 15.0 * x - 10.0) + 1.0;
    let dpoly = (x * x * (-30.0 * x * x + 60.0 * x - 30.0)) / w;
    let s = poly / r;
    let ds = dpoly / r - poly / (r * r);
    (s, ds)
}

/// One neighbour's contribution to a centre's environment.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnvEntry {
    /// Neighbour atom index.
    pub j: usize,
    /// Normalized environment row `[s̃, s̃x̂, s̃ŷ, s̃ẑ]`.
    pub row: [f64; 4],
    /// Derivative of the (normalized) row with respect to the neighbour
    /// position `r_j`: `drow[c][a] = ∂row[c]/∂(r_j)_a`. The derivative
    /// with respect to `r_i` is the negative.
    pub drow: [[f64; 3]; 4],
}

/// The typed environments of a frame, flat (CSR over the centres):
/// every centre's entries back to back in ascending atom order, each
/// centre's grouped by neighbour type and ascending by neighbour index
/// within a type. Atom `i`'s type-`t` entries are
/// `entries[off[i·nt + t]..off[i·nt + t + 1]]`; an atom that is not a
/// centre has empty ranges. `Default` is an empty set whose buffers
/// [`Envs::rebuild`] fills and later rebuilds reuse.
#[derive(Clone, Debug, Default)]
pub struct Envs {
    n_types: usize,
    off: Vec<usize>,
    entries: Vec<EnvEntry>,
}

/// Normalization statistics for environment rows (per centre type):
/// radial mean/std and angular std, plus the constant neighbour-count
/// scale used in the descriptor contraction.
#[derive(Clone, Debug)]
pub struct EnvStats {
    /// Mean of the raw radial column `s(r)`, per centre type.
    pub mean_radial: Vec<f64>,
    /// Std of the raw radial column, per centre type.
    pub std_radial: Vec<f64>,
    /// Std of the raw angular columns (pooled), per centre type.
    pub std_angular: Vec<f64>,
    /// Constant descriptor normalizer (a fixed scale ≈ the typical
    /// neighbour count, so the contraction stays smooth as neighbours
    /// enter/leave the cutoff).
    pub n_scale: f64,
}

impl EnvStats {
    /// Identity normalization (tests).
    pub fn identity(n_types: usize) -> Self {
        EnvStats {
            mean_radial: vec![0.0; n_types],
            std_radial: vec![1.0; n_types],
            std_angular: vec![1.0; n_types],
            n_scale: 1.0,
        }
    }

    /// Compute from (a sample of) a dataset.
    pub fn compute(cfg: &ModelConfig, data: &Dataset, max_frames: usize) -> Self {
        let nt = cfg.n_types;
        let mut sum = vec![0.0; nt];
        let mut sum2 = vec![0.0; nt];
        let mut count = vec![0usize; nt];
        let mut asum2 = vec![0.0; nt];
        let mut acount = vec![0usize; nt];
        let mut max_neigh = 0usize;
        let mut nl = NeighborList::default();
        for frame in data.frames.iter().take(max_frames.max(1)) {
            let cell = Cell::orthorhombic(frame.cell[0], frame.cell[1], frame.cell[2]);
            nl.search(&cell, &frame.pos, cfg.rcut, Lists::Full);
            max_neigh = max_neigh.max(nl.max_neighbors());
            for i in 0..frame.types.len() {
                let ti = frame.types[i];
                for nb in nl.neighbors_of(i) {
                    let (s, _) = switch(nb.dist, cfg.rcut_smooth, cfg.rcut);
                    sum[ti] += s;
                    sum2[ti] += s * s;
                    count[ti] += 1;
                    for a in 0..3 {
                        let v = s * nb.rij.0[a] / nb.dist;
                        asum2[ti] += v * v;
                        acount[ti] += 1;
                    }
                }
            }
        }
        // The radial *mean* is deliberately left at zero: with
        // variable-length neighbour lists a nonzero mean would keep a
        // neighbour's normalized row from vanishing as it crosses the
        // cutoff, breaking the smoothness the switching function buys
        // (DeePMD-kit hides this behind fixed-N_m padding). Scaling by
        // the second moment captures the conditioning benefit.
        let mean_radial = vec![0.0; nt];
        let mut std_radial = vec![1.0; nt];
        let mut std_angular = vec![1.0; nt];
        for t in 0..nt {
            if count[t] > 1 {
                let m = sum[t] / count[t] as f64;
                let second_moment = (sum2[t] / count[t] as f64).max(1e-12);
                let _ = m;
                std_radial[t] = second_moment.sqrt();
            }
            if acount[t] > 1 {
                std_angular[t] = (asum2[t] / acount[t] as f64).max(1e-12).sqrt();
            }
        }
        EnvStats {
            mean_radial,
            std_radial,
            std_angular,
            n_scale: (max_neigh.max(1)) as f64,
        }
    }
}

thread_local! {
    /// The neighbour-search buffers [`build_envs`] reuses on this thread.
    static SEARCH: RefCell<NeighborList> = RefCell::default();
}

/// Build the typed environments of every atom in a frame. The only
/// allocations are the two exactly-sized buffers of the result; the
/// neighbour search runs in this thread's reused buffers.
pub fn build_envs(cfg: &ModelConfig, stats: &EnvStats, frame: &Snapshot) -> Envs {
    let cell = Cell::orthorhombic(frame.cell[0], frame.cell[1], frame.cell[2]);
    let mut envs = Envs::default();
    SEARCH.with_borrow_mut(|nl| envs.rebuild(cfg, stats, &cell, &frame.types, &frame.pos, None, nl));
    envs
}

impl Envs {
    /// Rebuild for borrowed geometry, for the atoms flagged in `centres`
    /// only (all, when `None`); the others — ghosts of an MD domain that
    /// only serve as neighbours — get an empty environment. A centre's
    /// environment does not depend on which other atoms are centres.
    /// `nl` holds the neighbour search; both its buffers and these are
    /// reused, so a rebuild at a size seen before allocates nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild(
        &mut self,
        cfg: &ModelConfig,
        stats: &EnvStats,
        cell: &Cell,
        types: &[usize],
        pos: &[Vec3],
        centres: Option<&[bool]>,
        nl: &mut NeighborList,
    ) {
        nl.search(cell, pos, cfg.rcut, centres.map_or(Lists::Full, Lists::Centres));
        let nt = cfg.n_types;
        self.n_types = nt;
        self.off.clear();
        self.off.reserve(types.len() * nt + 1);
        self.entries.clear();
        self.entries.reserve(nl.n_entries());
        for (i, &ti) in types.iter().enumerate() {
            let inv_std_r = 1.0 / stats.std_radial[ti];
            let mean_r = stats.mean_radial[ti];
            let inv_std_a = 1.0 / stats.std_angular[ti];
            // One pass per neighbour type: the entries come out grouped
            // by type and ascending by index within a type, with no sort.
            for t in 0..nt {
                self.off.push(self.entries.len());
                for nb in nl.neighbors_of(i).iter().filter(|nb| types[nb.j] == t) {
                    let r = nb.dist;
                    let (s, ds) = switch(r, cfg.rcut_smooth, cfg.rcut);
                    let rhat = [nb.rij.0[0] / r, nb.rij.0[1] / r, nb.rij.0[2] / r];
                    let mut row = [0.0; 4];
                    row[0] = (s - mean_r) * inv_std_r;
                    for c in 0..3 {
                        row[c + 1] = s * rhat[c] * inv_std_a;
                    }
                    // Derivatives wrt r_j. ∂s/∂(r_j)_a = ds·r̂_a;
                    // ∂(s·r̂_c)/∂(r_j)_a = ds·r̂_c·r̂_a + s·(δ_ca − r̂_c r̂_a)/r.
                    let mut drow = [[0.0; 3]; 4];
                    for a in 0..3 {
                        drow[0][a] = ds * rhat[a] * inv_std_r;
                        for c in 0..3 {
                            let delta = if a == c { 1.0 } else { 0.0 };
                            drow[c + 1][a] = (ds * rhat[c] * rhat[a]
                                + s * (delta - rhat[c] * rhat[a]) / r)
                                * inv_std_a;
                        }
                    }
                    self.entries.push(EnvEntry { j: nb.j, row, drow });
                }
            }
        }
        self.off.push(self.entries.len());
    }

    /// Number of atoms covered (centres or not).
    pub fn n_atoms(&self) -> usize {
        self.off.len().saturating_sub(1) / self.n_types.max(1)
    }

    /// Number of neighbour types.
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// Where atom `i`'s entries of neighbour type `t` sit in
    /// [`Envs::entries`].
    pub fn range(&self, i: usize, t: usize) -> Range<usize> {
        let k = i * self.n_types + t;
        self.off[k]..self.off[k + 1]
    }

    /// Atom `i`'s entries of neighbour type `t`.
    pub fn of(&self, i: usize, t: usize) -> &[EnvEntry] {
        &self.entries[self.range(i, t)]
    }

    /// Every entry, centre after centre.
    pub fn entries(&self) -> &[EnvEntry] {
        &self.entries
    }

    /// Resident bytes of the buffers.
    pub fn mem_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<EnvEntry>()
            + self.off.capacity() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_is_continuous_and_smooth() {
        let (rcs, rc) = (3.0, 5.0);
        // Continuity at r_cs.
        let (s1, d1) = switch(rcs - 1e-9, rcs, rc);
        let (s2, d2) = switch(rcs + 1e-9, rcs, rc);
        assert!((s1 - s2).abs() < 1e-8);
        assert!((d1 - d2).abs() < 1e-6);
        // Zero value and derivative at r_c.
        let (s, d) = switch(rc - 1e-7, rcs, rc);
        assert!(s.abs() < 1e-10 && d.abs() < 1e-5, "s={s} d={d}");
        assert_eq!(switch(rc + 0.1, rcs, rc), (0.0, 0.0));
        // 1/r region.
        let (s, d) = switch(2.0, rcs, rc);
        assert!((s - 0.5).abs() < 1e-15);
        assert!((d + 0.25).abs() < 1e-15);
    }

    #[test]
    fn switch_derivative_matches_fd() {
        let (rcs, rc) = (2.5, 4.0);
        for r in [1.0, 2.4, 2.6, 3.0, 3.5, 3.9] {
            let (_, d) = switch(r, rcs, rc);
            let h = 1e-7;
            let fd = (switch(r + h, rcs, rc).0 - switch(r - h, rcs, rc).0) / (2.0 * h);
            assert!((d - fd).abs() < 1e-6, "r={r}: {d} vs {fd}");
        }
    }

    fn toy_frame() -> Snapshot {
        Snapshot {
            cell: [12.0, 12.0, 12.0],
            types: vec![0, 1, 0, 1],
            type_names: vec!["A".into(), "B".into()],
            pos: vec![
                Vec3::new(1.0, 1.0, 1.0),
                Vec3::new(2.5, 1.0, 1.0),
                Vec3::new(1.0, 2.8, 1.2),
                Vec3::new(2.2, 2.2, 2.4),
            ],
            energy: 0.0,
            forces: vec![Vec3::ZERO; 4],
            temperature: 300.0,
        }
    }

    fn toy_cfg() -> ModelConfig {
        let mut cfg = ModelConfig::small(2, 4.0);
        cfg.rcut_smooth = 2.0;
        cfg
    }

    #[test]
    fn entries_are_grouped_by_type_and_cover_the_neighbour_list() {
        let (cfg, frame) = (toy_cfg(), toy_frame());
        let envs = build_envs(&cfg, &EnvStats::identity(2), &frame);
        assert_eq!((envs.n_atoms(), envs.n_types()), (4, 2));
        let cell = Cell::orthorhombic(12.0, 12.0, 12.0);
        let nl = NeighborList::build(&cell, &frame.pos, cfg.rcut);
        let mut end = 0;
        for i in 0..4 {
            let mut js = Vec::new();
            for t in 0..2 {
                let range = envs.range(i, t);
                assert_eq!(range.start, end, "atom {i} type {t} not contiguous");
                end = range.end;
                let of_t: Vec<usize> = envs.of(i, t).iter().map(|e| e.j).collect();
                assert!(of_t.iter().all(|&j| frame.types[j] == t));
                assert!(of_t.windows(2).all(|w| w[0] < w[1]), "not ascending within a type");
                js.extend(of_t);
            }
            js.sort_unstable();
            let want: Vec<usize> = nl.neighbors_of(i).iter().map(|nb| nb.j).collect();
            assert_eq!(js, want, "atom {i}");
        }
        assert_eq!(end, envs.entries().len());
    }

    #[test]
    fn non_centres_get_empty_ranges_and_centres_are_unchanged() {
        let (cfg, frame) = (toy_cfg(), toy_frame());
        let stats = EnvStats::identity(2);
        let all = build_envs(&cfg, &stats, &frame);
        let cell = Cell::orthorhombic(12.0, 12.0, 12.0);
        let centres = [true, false, false, true];
        let (mut some, mut nl) = (Envs::default(), NeighborList::default());
        some.rebuild(&cfg, &stats, &cell, &frame.types, &frame.pos, Some(&centres), &mut nl);
        for (i, &centre) in centres.iter().enumerate() {
            for t in 0..2 {
                if centre {
                    let bits = |e: &EnvEntry| (e.j, e.row.map(f64::to_bits), e.drow.map(|r| r.map(f64::to_bits)));
                    let a: Vec<_> = all.of(i, t).iter().map(bits).collect();
                    let b: Vec<_> = some.of(i, t).iter().map(bits).collect();
                    assert_eq!(a, b, "atom {i} type {t}");
                } else {
                    assert!(some.of(i, t).is_empty());
                }
            }
        }
    }

    #[test]
    fn row_derivatives_match_finite_difference() {
        let cfg = toy_cfg();
        let stats = EnvStats {
            mean_radial: vec![0.1, 0.05],
            std_radial: vec![0.5, 0.4],
            std_angular: vec![0.3, 0.35],
            n_scale: 4.0,
        };
        let frame = toy_frame();
        let envs = build_envs(&cfg, &stats, &frame);
        let h = 1e-6;
        // Perturb each neighbour atom and compare row changes.
        for i in 0..envs.n_atoms() {
            for entry in (0..2).flat_map(|t| envs.of(i, t)) {
                for a in 0..3 {
                    let mut fp = frame.clone();
                    fp.pos[entry.j].0[a] += h;
                    let mut fm = frame.clone();
                    fm.pos[entry.j].0[a] -= h;
                    let ep = build_envs(&cfg, &stats, &fp);
                    let em = build_envs(&cfg, &stats, &fm);
                    let find = |envs: &Envs| {
                        let t = frame.types[entry.j];
                        envs.of(i, t).iter().find(|e| e.j == entry.j).unwrap().row
                    };
                    let rp = find(&ep);
                    let rm = find(&em);
                    for c in 0..4 {
                        let fd = (rp[c] - rm[c]) / (2.0 * h);
                        assert!(
                            (fd - entry.drow[c][a]).abs() < 1e-5 * (1.0 + fd.abs()),
                            "atom {i} nb {} row[{c}] d[{a}]: {fd} vs {}",
                            entry.j,
                            entry.drow[c][a]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stats_scale_radial_column_to_unit_second_moment() {
        let cfg = toy_cfg();
        let mut ds = Dataset::new("toy", vec!["A".into(), "B".into()]);
        ds.push(toy_frame());
        let stats = EnvStats::compute(&cfg, &ds, 10);
        assert!(stats.n_scale >= 1.0);
        // The mean stays zero (smoothness at the cutoff) and the radial
        // second moment is normalized to ~1.
        assert!(stats.mean_radial.iter().all(|&m| m == 0.0));
        let envs = build_envs(&cfg, &stats, &ds.frames[0]);
        let acc2: f64 = envs.entries().iter().map(|e| e.row[0] * e.row[0]).sum();
        let rms = (acc2 / envs.entries().len() as f64).sqrt();
        assert!((rms - 1.0).abs() < 0.3, "radial rms after scaling = {rms}");
    }
}
