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
use dp_mdsim::neighbor::NeighborList;

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

/// One neighbour's contribution to an atom's environment.
#[derive(Clone, Debug)]
pub struct EnvEntry {
    /// Neighbour atom index.
    pub j: usize,
    /// Neighbour type id.
    pub tj: usize,
    /// Normalized environment row `[s̃, s̃x̂, s̃ŷ, s̃ẑ]`.
    pub row: [f64; 4],
    /// Derivative of the (normalized) row with respect to the neighbour
    /// position `r_j`: `drow[c][a] = ∂row[c]/∂(r_j)_a`. The derivative
    /// with respect to `r_i` is the negative.
    pub drow: [[f64; 3]; 4],
}

/// Environment of one atom: typed, type-sorted neighbour entries.
#[derive(Clone, Debug, Default)]
pub struct AtomEnv {
    /// Entries sorted by neighbour type (stable within a type).
    pub entries: Vec<EnvEntry>,
    /// Half-open entry ranges per neighbour type.
    pub type_ranges: Vec<(usize, usize)>,
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
        for frame in data.frames.iter().take(max_frames.max(1)) {
            let cell = Cell::orthorhombic(frame.cell[0], frame.cell[1], frame.cell[2]);
            let nl = NeighborList::build(&cell, &frame.pos, cfg.rcut);
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

/// Build the typed environments of every atom in a frame.
pub fn build_envs(cfg: &ModelConfig, stats: &EnvStats, frame: &Snapshot) -> Vec<AtomEnv> {
    let cell = Cell::orthorhombic(frame.cell[0], frame.cell[1], frame.cell[2]);
    build_envs_of(cfg, stats, &cell, &frame.types, &frame.pos, None)
}

/// [`build_envs`] on borrowed geometry, for the atoms flagged in
/// `centres` only (all, when `None`); the others — ghosts of an MD
/// domain that only serve as neighbours — get an empty environment.
/// A centre's environment does not depend on which other atoms are
/// centres.
pub fn build_envs_of(
    cfg: &ModelConfig,
    stats: &EnvStats,
    cell: &Cell,
    types: &[usize],
    pos: &[dp_mdsim::Vec3],
    centres: Option<&[bool]>,
) -> Vec<AtomEnv> {
    let nl = NeighborList::build(cell, pos, cfg.rcut);
    let n = types.len();
    let mut envs = Vec::with_capacity(n);
    for i in 0..n {
        if centres.is_some_and(|c| !c[i]) {
            envs.push(AtomEnv::default());
            continue;
        }
        let ti = types[i];
        let inv_std_r = 1.0 / stats.std_radial[ti];
        let mean_r = stats.mean_radial[ti];
        let inv_std_a = 1.0 / stats.std_angular[ti];
        let mut entries: Vec<EnvEntry> = nl
            .neighbors_of(i)
            .iter()
            .map(|nb| {
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
                EnvEntry { j: nb.j, tj: types[nb.j], row, drow }
            })
            .collect();
        entries.sort_by_key(|e| e.tj);
        // Type ranges.
        let mut type_ranges = vec![(0usize, 0usize); cfg.n_types];
        let mut start = 0;
        for (t, range) in type_ranges.iter_mut().enumerate() {
            let end = start + entries[start..].iter().take_while(|e| e.tj == t).count();
            *range = (start, end);
            start = end;
        }
        envs.push(AtomEnv { entries, type_ranges });
    }
    envs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mdsim::Vec3;

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
    fn entries_are_sorted_by_type_with_correct_ranges() {
        let cfg = toy_cfg();
        let stats = EnvStats::identity(2);
        let envs = build_envs(&cfg, &stats, &toy_frame());
        for env in &envs {
            for w in env.entries.windows(2) {
                assert!(w[0].tj <= w[1].tj, "entries not type-sorted");
            }
            let mut covered = 0;
            for (t, &(a, b)) in env.type_ranges.iter().enumerate() {
                assert!(env.entries[a..b].iter().all(|e| e.tj == t));
                covered += b - a;
            }
            assert_eq!(covered, env.entries.len());
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
        for (i, env) in envs.iter().enumerate() {
            for entry in &env.entries {
                for a in 0..3 {
                    let mut fp = frame.clone();
                    fp.pos[entry.j].0[a] += h;
                    let mut fm = frame.clone();
                    fm.pos[entry.j].0[a] -= h;
                    let ep = build_envs(&cfg, &stats, &fp);
                    let em = build_envs(&cfg, &stats, &fm);
                    let find = |envs: &Vec<AtomEnv>| {
                        envs[i]
                            .entries
                            .iter()
                            .find(|e| e.j == entry.j)
                            .unwrap()
                            .row
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
        let mut acc2 = 0.0;
        let mut n = 0;
        for env in &envs {
            for e in &env.entries {
                acc2 += e.row[0] * e.row[0];
                n += 1;
            }
        }
        let rms = (acc2 / n as f64).sqrt();
        assert!((rms - 1.0).abs() < 0.3, "radial rms after scaling = {rms}");
    }
}
