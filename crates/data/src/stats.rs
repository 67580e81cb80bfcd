//! Per-type energy-bias fitting.
//!
//! DeePMD does not fit raw total energies: a per-type atomic reference
//! energy (the "energy bias") is removed first so the network only has
//! to learn the configuration-dependent residual. The bias is the
//! least-squares solution of `Σ_t count_t(frame) · b_t ≈ E(frame)` over
//! the training frames — a tiny `n_types × n_types` normal-equation
//! system solved by Gaussian elimination with partial pivoting.

use crate::dataset::Dataset;

/// Per-type energy bias (eV/atom of that type).
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyBias {
    /// Bias per type id.
    pub per_type: Vec<f64>,
}

impl EnergyBias {
    /// Fit from a training set.
    pub fn fit(train: &Dataset) -> Self {
        let nt = train.n_types();
        assert!(nt > 0, "EnergyBias::fit: no types");
        assert!(!train.is_empty(), "EnergyBias::fit: empty dataset");
        // Normal equations AᵀA b = Aᵀy with A[frame][type] = count.
        let mut ata = vec![vec![0.0; nt]; nt];
        let mut aty = vec![0.0; nt];
        for f in &train.frames {
            let mut counts = vec![0.0; nt];
            for &t in &f.types {
                counts[t] += 1.0;
            }
            for i in 0..nt {
                aty[i] += counts[i] * f.energy;
                for j in 0..nt {
                    ata[i][j] += counts[i] * counts[j];
                }
            }
        }
        // Ridge term for singular cases (e.g. fixed stoichiometry makes
        // counts collinear across frames).
        for (i, row) in ata.iter_mut().enumerate() {
            row[i] += 1e-9;
            let _ = i;
        }
        let per_type = solve(ata, aty);
        EnergyBias { per_type }
    }

    /// Reference energy of a frame: `Σ_t count_t · b_t`.
    pub fn reference_energy(&self, types: &[usize]) -> f64 {
        types.iter().map(|&t| self.per_type[t]).sum()
    }

    /// Residual label the network trains on.
    pub fn residual(&self, energy: f64, types: &[usize]) -> f64 {
        energy - self.reference_energy(types)
    }
}

/// Solve `A x = y` by Gaussian elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut y: Vec<f64>) -> Vec<f64> {
    let n = y.len();
    for col in 0..n {
        // Pivot.
        let piv = (col..n)
            .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
            .unwrap();
        a.swap(col, piv);
        y.swap(col, piv);
        let diag = a[col][col];
        assert!(diag.abs() > 1e-300, "singular bias system");
        for row in (col + 1)..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            // `row > col`, so the pivot row sits in the head split.
            let (head, tail) = a.split_at_mut(row);
            for (t, p) in tail[0][col..].iter_mut().zip(&head[col][col..]) {
                *t -= factor * p;
            }
            y[row] -= factor * y[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = y[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Snapshot;
    use dp_mdsim::Vec3;

    fn frame(types: Vec<usize>, energy: f64) -> Snapshot {
        let n = types.len();
        Snapshot {
            cell: [10.0; 3],
            types,
            type_names: vec!["A".into(), "B".into()],
            pos: vec![Vec3::ZERO; n],
            energy,
            forces: vec![Vec3::ZERO; n],
            temperature: 300.0,
        }
    }

    #[test]
    fn recovers_exact_linear_bias() {
        // E = 2·(#A) − 3·(#B), varying stoichiometry.
        let mut d = Dataset::new("t", vec!["A".into(), "B".into()]);
        d.push(frame(vec![0, 0, 1], 2.0 * 2.0 - 3.0));
        d.push(frame(vec![0, 1, 1], 2.0 - 6.0));
        d.push(frame(vec![0, 0, 0, 1], 6.0 - 3.0));
        let bias = EnergyBias::fit(&d);
        assert!((bias.per_type[0] - 2.0).abs() < 1e-6);
        assert!((bias.per_type[1] + 3.0).abs() < 1e-6);
        assert!(bias.residual(d.frames[0].energy, &d.frames[0].types).abs() < 1e-6);
    }

    #[test]
    fn fixed_stoichiometry_still_produces_finite_bias() {
        // Every frame 2×A + 2×B: counts are collinear, the ridge term
        // keeps the solve well-posed and residuals near zero.
        let mut d = Dataset::new("t", vec!["A".into(), "B".into()]);
        for e in [-8.0, -8.1, -7.9] {
            d.push(frame(vec![0, 0, 1, 1], e));
        }
        let bias = EnergyBias::fit(&d);
        assert!(bias.per_type.iter().all(|b| b.is_finite()));
        let r = bias.residual(-8.0, &[0, 0, 1, 1]);
        assert!(r.abs() < 0.2, "residual {r} should be near zero");
    }

    #[test]
    fn single_type_bias_is_mean_energy_per_atom() {
        let mut d = Dataset::new("t", vec!["A".into()]);
        d.push(frame(vec![0, 0], -4.0));
        d.push(frame(vec![0, 0], -4.4));
        let bias = EnergyBias::fit(&d);
        assert!((bias.per_type[0] + 2.1).abs() < 1e-9);
    }
}
