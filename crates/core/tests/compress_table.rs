//! Edge-case coverage for the spline-tabulated embedding path:
//! domain boundaries (`r` at `r_cs`, `r_c`, below `r_min`, near 0),
//! knot-boundary hits, and a property test pinning the table's
//! analytic derivative to a finite difference of the table's value.

use deepmd_core::compress::{CompressSpec, CompressedModel};
use deepmd_core::config::ModelConfig;
use deepmd_core::env::switch;
use deepmd_core::mlp::Tape;
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::{Dataset, Snapshot};
use dp_mdsim::lattice::{rocksalt, Species};
use dp_mdsim::Vec3;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn toy_frame(seed: u64) -> Snapshot {
    let mut s = rocksalt(Species::new("A", 20.0), Species::new("B", 30.0), 4.4, [1, 1, 1]);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    s.jitter_positions(0.25, &mut rng);
    Snapshot {
        cell: s.cell.lengths(),
        types: s.types.clone(),
        type_names: s.type_names.clone(),
        pos: s.pos.clone(),
        energy: -10.0,
        forces: vec![Vec3::ZERO; s.n_atoms()],
        temperature: 300.0,
    }
}

fn toy_model(seed: u64) -> DeepPotModel {
    let mut cfg = ModelConfig::small(2, 2.1);
    cfg.rcut_smooth = 1.2;
    cfg.seed = seed;
    let mut ds = Dataset::new("toy", vec!["A".into(), "B".into()]);
    ds.push(toy_frame(1));
    ds.push(toy_frame(2));
    DeepPotModel::new(cfg, &ds)
}

fn toy_compressed(seed: u64) -> (DeepPotModel, CompressedModel) {
    let model = toy_model(seed);
    let comp = CompressedModel::compress(&model, &CompressSpec::default()).unwrap();
    (model, comp)
}

/// Map a radial distance to the normalized embedding input `s̃` for
/// centre type `ti`, exactly as `EnvEntry::row[0]` does.
fn s_tilde(model: &DeepPotModel, ti: usize, r: f64) -> f64 {
    let (s, _) = switch(r, model.cfg.rcut_smooth, model.cfg.rcut);
    (s - model.stats.mean_radial[ti]) * (1.0 / model.stats.std_radial[ti])
}

#[test]
fn r_at_the_cutoff_maps_to_the_left_table_edge() {
    let (model, comp) = toy_compressed(7);
    // s(r_c) = 0 exactly, and the radial mean is pinned at zero, so
    // the normalized input lands exactly on x_lo = 0: the zero row a
    // vanished neighbour must contribute.
    let x = s_tilde(&model, 0, model.cfg.rcut);
    let table = &comp.tables[0];
    assert_eq!(x, table.x_lo);
    assert_eq!(x, 0.0);
    assert!(table.covers(x));
    let mut row = vec![0.0; table.m];
    table.eval_into(x, &mut row);
    // t = 0: bitwise the first knot row, which is the exact net at 0.
    assert_eq!(row.as_slice(), table.values.row(0));
}

#[test]
fn r_exactly_at_rcs_and_rc_are_inside_the_domain() {
    let (model, comp) = toy_compressed(8);
    for ti in 0..2 {
        for r in [model.cfg.rcut_smooth, model.cfg.rcut] {
            let x = s_tilde(&model, ti, r);
            for tj in 0..2 {
                let table = &comp.tables[ti * 2 + tj];
                assert!(
                    table.covers(x) && x >= table.x_lo,
                    "type ({ti},{tj}), r = {r}: x = {x} outside [{}, {}]",
                    table.x_lo,
                    table.x_hi
                );
                // Interpolated value matches the exact net within the
                // model's own fitted-error report.
                let mut row = vec![0.0; table.m];
                table.eval_into(x, &mut row);
                let net = &comp.embeddings[ti * 2 + tj];
                let mut tape = Tape::default();
                tape.prepare(net, 1);
                net.forward_rows(dp_tensor::backend::active(), &[x], &mut tape, 0, 1);
                let budget = comp.report.max_value_err() + 1e-12;
                for (a, &b) in row.iter().zip(tape.output()) {
                    assert!((a - b).abs() <= budget, "{a} vs {b} (budget {budget})");
                }
            }
        }
    }
}

#[test]
fn r_near_zero_is_right_of_the_domain_and_falls_back() {
    let (model, comp) = toy_compressed(9);
    // r → 0 sends s̃ → ∞; anything closer than r_min must be outside
    // the table and handled by the exact net.
    for r in [0.01, 0.1, 0.3, 0.59] {
        let x = s_tilde(&model, 0, r);
        assert!(
            !comp.tables[0].covers(x),
            "r = {r} (x = {x}) should be right of x_hi = {}",
            comp.tables[0].x_hi
        );
    }
    // A frame with a pair closer than r_min: the fallback makes the
    // compressed energy agree with the master to f64 noise (the only
    // neighbour is evaluated by the same exact net on both paths).
    let frame = Snapshot {
        cell: [10.0, 10.0, 10.0],
        types: vec![0, 1],
        type_names: vec!["A".into(), "B".into()],
        pos: vec![Vec3([1.0, 1.0, 1.0]), Vec3([1.3, 1.0, 1.0])],
        energy: 0.0,
        forces: vec![Vec3::ZERO; 2],
        temperature: 300.0,
    };
    let e_master = model.forward(&frame).energy;
    let e_comp = comp.forward(&frame).energy;
    assert!(e_comp.is_finite());
    assert!((e_master - e_comp).abs() < 1e-10, "{e_master} vs {e_comp}");
    // Forces stay analytic through the fallback too.
    let fm = model.predict(&frame).forces;
    let fc = comp.predict(&frame).forces;
    for (a, b) in fm.iter().zip(&fc) {
        for c in 0..3 {
            assert!((a.0[c] - b.0[c]).abs() < 1e-9);
        }
    }
}

#[test]
fn knot_boundary_hits_reproduce_the_knot_rows() {
    let (_, comp) = toy_compressed(10);
    let table = &comp.tables[3];
    let mut row = vec![0.0; table.m];
    for k in [0usize, 1, 7, table.n_bins / 2, table.n_bins - 1, table.n_bins] {
        // The same expression the builder used for knot k.
        let x = table.x_lo + k as f64 * table.h;
        table.eval_into(x.min(table.x_hi), &mut row);
        for (a, &b) in row.iter().zip(table.values.row(k)) {
            // x may round a half-ulp off the knot; the interpolant is
            // continuous, so the value is the knot row to f64 noise
            // (and bitwise at k = 0, where x = 0 is exact).
            assert!((a - b).abs() < 1e-12, "knot {k}: {a} vs {b}");
        }
    }
    assert_eq!(
        {
            table.eval_into(table.x_lo, &mut row);
            row.clone()
        },
        table.values.row(0).to_vec()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analytic table derivative is the derivative of the table
    /// value: a central difference of `eval_into` reproduces
    /// `eval_deriv_into` to 1e-8. (The step stays inside one bin —
    /// the interpolant is C¹ but not C² across knots.)
    #[test]
    fn table_derivative_matches_finite_difference(
        pair in 0usize..4,
        bin_f in 0.0f64..1.0,
        t in 0.02f64..0.98,
    ) {
        let (_, comp) = toy_compressed(11);
        let table = &comp.tables[pair];
        let bin = ((bin_f * table.n_bins as f64) as usize).min(table.n_bins - 1);
        let x = table.x_lo + (bin as f64 + t) * table.h;
        let delta = 1e-6;
        prop_assume!(x - delta > table.x_lo + bin as f64 * table.h);
        prop_assume!(x + delta < table.x_lo + (bin as f64 + 1.0) * table.h);
        let mut lo = vec![0.0; table.m];
        let mut hi = vec![0.0; table.m];
        let mut an = vec![0.0; table.m];
        table.eval_into(x - delta, &mut lo);
        table.eval_into(x + delta, &mut hi);
        table.eval_deriv_into(x, &mut an);
        for j in 0..table.m {
            let fd = (hi[j] - lo[j]) / (2.0 * delta);
            prop_assert!(
                (fd - an[j]).abs() <= 1e-8 * (1.0 + fd.abs()),
                "output {}: fd {} vs analytic {}", j, fd, an[j]
            );
        }
    }
}
