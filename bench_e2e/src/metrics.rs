//! The benchmark's contract: workload names, metric names with unit,
//! direction and regression bound. `BENCHMARK.json` at the repository
//! root is generated from these tables (`bench_e2e --emit-contract`)
//! and a unit test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)` for every workload.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "train_cu_small",
        "FEKF to a target RMSE on Cu (108 atoms), small net, bs 16, one device: gradient-bound, optimizer and comm idle",
    ),
    (
        "train_water_dp2",
        "FEKF to a target RMSE on H2O (4 embedding nets), bs 8 on 2 devices: P update and ring allreduce on the path",
    ),
    (
        "online_cu",
        "Figure 1 loop: 400/600/800 K shards arrive, retrain, fit tiers, publish, first response by the new version, beside a 50 req/s reader",
    ),
    (
        "fleet_open",
        "2-shard fleet, 3 tiered models, 2 tenants, open loop at three fixed rates then a 16-deep closed window: batching, admission, routing",
    ),
    (
        "md_served",
        "NVE MD whose every force call crosses a Unix socket to a 1-shard fleet: latency-bound, every geometry new, cache never hits",
    ),
    (
        "md_domain",
        "domain-decomposed NVE MD of a 3888-atom Cu supercell on a 2x1x1 grid with the deep potential: halo, migrate, ghost recompute",
    ),
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: `(name, unit, direction, bound)`; the bound
/// is the share of the parent's median by which the metric may worsen.
///
/// Every metric is reported by every workload, so a bound has to hold
/// on the noisiest of them. The reference box is a shared 2-vCPU VM
/// whose speed drifts: ten runs of one commit spread (first to third
/// quartile, over the median) by 2-7 % while the box is quiet and by
/// up to 30 % for whichever workload is running when it is not. A
/// tenth, as the issue hoped for, would reject the benchmark against
/// itself (peak RSS, too, lands 12 % apart depending on when the pool's
/// threads first allocate); every bound is therefore the widest the
/// contract allows, and README.md lists the spreads actually seen so a reader
/// knows the resolution.
pub const END_TO_END: [(&str, &str, Better, f64); 9] = [
    ("setup_s", "s", Lower, 0.25),
    ("tta_s", "s", Lower, 0.25),
    ("train_frames_per_s", "1/s", Higher, 0.25),
    ("arrival_to_served_s", "s", Lower, 0.25),
    ("lat_p50_ms", "ms", Lower, 0.25),
    ("lat_p99_ms", "ms", Lower, 0.25),
    ("slo_goodput_rps", "1/s", Higher, 0.25),
    ("md_ns_per_day", "ns/day", Higher, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics of the traced run: `(name, unit, direction)`. A
/// workload that never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str, Better); 74] = [
    // deepmd-core
    ("core.env_build_us", "us", Lower),
    ("core.env_cache_hit_rate", "ratio", Higher),
    ("core.env_cache_misses", "count", Lower),
    ("core.forward_us", "us", Lower),
    ("core.forces_us", "us", Lower),
    ("core.grad_energy_us", "us", Lower),
    ("core.grad_force_us", "us", Lower),
    ("core.compress_s", "s", Lower),
    ("core.quantize_s", "s", Lower),
    ("core.model_bytes", "B", Lower),
    // dp-train
    ("train.iters_to_target", "count", Lower),
    ("train.iter_ms", "ms", Lower),
    ("train.forward_share", "ratio", Lower),
    ("train.gradient_share", "ratio", Lower),
    ("train.optimizer_share", "ratio", Lower),
    ("train.other_s", "s", Lower),
    ("train.model_gap", "ratio", Lower),
    ("train.heldout_rmse", "eV", Lower),
    // dp-optim
    ("optim.kf_step_ms", "ms", Lower),
    ("optim.p_bytes", "B", Lower),
    ("optim.kf_flops_per_step", "count", Lower),
    ("optim.kf_gflops", "GFLOP/s", Higher),
    // dp-parallel
    ("parallel.allreduce_ms", "ms", Lower),
    ("parallel.bytes_per_iter", "B", Lower),
    ("parallel.calls_per_iter", "count", Lower),
    // dp-train::online and the publish hook
    ("online.eval_s", "s", Lower),
    ("online.retrain_s", "s", Lower),
    ("online.stage_sum_gap", "ratio", Lower),
    ("serve.publish_ms", "ms", Lower),
    ("serve.first_served_ms", "ms", Lower),
    // dp-serve engine
    ("serve.direct_eval_us", "us", Lower),
    ("serve.overhead_us", "us", Lower),
    ("serve.submit_us", "us", Lower),
    ("serve.mean_batch", "count", Higher),
    ("serve.max_depth", "count", Lower),
    ("serve.shed", "count", Lower),
    ("serve.deadline_miss", "count", Lower),
    ("serve.degraded", "count", Lower),
    // the latency-vs-rate curve
    ("serve.rate_lo.p50_ms", "ms", Lower),
    ("serve.rate_lo.p99_ms", "ms", Lower),
    ("serve.rate_lo.ok", "count", Higher),
    ("serve.rate_lo.failed", "count", Lower),
    ("serve.rate_mid.p50_ms", "ms", Lower),
    ("serve.rate_mid.p99_ms", "ms", Lower),
    ("serve.rate_mid.ok", "count", Higher),
    ("serve.rate_mid.failed", "count", Lower),
    ("serve.rate_hi.p50_ms", "ms", Lower),
    ("serve.rate_hi.p99_ms", "ms", Lower),
    ("serve.rate_hi.ok", "count", Higher),
    ("serve.rate_hi.failed", "count", Lower),
    ("serve.slo_rate_rps", "1/s", Higher),
    ("tenant.interactive_p99_ms", "ms", Lower),
    ("tenant.bulk_p99_ms", "ms", Lower),
    ("gen.lateness_p99_us", "us", Lower),
    // dp-serve wire
    ("wire.encode_infer_us", "us", Lower),
    ("wire.decode_us", "us", Lower),
    ("wire.frame_bytes", "B", Lower),
    ("wire.uds_rtt_us", "us", Lower),
    ("wire.call_us", "us", Lower),
    // dp-mdsim and the MD client
    ("mdsim.neighbor_build_ms", "ms", Lower),
    ("md.client_self_ms", "ms", Lower),
    // dp-domain
    ("domain.step_ms", "ms", Lower),
    ("domain.compute_ms", "ms", Lower),
    ("domain.non_compute_ms", "ms", Lower),
    ("domain.ghost_ratio", "ratio", Lower),
    ("domain.imbalance", "ratio", Lower),
    ("domain.single_step_ms", "ms", Lower),
    ("domain.grid_speedup", "ratio", Higher),
    // set-up and context
    ("data.generate_s", "s", Lower),
    ("pool.parallel_for_empty_us", "us", Lower),
    ("tensor.gemm_128_gflops", "GFLOP/s", Higher),
    // the trace itself
    ("trace.overhead_frac", "ratio", Lower),
    ("trace.coverage", "ratio", Higher),
    ("trace.spans", "count", Lower),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// Per-layer values of one traced run, keyed by the names of
/// [`PER_LAYER`]; unset names read 0.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    /// Record `name`. Panics on a name outside [`PER_LAYER`]: a typo
    /// must not silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "'{name}' is not a per-layer metric of the contract"
        );
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)
    }
}

/// The nine end-to-end values of one untraced run.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub tta_s: f64,
    pub train_frames_per_s: f64,
    pub arrival_to_served_s: f64,
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    pub slo_goodput_rps: f64,
    pub md_ns_per_day: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Values in the order of [`END_TO_END`].
    pub fn values(&self) -> [f64; 9] {
        [
            self.setup_s,
            self.tta_s,
            self.train_frames_per_s,
            self.arrival_to_served_s,
            self.lat_p50_ms,
            self.lat_p99_ms,
            self.slo_goodput_rps,
            self.md_ns_per_day,
            self.peak_rss_mb,
        ]
    }
}

fn metric_object(value: f64, unit: &str) -> Json {
    Json::Object(vec![
        ("value".into(), Json::Number(value)),
        ("unit".into(), Json::String(unit.into())),
    ])
}

/// `{name: {value, unit}}` for the end-to-end metrics.
pub fn end_to_end_json(e: &EndToEnd) -> Json {
    Json::Object(
        END_TO_END
            .iter()
            .zip(e.values())
            .map(|(m, v)| (m.0.to_string(), metric_object(v, m.1)))
            .collect(),
    )
}

/// `{name: {value, unit}}` for every per-layer metric.
pub fn per_layer_json(l: &Layers) -> Json {
    Json::Object(
        PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), metric_object(l.get(m.0), m.1)))
            .collect(),
    )
}

/// The text of `BENCHMARK.json`.
pub fn contract_json() -> String {
    let strings =
        |items: &[&str]| Json::Array(items.iter().map(|s| Json::String((*s).into())).collect());
    let doc = Json::Object(vec![
        (
            "command".into(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "bench_e2e/Cargo.toml",
                "--bin",
                "bench_e2e",
                "--",
            ]),
        ),
        ("paths".into(), strings(&["bench_e2e"])),
        ("run_seconds".into(), Json::Number(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Object(vec![
                            ("name".into(), Json::String(w.0.into())),
                            ("why".into(), Json::String(w.1.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Object(vec![
                            ("name".into(), Json::String(m.0.into())),
                            ("unit".into(), Json::String(m.1.into())),
                            ("better".into(), Json::String(m.2.as_str().into())),
                            ("bound".into(), Json::Number(m.3)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Object(vec![
                            ("name".into(), Json::String(m.0.into())),
                            ("unit".into(), Json::String(m.1.into())),
                            ("better".into(), Json::String(m.2.as_str().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_contract_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            contract_json(),
            "BENCHMARK.json is stale: regenerate it with `bench_e2e --emit-contract`"
        );
    }

    #[test]
    fn names_and_units_meet_the_contract_limits() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        for (name, unit, _, bound) in END_TO_END {
            assert!(name_ok(name) && seen.insert(name), "metric name {name}");
            assert!(unit_ok(unit), "unit of {name}");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {name}");
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && seen.insert(name), "metric name {name}");
            assert!(unit_ok(unit), "unit of {name}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Better::Lower));
        assert!(contract_json().len() <= 64 * 1024);
    }
}
