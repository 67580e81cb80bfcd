//! Open-loop pacing: arrival times are fixed by the seed before the
//! run, the generator sleeps then spins to each one, and latency is
//! taken from the due time — a stall delays every later request and
//! the measurement shows it.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// One scheduled request of the open-loop phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the phase epoch at which the request is due.
    pub due_ns: u64,
    /// Index into the workload's model list.
    pub model: usize,
    /// Index into that model's frame pool.
    pub frame: usize,
    /// Bulk tenant (energy only, bulk lane) or interactive (forces).
    pub bulk: bool,
}

/// Poisson arrivals at `rate_rps` for `duration_s`, each drawing its
/// model, frame and tenant from `rng`. Independent users make
/// exponential gaps; the sequence is a pure function of the generator
/// state, so one seed gives one schedule.
pub fn poisson_schedule(
    rng: &mut ChaCha8Rng,
    rate_rps: f64,
    duration_s: f64,
    n_models: usize,
    frames_per_model: usize,
) -> Vec<Arrival> {
    assert!(rate_rps > 0.0 && duration_s > 0.0);
    let mean_gap_ns = 1e9 / rate_rps;
    let end_ns = (duration_s * 1e9) as u64;
    let mut out = Vec::with_capacity((rate_rps * duration_s * 1.2) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() * mean_gap_ns;
        if t as u64 >= end_ns {
            return out;
        }
        out.push(Arrival {
            due_ns: t as u64,
            model: rng.gen_range(0..n_models),
            frame: rng.gen_range(0..frames_per_model),
            bulk: rng.gen_range(0..2) == 1,
        });
    }
}

/// The generator sleeps until this long before a due time, then spins:
/// `thread::sleep` alone overshoots by tens of microseconds.
const SPIN: Duration = Duration::from_micros(150);

/// Block until `due_ns` after `epoch`; returns how late the release
/// was, ns (0 when the due time had not yet passed on entry).
pub fn wait_until(epoch: Instant, due_ns: u64) -> u64 {
    let due = epoch + Duration::from_nanos(due_ns);
    let now = Instant::now();
    if now >= due {
        return (now - due).as_nanos() as u64;
    }
    if due - now > SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    loop {
        let now = Instant::now();
        if now >= due {
            return (now - due).as_nanos() as u64;
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_schedule() {
        let make = |seed| poisson_schedule(&mut ChaCha8Rng::seed_from_u64(seed), 500.0, 2.0, 3, 64);
        let a = make(11);
        assert_eq!(a, make(11));
        assert_ne!(a, make(12));
        // ~1000 arrivals, ordered, inside the window, using every model
        // and both tenants.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 2_000_000_000);
        for m in 0..3 {
            assert!(a.iter().any(|r| r.model == m));
        }
        assert!(a.iter().any(|r| r.bulk) && a.iter().any(|r| !r.bulk));
        assert!(a.iter().all(|r| r.frame < 64));
    }

    #[test]
    fn wait_until_releases_at_or_after_the_due_time() {
        let epoch = Instant::now();
        let late = wait_until(epoch, 2_000_000);
        assert!(epoch.elapsed() >= Duration::from_millis(2));
        assert!(late < 5_000_000, "released {late} ns late");
        // A due time already past reports its lateness and returns.
        assert!(wait_until(epoch, 0) >= 2_000_000);
    }
}
