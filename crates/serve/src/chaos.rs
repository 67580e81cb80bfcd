//! Deterministic chaos injection for the serving + online-learning
//! loop (DESIGN §12.6): every decision is a pure function of
//! `(seed, index, kind)`, so a failing soak replays bit-for-bit from
//! its printed seed.
//!
//! Four fault classes, matching where a real serving deployment
//! breaks:
//!
//! * **dispatcher stalls** — the engine sleeps before dispatching a
//!   batch (GC pause / noisy neighbor / page fault on the hot path);
//!   queues must absorb the burst without growing past capacity.
//! * **poisoned requests** — a request whose evaluation fails
//!   ([`crate::ServeError::EvalFailed`]); repeated ones exercise the
//!   circuit breaker.
//! * **slow clients** — a client that sleeps mid-schedule (the
//!   open-loop soak uses this; the engine must not care).
//! * **corrupted / poisoned publishes** — a publish whose bytes are
//!   corrupted (must be rejected by `model_io` validation, registry
//!   stays on the last-good version) or whose weights are non-finite
//!   (passes config validation, then fails evaluation — the breaker's
//!   job).
//!
//! Production code passes [`ChaosPlan::none`]; the soak harness and
//! tests dial probabilities up.

use std::time::Duration;

/// Seeded description of the faults to inject into a serving run.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    /// Probability the dispatcher stalls before dispatching a batch.
    pub stall_prob: f64,
    /// Length of one dispatcher stall.
    pub stall: Duration,
    /// Probability a given request is poisoned (its evaluation fails
    /// with a typed error instead of producing numbers).
    pub poison_prob: f64,
    /// Probability a client pauses before one of its submissions.
    pub slow_client_prob: f64,
    /// Length of one client pause.
    pub slow_client: Duration,
    /// Probability a publish's serialized bytes are corrupted (one
    /// flipped bit — `model_io`'s CRC must reject it).
    pub corrupt_publish_prob: f64,
    /// Probability a publish carries non-finite weights (passes config
    /// validation, fails evaluation — trips the breaker).
    pub poison_publish_prob: f64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::none()
    }
}

/// SplitMix64 finalizer — a cheap, well-mixed hash.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosPlan {
    /// No chaos.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            stall_prob: 0.0,
            stall: Duration::ZERO,
            poison_prob: 0.0,
            slow_client_prob: 0.0,
            slow_client: Duration::ZERO,
            corrupt_publish_prob: 0.0,
            poison_publish_prob: 0.0,
        }
    }

    /// Whether this plan injects anything at all.
    pub fn is_none(&self) -> bool {
        self.stall_prob == 0.0
            && self.poison_prob == 0.0
            && self.slow_client_prob == 0.0
            && self.corrupt_publish_prob == 0.0
            && self.poison_publish_prob == 0.0
    }

    /// Uniform draw in `[0, 1)` keyed by the decision coordinates.
    fn roll(&self, index: u64, kind: u64) -> f64 {
        let key = self
            .seed
            .wrapping_mul(0x517C_C1B7_2722_0A95)
            .wrapping_add(index << 8)
            .wrapping_add(kind);
        (splitmix(key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should the dispatcher stall before batch `batch_idx`?
    pub fn stalls(&self, batch_idx: u64) -> bool {
        self.stall_prob > 0.0 && self.roll(batch_idx, 1) < self.stall_prob
    }

    /// Is the `req_idx`-th dispatched request poisoned?
    pub fn poisons(&self, req_idx: u64) -> bool {
        self.poison_prob > 0.0 && self.roll(req_idx, 2) < self.poison_prob
    }

    /// Pause for client `client` before its `i`-th submission, if any.
    pub fn client_pause(&self, client: u64, i: u64) -> Option<Duration> {
        (self.slow_client_prob > 0.0
            && self.roll(client.wrapping_mul(0x1_0001).wrapping_add(i), 3) < self.slow_client_prob)
            .then_some(self.slow_client)
    }

    /// Should publish number `stage` have its bytes corrupted?
    pub fn corrupts_publish(&self, stage: u64) -> bool {
        self.corrupt_publish_prob > 0.0 && self.roll(stage, 4) < self.corrupt_publish_prob
    }

    /// Should publish number `stage` carry poisoned (non-finite)
    /// weights instead?
    pub fn poisons_publish(&self, stage: u64) -> bool {
        self.poison_publish_prob > 0.0 && self.roll(stage, 5) < self.poison_publish_prob
    }

    /// Deterministically flip one bit of a serialized model, keyed by
    /// `stage` — past the header so the corruption lands in the payload
    /// the CRC covers.
    pub fn corrupt_bytes(&self, bytes: &mut [u8], stage: u64) {
        if bytes.is_empty() {
            return;
        }
        let lo = bytes.len() / 4;
        let span = (bytes.len() - lo).max(1);
        let at = lo + (splitmix(self.seed ^ (stage << 17) ^ 0xC0DE) as usize) % span;
        bytes[at.min(bytes.len() - 1)] ^= 1 << (splitmix(self.seed ^ stage) % 8) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let p = ChaosPlan {
            seed: 42,
            stall_prob: 0.3,
            poison_prob: 0.3,
            slow_client_prob: 0.3,
            corrupt_publish_prob: 0.5,
            poison_publish_prob: 0.5,
            ..ChaosPlan::none()
        };
        for i in 0..64 {
            assert_eq!(p.stalls(i), p.stalls(i));
            assert_eq!(p.poisons(i), p.poisons(i));
            assert_eq!(p.client_pause(3, i), p.client_pause(3, i));
            assert_eq!(p.corrupts_publish(i), p.corrupts_publish(i));
            assert_eq!(p.poisons_publish(i), p.poisons_publish(i));
        }
    }

    #[test]
    fn rates_track_probabilities() {
        let p = ChaosPlan { seed: 7, poison_prob: 0.25, ..ChaosPlan::none() };
        let trials = 4000;
        let hits = (0..trials).filter(|&i| p.poisons(i)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.05, "observed poison rate {rate}");
    }

    #[test]
    fn none_injects_nothing() {
        let p = ChaosPlan::none();
        assert!(p.is_none());
        assert!(!p.stalls(0));
        assert!(!p.poisons(9));
        assert!(p.client_pause(0, 0).is_none());
        assert!(!p.corrupts_publish(1));
        assert!(!p.poisons_publish(1));
    }

    #[test]
    fn corrupt_bytes_flips_exactly_one_bit_deterministically() {
        let p = ChaosPlan { seed: 99, corrupt_publish_prob: 1.0, ..ChaosPlan::none() };
        let clean: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
        let mut a = clean.clone();
        let mut b = clean.clone();
        p.corrupt_bytes(&mut a, 5);
        p.corrupt_bytes(&mut b, 5);
        assert_eq!(a, b, "same stage corrupts the same bit");
        let flipped: u32 = clean
            .iter()
            .zip(&a)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        let mut c = clean.clone();
        p.corrupt_bytes(&mut c, 6);
        assert!(c != a || a == clean, "different stages may corrupt differently");
    }
}
