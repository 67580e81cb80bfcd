//! Zero-copy binary wire protocol for the serving fleet.
//!
//! Every frame is a DPWF record of `dp_tensor::wire` (`u16` version 1,
//! CRC-32 trailer; the header, CRC and end checks live there) whose
//! body is a frame-type byte and the type-specific payload. Decoding
//! validates structure before any value is trusted, never panics and
//! never over-reads — every malformed input is a typed [`WireError`]
//! (`tests/wire_corrupt.rs` sweeps truncations, bit flips, oversized
//! lengths, and unknown versions over every frame type).
//!
//! Request frames: `Infer` (a frame to evaluate), `Publish` (a
//! `model_io` blob to hot-swap in), `StatsQuery` (one shard's
//! counters), `Health`. Response frames: `InferOk`, `Error` (a full
//! [`ServeError`], round-tripped losslessly), `PublishOk`, `Stats`,
//! `HealthOk`.
//!
//! Bulk numeric payloads (type ids, positions, forces) are *borrowed*
//! from the input buffer as packed little-endian slices
//! ([`Reader::u32_bytes`] / [`Reader::f64_bytes`]) — decoding a
//! million-atom frame copies no atom data until the engine
//! materializes the request.
//!
//! ## Transports
//!
//! [`serve_frame`] is the transport-independent server: bytes in,
//! bytes out. [`Loopback`] calls it in-process (the differential
//! harness drives the fleet through real encoded frames);
//! [`WireServer`]/[`WireClient`] speak the same frames over a Unix
//! domain socket with a `u32` length prefix per frame, so engines can
//! run as separate processes.

use crate::batch::{Fidelity, InferRequest, InferResponse, ServeError};
use crate::shard::Fleet;
use crate::stats::StatsSnapshot;
use dp_data::dataset::Snapshot;
use dp_mdsim::Vec3;
use dp_tensor::wire::{f64_at, u32_at, Reader, Record, WireError, Writer};
use std::io::{self, Read as IoRead, Write as IoWrite};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Frame magic: every dp-serve wire frame starts with these bytes.
pub const WIRE_MAGIC: [u8; 4] = *b"DPWF";
/// Protocol version; a frame with any other version is rejected typed.
pub const WIRE_VERSION: u16 = 1;
const FRAME: Record = Record::new(WIRE_MAGIC, WIRE_VERSION as u32, 1).with_u16_version();
/// Upper bound on atoms per wire frame — larger counts are treated as
/// corruption, bounding what a hostile length header can make the
/// decoder reserve.
pub const MAX_WIRE_ATOMS: u32 = 1 << 24;
/// Upper bound on species names per frame.
pub const MAX_WIRE_TYPES: u32 = 256;
/// Upper bound on one length-prefixed frame over a stream transport.
pub const MAX_FRAME_BYTES: u32 = 1 << 28;

const FRAME_INFER: u8 = 1;
const FRAME_INFER_OK: u8 = 2;
const FRAME_ERROR: u8 = 3;
const FRAME_PUBLISH: u8 = 4;
const FRAME_PUBLISH_OK: u8 = 5;
const FRAME_STATS_QUERY: u8 = 6;
const FRAME_STATS: u8 = 7;
const FRAME_HEALTH: u8 = 8;
const FRAME_HEALTH_OK: u8 = 9;

const ERR_CLOSED: u8 = 0;
const ERR_BAD_REQUEST: u8 = 1;
const ERR_OVERLOADED: u8 = 2;
const ERR_DEADLINE: u8 = 3;
const ERR_EVAL_FAILED: u8 = 4;
const ERR_UNKNOWN_MODEL: u8 = 5;
const ERR_SNAPSHOT_PRUNED: u8 = 6;

fn fidelity_code(f: Fidelity) -> u8 {
    match f {
        Fidelity::Auto => 0,
        Fidelity::Master => 1,
        Fidelity::Compressed => 2,
        Fidelity::Quantized => 3,
    }
}

fn fidelity_from(code: u8) -> Result<Fidelity, WireError> {
    match code {
        0 => Ok(Fidelity::Auto),
        1 => Ok(Fidelity::Master),
        2 => Ok(Fidelity::Compressed),
        3 => Ok(Fidelity::Quantized),
        c => Err(WireError::Invalid(format!("unknown fidelity code {c}"))),
    }
}

/// A decoded `Infer` request. Atom data stays borrowed from the frame
/// buffer — packed little-endian `u32` type ids and `f64` positions —
/// until [`InferFrame::to_request`] materializes a [`Snapshot`].
#[derive(Debug)]
pub struct InferFrame<'a> {
    /// Target model id (routes the request to its owning shard).
    pub model: u64,
    /// Accounting tenant.
    pub tenant: u64,
    /// Compute forces too?
    pub want_forces: bool,
    /// Bulk lane (shed first under overload)?
    pub bulk: bool,
    /// Requested serving tier.
    pub fidelity: Fidelity,
    /// Latency budget in nanoseconds (`None` = no deadline).
    pub deadline_ns: Option<u64>,
    /// Orthorhombic cell lengths (Å).
    pub cell: [f64; 3],
    /// Species names, indexed by type id.
    pub type_names: Vec<String>,
    /// Atom count (`types` and `pos` lengths were validated against
    /// it at decode time).
    pub n_atoms: u32,
    types: &'a [u8],
    pos: &'a [u8],
}

impl InferFrame<'_> {
    /// Type id of atom `i` (zero-copy view into the frame buffer).
    pub fn type_at(&self, i: usize) -> u32 {
        u32_at(self.types, i)
    }

    /// Position of atom `i`.
    pub fn pos_at(&self, i: usize) -> Vec3 {
        Vec3::new(
            f64_at(self.pos, 3 * i),
            f64_at(self.pos, 3 * i + 1),
            f64_at(self.pos, 3 * i + 2),
        )
    }

    /// Materialize the engine-side request (the only copy the server
    /// makes of the atom data).
    pub fn to_request(&self) -> InferRequest {
        let n = self.n_atoms as usize;
        let frame = Snapshot {
            cell: self.cell,
            types: (0..n).map(|i| self.type_at(i) as usize).collect(),
            type_names: self.type_names.clone(),
            pos: (0..n).map(|i| self.pos_at(i)).collect(),
            energy: 0.0,
            forces: Vec::new(),
            temperature: 0.0,
        };
        let mut req = InferRequest::new(frame, self.want_forces)
            .with_fidelity(self.fidelity)
            .for_model(self.model)
            .from_tenant(self.tenant);
        if self.bulk {
            req = req.bulk();
        }
        if let Some(ns) = self.deadline_ns {
            req = req.with_deadline(Duration::from_nanos(ns));
        }
        req
    }
}

/// A decoded `InferOk` response; forces stay borrowed until
/// [`InferOkFrame::to_response`].
#[derive(Debug)]
pub struct InferOkFrame<'a> {
    /// Snapshot version that served the request.
    pub version: u64,
    /// Energy-only under pressure although forces were requested?
    pub degraded: bool,
    /// The tier that computed the numbers.
    pub fidelity: Fidelity,
    /// Total energy (eV).
    pub energy: f64,
    /// Number of force vectors carried (0 = no forces).
    pub n_forces: u32,
    forces: &'a [u8],
}

impl InferOkFrame<'_> {
    /// Force on atom `i` (zero-copy view).
    pub fn force_at(&self, i: usize) -> Vec3 {
        Vec3::new(
            f64_at(self.forces, 3 * i),
            f64_at(self.forces, 3 * i + 1),
            f64_at(self.forces, 3 * i + 2),
        )
    }

    /// Materialize the client-side response.
    pub fn to_response(&self) -> InferResponse {
        let forces = (self.n_forces > 0)
            .then(|| (0..self.n_forces as usize).map(|i| self.force_at(i)).collect());
        InferResponse {
            energy: self.energy,
            forces,
            version: self.version,
            degraded: self.degraded,
            fidelity: self.fidelity,
        }
    }
}

/// A decoded `Error` response: the typed [`ServeError`] round-tripped
/// through `(code, a, b, message)`.
#[derive(Debug)]
pub struct ErrorFrame<'a> {
    /// Error discriminant (`ERR_*`).
    pub code: u8,
    /// First numeric field (depth / waited-ns / model id / version).
    pub a: u64,
    /// Second numeric field (capacity / budget-ns / current version).
    pub b: u64,
    msg: &'a [u8],
}

impl ErrorFrame<'_> {
    /// Reconstruct the typed error.
    pub fn to_error(&self) -> ServeError {
        let msg = || String::from_utf8_lossy(self.msg).into_owned();
        match self.code {
            ERR_CLOSED => ServeError::Closed,
            ERR_OVERLOADED => ServeError::Overloaded {
                depth: self.a as usize,
                capacity: self.b as usize,
            },
            ERR_DEADLINE => ServeError::DeadlineExceeded {
                waited: Duration::from_nanos(self.a),
                budget: Duration::from_nanos(self.b),
            },
            ERR_EVAL_FAILED => ServeError::EvalFailed(msg()),
            ERR_UNKNOWN_MODEL => ServeError::UnknownModel { model: self.a },
            ERR_SNAPSHOT_PRUNED => ServeError::SnapshotPruned {
                version: self.a,
                current: self.b,
            },
            // BadRequest and anything a future version adds: the
            // message carries the story.
            _ => ServeError::BadRequest(msg()),
        }
    }
}

/// A decoded `Publish` request: a `model_io` blob to install under a
/// model id (validated by the registry before anything serves it).
#[derive(Debug)]
pub struct PublishFrame<'a> {
    /// Target model id (created on first publish).
    pub model: u64,
    /// The serialized model (`model_io` v2, self-checksummed).
    pub blob: &'a [u8],
}

/// A decoded `Stats` response: one shard's counters.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsFrame {
    /// The shard the counters describe.
    pub shard: u32,
    /// Requests completed.
    pub requests: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Overload sheds.
    pub shed: u64,
    /// Deadline sheds.
    pub deadline_miss: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Degraded responses.
    pub degraded: u64,
    /// Model-eval failures.
    pub eval_failures: u64,
    /// Largest queue depth observed.
    pub max_depth: u64,
    /// Latency percentiles, nanoseconds (0 before any request).
    pub p50_ns: f64,
    /// 99th percentile latency.
    pub p99_ns: f64,
    /// 99.9th percentile latency.
    pub p999_ns: f64,
}

impl StatsFrame {
    /// Build from an engine snapshot.
    pub fn from_snapshot(shard: u32, s: &StatsSnapshot) -> StatsFrame {
        StatsFrame {
            shard,
            requests: s.requests,
            batches: s.batches,
            shed: s.shed,
            deadline_miss: s.deadline_miss,
            breaker_trips: s.breaker_trips,
            degraded: s.degraded,
            eval_failures: s.eval_failures,
            max_depth: s.max_depth,
            p50_ns: s.latency_p50_ns.unwrap_or(0.0),
            p99_ns: s.latency_p99_ns.unwrap_or(0.0),
            p999_ns: s.latency_p999_ns.unwrap_or(0.0),
        }
    }
}

/// A decoded `HealthOk` response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthFrame {
    /// Configured shard count.
    pub shards: u32,
    /// Shards still accepting traffic.
    pub alive: u32,
    /// Registered models.
    pub models: u64,
    /// Tenants seen so far.
    pub tenants: u64,
}

/// Any decoded wire frame.
#[derive(Debug)]
pub enum Frame<'a> {
    /// Inference request.
    Infer(InferFrame<'a>),
    /// Inference success.
    InferOk(InferOkFrame<'a>),
    /// Typed failure (any request kind).
    Error(ErrorFrame<'a>),
    /// Model publish request.
    Publish(PublishFrame<'a>),
    /// Publish success: the model id and its new version.
    PublishOk {
        /// The published model id.
        model: u64,
        /// The registry version after the publish.
        version: u64,
    },
    /// Stats request for one shard.
    StatsQuery {
        /// The shard whose counters are wanted.
        shard: u32,
    },
    /// Stats response.
    Stats(StatsFrame),
    /// Health probe.
    Health,
    /// Health response.
    HealthOk(HealthFrame),
}

fn header(tag: u8) -> Writer {
    let mut w = FRAME.writer();
    w.u8(tag);
    w
}

/// Encode an inference request.
pub fn encode_infer(req: &InferRequest) -> Vec<u8> {
    let mut w = header(FRAME_INFER);
    w.u64(req.model);
    w.u64(req.tenant);
    let mut flags = 0u8;
    if req.want_forces {
        flags |= 1;
    }
    if req.priority == crate::slo::Priority::Bulk {
        flags |= 2;
    }
    w.u8(flags);
    w.u8(fidelity_code(req.fidelity));
    w.u64(match req.deadline {
        None => u64::MAX,
        Some(d) => (d.as_nanos().min(u128::from(u64::MAX - 1))) as u64,
    });
    for c in req.frame.cell {
        w.f64(c);
    }
    w.u32(req.frame.type_names.len() as u32);
    for name in &req.frame.type_names {
        w.bytes(name.as_bytes());
    }
    w.u32(req.frame.types.len() as u32);
    for &t in &req.frame.types {
        w.u32(t as u32);
    }
    for p in &req.frame.pos {
        for c in 0..3 {
            w.f64(p.0[c]);
        }
    }
    FRAME.seal(w)
}

/// Encode an inference success.
pub fn encode_infer_ok(resp: &InferResponse) -> Vec<u8> {
    let mut w = header(FRAME_INFER_OK);
    w.u64(resp.version);
    w.u8(resp.degraded as u8);
    w.u8(fidelity_code(resp.fidelity));
    w.f64(resp.energy);
    match &resp.forces {
        None => w.u32(0),
        Some(fs) => {
            w.u32(fs.len() as u32);
            for f in fs {
                for c in 0..3 {
                    w.f64(f.0[c]);
                }
            }
        }
    }
    FRAME.seal(w)
}

/// Encode a typed failure.
pub fn encode_error(err: &ServeError) -> Vec<u8> {
    let mut w = header(FRAME_ERROR);
    let (code, a, b, msg): (u8, u64, u64, &str) = match err {
        ServeError::Closed => (ERR_CLOSED, 0, 0, ""),
        ServeError::BadRequest(m) => (ERR_BAD_REQUEST, 0, 0, m),
        ServeError::Overloaded { depth, capacity } => {
            (ERR_OVERLOADED, *depth as u64, *capacity as u64, "")
        }
        ServeError::DeadlineExceeded { waited, budget } => (
            ERR_DEADLINE,
            waited.as_nanos().min(u128::from(u64::MAX)) as u64,
            budget.as_nanos().min(u128::from(u64::MAX)) as u64,
            "",
        ),
        ServeError::EvalFailed(m) => (ERR_EVAL_FAILED, 0, 0, m),
        ServeError::UnknownModel { model } => (ERR_UNKNOWN_MODEL, *model, 0, ""),
        ServeError::SnapshotPruned { version, current } => {
            (ERR_SNAPSHOT_PRUNED, *version, *current, "")
        }
    };
    w.u8(code);
    w.u64(a);
    w.u64(b);
    w.bytes(msg.as_bytes());
    FRAME.seal(w)
}

/// Encode an inference outcome (success or typed failure).
pub fn encode_infer_result(result: &Result<InferResponse, ServeError>) -> Vec<u8> {
    match result {
        Ok(resp) => encode_infer_ok(resp),
        Err(e) => encode_error(e),
    }
}

/// Encode a model publish (`blob` is a `model_io` v2 artifact).
pub fn encode_publish(model: u64, blob: &[u8]) -> Vec<u8> {
    let mut w = header(FRAME_PUBLISH);
    w.u64(model);
    w.bytes(blob);
    FRAME.seal(w)
}

/// Encode a publish acknowledgement.
pub fn encode_publish_ok(model: u64, version: u64) -> Vec<u8> {
    let mut w = header(FRAME_PUBLISH_OK);
    w.u64(model);
    w.u64(version);
    FRAME.seal(w)
}

/// Encode a stats request for one shard.
pub fn encode_stats_query(shard: u32) -> Vec<u8> {
    let mut w = header(FRAME_STATS_QUERY);
    w.u32(shard);
    FRAME.seal(w)
}

/// Encode a stats response.
pub fn encode_stats(s: &StatsFrame) -> Vec<u8> {
    let mut w = header(FRAME_STATS);
    w.u32(s.shard);
    for v in [
        s.requests,
        s.batches,
        s.shed,
        s.deadline_miss,
        s.breaker_trips,
        s.degraded,
        s.eval_failures,
        s.max_depth,
    ] {
        w.u64(v);
    }
    for v in [s.p50_ns, s.p99_ns, s.p999_ns] {
        w.f64(v);
    }
    FRAME.seal(w)
}

/// Encode a health probe.
pub fn encode_health() -> Vec<u8> {
    FRAME.seal(header(FRAME_HEALTH))
}

/// Encode a health response.
pub fn encode_health_ok(h: &HealthFrame) -> Vec<u8> {
    let mut w = header(FRAME_HEALTH_OK);
    w.u32(h.shards);
    w.u32(h.alive);
    w.u64(h.models);
    w.u64(h.tenants);
    FRAME.seal(w)
}

fn decode_infer<'a>(r: &mut Reader<'a>) -> Result<InferFrame<'a>, WireError> {
    let model = r.u64()?;
    let tenant = r.u64()?;
    let flags = r.u8()?;
    if flags & !0b11 != 0 {
        return Err(WireError::Invalid(format!("unknown infer flags {flags:#04x}")));
    }
    let fidelity = fidelity_from(r.u8()?)?;
    let deadline = r.u64()?;
    let mut cell = [0.0; 3];
    for c in &mut cell {
        *c = r.f64()?;
    }
    let n_names = r.u32()?;
    if n_names > MAX_WIRE_TYPES {
        return Err(WireError::Invalid(format!("implausible species count {n_names}")));
    }
    let mut type_names = Vec::with_capacity(n_names as usize);
    for _ in 0..n_names {
        let raw = r.bytes()?;
        type_names.push(
            std::str::from_utf8(raw)
                .map_err(|_| WireError::Invalid("species name is not UTF-8".into()))?
                .to_string(),
        );
    }
    let n_atoms = r.u32()?;
    if n_atoms > MAX_WIRE_ATOMS {
        return Err(WireError::Invalid(format!("implausible atom count {n_atoms}")));
    }
    let types = r.u32_bytes(n_atoms as usize)?;
    let pos = r.f64_bytes(3 * n_atoms as usize)?;
    let mut coords = pos.chunks_exact(8).map(|b| f64_at(b, 0)).chain(cell);
    if !coords.all(f64::is_finite) {
        return Err(WireError::Invalid("non-finite coordinate in infer frame".into()));
    }
    Ok(InferFrame {
        model,
        tenant,
        want_forces: flags & 1 != 0,
        bulk: flags & 2 != 0,
        fidelity,
        deadline_ns: (deadline != u64::MAX).then_some(deadline),
        cell,
        type_names,
        n_atoms,
        types,
        pos,
    })
}

fn decode_infer_ok<'a>(r: &mut Reader<'a>) -> Result<InferOkFrame<'a>, WireError> {
    let version = r.u64()?;
    let degraded = match r.u8()? {
        0 => false,
        1 => true,
        d => return Err(WireError::Invalid(format!("bad degraded flag {d}"))),
    };
    let fidelity = fidelity_from(r.u8()?)?;
    let energy = r.f64()?;
    let n_forces = r.u32()?;
    if n_forces > MAX_WIRE_ATOMS {
        return Err(WireError::Invalid(format!("implausible force count {n_forces}")));
    }
    let forces = r.f64_bytes(3 * n_forces as usize)?;
    Ok(InferOkFrame { version, degraded, fidelity, energy, n_forces, forces })
}

/// Decode one frame: header, CRC trailer, type, payload — every layer
/// validated, the whole buffer consumed. Truncation, corruption,
/// oversized lengths, unknown versions and unknown frame types all come
/// back as typed [`WireError`]s.
pub fn decode(bytes: &[u8]) -> Result<Frame<'_>, WireError> {
    FRAME.decode(bytes, decode_body)
}

fn decode_body<'a>(r: &mut Reader<'a>) -> Result<Frame<'a>, WireError> {
    Ok(match r.u8()? {
        FRAME_INFER => Frame::Infer(decode_infer(r)?),
        FRAME_INFER_OK => Frame::InferOk(decode_infer_ok(r)?),
        FRAME_ERROR => {
            let code = r.u8()?;
            let a = r.u64()?;
            let b = r.u64()?;
            let msg = r.bytes()?;
            Frame::Error(ErrorFrame { code, a, b, msg })
        }
        FRAME_PUBLISH => {
            let model = r.u64()?;
            let blob = r.bytes()?;
            Frame::Publish(PublishFrame { model, blob })
        }
        FRAME_PUBLISH_OK => {
            let model = r.u64()?;
            let version = r.u64()?;
            Frame::PublishOk { model, version }
        }
        FRAME_STATS_QUERY => Frame::StatsQuery { shard: r.u32()? },
        FRAME_STATS => {
            let shard = r.u32()?;
            let mut u = [0u64; 8];
            for v in &mut u {
                *v = r.u64()?;
            }
            let mut p = [0.0f64; 3];
            for v in &mut p {
                *v = r.f64()?;
            }
            Frame::Stats(StatsFrame {
                shard,
                requests: u[0],
                batches: u[1],
                shed: u[2],
                deadline_miss: u[3],
                breaker_trips: u[4],
                degraded: u[5],
                eval_failures: u[6],
                max_depth: u[7],
                p50_ns: p[0],
                p99_ns: p[1],
                p999_ns: p[2],
            })
        }
        FRAME_HEALTH => Frame::Health,
        FRAME_HEALTH_OK => Frame::HealthOk(HealthFrame {
            shards: r.u32()?,
            alive: r.u32()?,
            models: r.u64()?,
            tenants: r.u64()?,
        }),
        t => return Err(WireError::Invalid(format!("unknown frame type {t}"))),
    })
}

/// Client-side helper: decode a reply to an `Infer` as the engine-side
/// result type. A `WireError` means the *transport* failed (corrupt
/// bytes); an inner `Err(ServeError)` is the server's typed refusal.
pub fn decode_infer_reply(bytes: &[u8]) -> Result<Result<InferResponse, ServeError>, WireError> {
    match decode(bytes)? {
        Frame::InferOk(f) => Ok(Ok(f.to_response())),
        Frame::Error(e) => Ok(Err(e.to_error())),
        _ => Err(WireError::Invalid("unexpected reply frame for infer".into())),
    }
}

/// The transport-independent server: decode one request frame, run it
/// against the fleet, encode the reply. Every failure mode — corrupt
/// bytes, unknown model, overload, a killed shard — produces an
/// `Error` frame; this function never panics and always replies.
pub fn serve_frame(fleet: &Fleet, bytes: &[u8]) -> Vec<u8> {
    match decode(bytes) {
        Err(e) => encode_error(&ServeError::BadRequest(format!("wire decode failed: {e}"))),
        Ok(Frame::Infer(f)) => encode_infer_result(&fleet.infer(f.to_request())),
        Ok(Frame::Publish(p)) => match fleet.models().get(p.model) {
            Some(reg) => match reg.publish_bytes(p.blob) {
                Ok(version) => encode_publish_ok(p.model, version),
                Err(e) => encode_error(&ServeError::BadRequest(format!("publish failed: {e}"))),
            },
            None => match deepmd_core::model_io::from_bytes(p.blob) {
                // First publish under a fresh id: the blob becomes the
                // new registry's version 1.
                Ok(model) => {
                    let reg = Arc::new(crate::registry::ModelRegistry::new(model));
                    fleet.models().insert(p.model, reg);
                    encode_publish_ok(p.model, 1)
                }
                Err(e) => encode_error(&ServeError::BadRequest(format!("publish failed: {e}"))),
            },
        },
        Ok(Frame::StatsQuery { shard }) => match fleet.engine(shard) {
            Some(engine) => encode_stats(&StatsFrame::from_snapshot(shard, &engine.stats())),
            None => encode_error(&ServeError::BadRequest(format!("unknown shard {shard}"))),
        },
        Ok(Frame::Health) => {
            let set = fleet.shard_set();
            let alive = set.ids().iter().filter(|&&s| fleet.is_alive(s)).count() as u32;
            encode_health_ok(&HealthFrame {
                shards: set.len() as u32,
                alive,
                models: fleet.models().len() as u64,
                tenants: fleet.tenants().ids().len() as u64,
            })
        }
        // A response frame arriving as a request is a protocol error.
        Ok(_) => encode_error(&ServeError::BadRequest("unexpected response-type frame".into())),
    }
}

/// In-process transport: real encoded frames, no socket. The
/// differential harness uses this so the fleet path under test is the
/// full encode → route → compute → encode pipeline.
pub struct Loopback<'f> {
    fleet: &'f Fleet,
}

impl<'f> Loopback<'f> {
    /// Wrap a fleet.
    pub fn new(fleet: &'f Fleet) -> Self {
        Loopback { fleet }
    }

    /// One request/reply exchange.
    pub fn call(&self, frame: &[u8]) -> Vec<u8> {
        serve_frame(self.fleet, frame)
    }
}

fn read_frame(stream: &mut UnixStream) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        other => other?,
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    Ok(Some(buf))
}

fn write_frame(stream: &mut UnixStream, frame: &[u8]) -> io::Result<()> {
    stream.write_all(&(frame.len() as u32).to_le_bytes())?;
    stream.write_all(frame)
}

/// Unix-domain-socket server speaking length-prefixed wire frames.
/// Each connection gets its own thread; each frame gets exactly one
/// reply. Shut down explicitly or on drop.
pub struct WireServer {
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl WireServer {
    /// Bind `path` (an existing socket file is replaced) and serve
    /// `fleet` until shutdown.
    pub fn bind(fleet: Arc<Fleet>, path: impl AsRef<Path>) -> io::Result<WireServer> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("dp-wire-accept".into())
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                while !stop_flag.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            let fleet = Arc::clone(&fleet);
                            let h = std::thread::Builder::new()
                                .name("dp-wire-conn".into())
                                .spawn(move || {
                                    let _ = stream.set_nonblocking(false);
                                    while let Ok(Some(frame)) = read_frame(&mut stream) {
                                        let reply = serve_frame(&fleet, &frame);
                                        if write_frame(&mut stream, &reply).is_err() {
                                            break;
                                        }
                                    }
                                })
                                .expect("dp-serve: failed to spawn connection thread");
                            conns.push(h);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for h in conns {
                    let _ = h.join();
                }
            })
            .expect("dp-serve: failed to spawn accept loop");
        Ok(WireServer { stop, accept: Some(accept), path })
    }

    /// The socket path clients connect to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stop accepting, join connection threads (they exit when their
    /// client hangs up), and remove the socket file. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Client end of the socket transport: one request frame out, one
/// reply frame back, synchronously.
pub struct WireClient {
    stream: UnixStream,
}

impl WireClient {
    /// Connect to a [`WireServer`] socket.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<WireClient> {
        Ok(WireClient { stream: UnixStream::connect(path)? })
    }

    /// One request/reply exchange. An `Err` is a transport failure;
    /// server-side refusals come back as `Error` frames in the bytes.
    pub fn call(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, frame)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_frame as frame, demo_model as model};
    use crate::registry::{ModelRegistry, ModelTable};
    use crate::shard::FleetConfig;

    fn fleet() -> Fleet {
        let models = ModelTable::single(Arc::new(ModelRegistry::new(model(41))));
        Fleet::start(FleetConfig::new(2), models)
    }

    #[test]
    fn infer_frame_roundtrips_with_zero_copy_views() {
        let req = InferRequest::new(frame(3), true)
            .bulk()
            .with_deadline(Duration::from_millis(250))
            .for_model(42)
            .from_tenant(7)
            .with_fidelity(Fidelity::Master);
        let bytes = encode_infer(&req);
        let Frame::Infer(f) = decode(&bytes).unwrap() else {
            panic!("expected an Infer frame")
        };
        assert_eq!((f.model, f.tenant), (42, 7));
        assert!(f.want_forces && f.bulk);
        assert_eq!(f.fidelity, Fidelity::Master);
        assert_eq!(f.deadline_ns, Some(250_000_000));
        assert_eq!(f.n_atoms as usize, req.frame.types.len());
        let back = f.to_request();
        assert_eq!(back.frame.cell, req.frame.cell);
        assert_eq!(back.frame.types, req.frame.types);
        assert_eq!(back.frame.type_names, req.frame.type_names);
        for (a, b) in back.frame.pos.iter().zip(&req.frame.pos) {
            assert_eq!(a.0.map(f64::to_bits), b.0.map(f64::to_bits));
        }
        assert_eq!(back.priority, crate::slo::Priority::Bulk);
        assert_eq!(back.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let errors = [
            ServeError::Closed,
            ServeError::BadRequest("bad frame".into()),
            ServeError::Overloaded { depth: 12, capacity: 8 },
            ServeError::DeadlineExceeded {
                waited: Duration::from_nanos(12_345),
                budget: Duration::from_nanos(10_000),
            },
            ServeError::EvalFailed("NaN".into()),
            ServeError::UnknownModel { model: 99 },
            ServeError::SnapshotPruned { version: 3, current: 9 },
        ];
        for e in errors {
            let bytes = encode_error(&e);
            let Frame::Error(f) = decode(&bytes).unwrap() else {
                panic!("expected an Error frame")
            };
            assert_eq!(f.to_error(), e);
        }
    }

    #[test]
    fn stats_and_health_frames_roundtrip() {
        let s = StatsFrame {
            shard: 2,
            requests: 100,
            batches: 13,
            shed: 4,
            deadline_miss: 2,
            breaker_trips: 1,
            degraded: 5,
            eval_failures: 3,
            max_depth: 17,
            p50_ns: 1024.0,
            p99_ns: 8192.0,
            p999_ns: 65536.0,
        };
        match decode(&encode_stats(&s)).unwrap() {
            Frame::Stats(d) => assert_eq!(d, s),
            other => panic!("expected Stats, got {other:?}"),
        }
        let h = HealthFrame { shards: 3, alive: 2, models: 5, tenants: 9 };
        match decode(&encode_health_ok(&h)).unwrap() {
            Frame::HealthOk(d) => assert_eq!(d, h),
            other => panic!("expected HealthOk, got {other:?}"),
        }
        assert!(matches!(decode(&encode_health()).unwrap(), Frame::Health));
        assert!(matches!(
            decode(&encode_stats_query(1)).unwrap(),
            Frame::StatsQuery { shard: 1 }
        ));
        assert!(matches!(
            decode(&encode_publish_ok(4, 2)).unwrap(),
            Frame::PublishOk { model: 4, version: 2 }
        ));
    }

    #[test]
    fn loopback_serves_bitwise_and_replies_typed() {
        let fleet = fleet();
        let lo = Loopback::new(&fleet);
        let f = frame(19);
        let direct = fleet.models().get(0).unwrap().current().model.predict(&f);
        let reply = lo.call(&encode_infer(&InferRequest::new(f.clone(), true)));
        let resp = decode_infer_reply(&reply).unwrap().unwrap();
        assert_eq!(resp.energy.to_bits(), direct.energy.to_bits());
        for (a, b) in resp.forces.unwrap().iter().zip(&direct.forces) {
            assert_eq!(a.0.map(f64::to_bits), b.0.map(f64::to_bits));
        }
        // Unknown model → typed error over the wire.
        let reply = lo.call(&encode_infer(&InferRequest::new(f.clone(), false).for_model(9)));
        assert_eq!(
            decode_infer_reply(&reply).unwrap().unwrap_err(),
            ServeError::UnknownModel { model: 9 }
        );
        // Corrupt request → typed error reply, not a panic or hang.
        let mut bad = encode_infer(&InferRequest::new(f, false));
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let reply = lo.call(&bad);
        match decode_infer_reply(&reply).unwrap().unwrap_err() {
            ServeError::BadRequest(m) => assert!(m.contains("wire decode"), "got: {m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        fleet.shutdown();
    }

    #[test]
    fn publish_health_and_stats_over_loopback() {
        let fleet = fleet();
        let lo = Loopback::new(&fleet);
        // Hot-swap model 0 over the wire.
        let blob = deepmd_core::model_io::to_bytes(&model(42));
        match decode(&lo.call(&encode_publish(0, &blob))).unwrap() {
            Frame::PublishOk { model: 0, version } => assert_eq!(version, 2),
            other => panic!("expected PublishOk, got {other:?}"),
        }
        // First publish under a fresh id creates the model fleet-wide.
        match decode(&lo.call(&encode_publish(6, &blob))).unwrap() {
            Frame::PublishOk { model: 6, version } => assert_eq!(version, 1),
            other => panic!("expected PublishOk, got {other:?}"),
        }
        // A corrupt blob is refused typed.
        let mut bad = blob.clone();
        bad[blob.len() / 2] ^= 0x01;
        match decode(&lo.call(&encode_publish(0, &bad))).unwrap() {
            Frame::Error(e) => {
                assert!(matches!(e.to_error(), ServeError::BadRequest(_)))
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // Health sees both models and both shards alive.
        match decode(&lo.call(&encode_health())).unwrap() {
            Frame::HealthOk(h) => {
                assert_eq!((h.shards, h.alive, h.models), (2, 2, 2));
            }
            other => panic!("expected HealthOk, got {other:?}"),
        }
        // Serve one request, then the owning shard's stats show it.
        let f = frame(20);
        let ok = decode_infer_reply(&lo.call(&encode_infer(&InferRequest::new(f, false))))
            .unwrap();
        assert!(ok.is_ok());
        let shard = fleet.route(0);
        match decode(&lo.call(&encode_stats_query(shard))).unwrap() {
            Frame::Stats(s) => {
                assert_eq!(s.shard, shard);
                assert!(s.requests >= 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        match decode(&lo.call(&encode_stats_query(99))).unwrap() {
            Frame::Error(e) => assert!(matches!(e.to_error(), ServeError::BadRequest(_))),
            other => panic!("expected Error, got {other:?}"),
        }
        fleet.shutdown();
    }

    #[test]
    fn uds_transport_serves_frames_end_to_end() {
        let models = ModelTable::single(Arc::new(ModelRegistry::new(model(43))));
        let fleet = Arc::new(Fleet::start(FleetConfig::new(2), models));
        let dir = std::env::temp_dir().join(format!("dp-wire-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("fleet.sock");
        let mut server = WireServer::bind(Arc::clone(&fleet), &sock).unwrap();
        let mut client = WireClient::connect(&sock).unwrap();
        let f = frame(21);
        let direct = fleet.models().get(0).unwrap().current().model.predict(&f);
        let reply = client.call(&encode_infer(&InferRequest::new(f, true))).unwrap();
        let resp = decode_infer_reply(&reply).unwrap().unwrap();
        assert_eq!(resp.energy.to_bits(), direct.energy.to_bits());
        let reply = client.call(&encode_health()).unwrap();
        assert!(matches!(decode(&reply).unwrap(), Frame::HealthOk(_)));
        drop(client);
        server.shutdown();
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
