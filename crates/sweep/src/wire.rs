//! The sweep service wire protocol (`icfp-wire/v2`).
//!
//! A client submits a whole [`SweepSpec`] to a running `icfp-sweepd`; the
//! server expands, validates and executes it (through the shared executor
//! and result cache) and streams each cell back *as it finishes*, closing
//! with the report digest and cache counters.  The client reassembles the
//! streamed cells — by index, so arrival order is irrelevant — into a
//! [`SweepReport`] byte-identical to a local [`crate::run_sweep`] of the
//! same spec, and verifies its digest against the server's.
//!
//! ## Transport
//!
//! Messages are vendored-serde payloads in length-prefixed frames
//! ([`serde::frame`]: `u32` LE length + payload, 16 MiB ceiling).  The
//! conversation:
//!
//! ```text
//! client                          server
//! ──────────────────────────────────────────────────────────
//! Hello2{version, features} ──▶
//!                         ◀──    Hello2{version, features}
//! Submit{spec, threads}   ──▶
//!                         ◀──    Accepted{cells, threads}
//!                         ◀──    Cell{index, cached, cell}   (× cells)
//!                         ◀──    Done{report_digest, hits, misses}
//! (next Submit / ShardSubmit, or close)
//! ```
//!
//! ## Capability negotiation and shard submissions
//!
//! The v2 handshake carries a feature list besides the version string
//! ([`base_features`]; workers add `"worker"`), so peers can tell *what* a
//! server speaks before submitting.  Version skew in either direction is a
//! typed [`WireError::UnsupportedVersion`], never a decode failure: the v1
//! `Hello` variant is retained in the [`Request`] enum (vendored-serde
//! enum encoding is append-only, so v1 frames still decode) and answered
//! with an `Error` frame naming both versions; a v2 client recognizes a v1
//! server's `Hello`/`Error` reply the same way.
//!
//! Besides whole-spec submissions, a v2 peer with the `"shard"` capability
//! accepts [`crate::plan::SweepShard`] slices of a grid
//! (`ShardSubmit` → `Accepted` → `ShardCell` × cells → `ShardDone`) — the
//! distributed execution path ([`crate::backend::RemoteBackend`]).  A
//! shard ships per-column trace *digests*, never trace bytes; the worker
//! regenerates each column from the registry or opens a local container
//! ([`icfp_isa::TraceFile::open_validated`]) and refuses the shard on any
//! digest mismatch.  `ShardCell` indices are *full-grid* positions (the
//! worker translates through the shard's index map), so the coordinator
//! merges streams from any number of workers without per-shard bookkeeping.
//!
//! Anything unexpected — an undecodable frame, a version mismatch, an
//! invalid spec — is answered with an `Error` frame where possible and is
//! always a typed [`WireError`] on both sides, never a panic: a hostile
//! peer cannot take the server down.

use crate::executor::{column_source, run_sweep_streamed, ExecOptions, DEFAULT_PANIC_RETRIES};
use crate::fault::{FaultPlan, FrameAction};
use crate::plan::SweepShard;
use crate::report::{SweepCell, SweepReport};
use crate::spec::SweepSpec;
use crate::ResultCache;
use icfp_isa::{TraceFile, TraceSource};
use std::collections::HashMap;
use serde::frame::{read_frame, write_frame, FrameError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The protocol version string exchanged in the handshake.
pub const WIRE_VERSION: &str = "icfp-wire/v2";

/// The previous protocol version: whole-spec submissions only, no feature
/// negotiation.  Retained so skewed peers are *recognized* (and refused
/// with a typed error) rather than mis-decoded.
pub const WIRE_VERSION_V1: &str = "icfp-wire/v1";

/// The capability set a client advertises and a plain server grants:
/// whole-spec submissions (`"sweep"`) and shard submissions (`"shard"`).
/// Worker-mode servers ([`ServeOptions::worker`]) additionally advertise
/// `"worker"` — an advisory label; the message set is identical.
pub fn base_features() -> Vec<String> {
    vec!["sweep".to_string(), "shard".to_string()]
}

/// Frame ceiling for this protocol (the transport default).
pub const MAX_WIRE_FRAME: usize = serde::MAX_FRAME_LEN;

/// Client → server messages.
///
/// Variant order is the wire encoding (vendored serde is positional):
/// **append only**, so frames from older peers keep decoding into the
/// variants they meant — version skew must surface as a typed refusal, not
/// a decode failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// The v1 handshake.  A v2 server decodes it and answers with a typed
    /// "unsupported version" `Error` frame naming both versions.
    Hello {
        /// The client's version string.
        version: String,
    },
    /// Run this sweep and stream the cells back.
    Submit {
        /// The full grid to execute.
        spec: SweepSpec,
        /// Requested worker threads (0 = server default).
        threads: u64,
    },
    /// The v2 handshake; must be the first message on a connection.
    Hello2 {
        /// The client's [`WIRE_VERSION`].
        version: String,
        /// Capabilities the client intends to use ([`base_features`]).
        features: Vec<String>,
    },
    /// Run one planned shard of a grid and stream its cells back
    /// (full-grid indices).  Requires the `"shard"` capability.
    ShardSubmit {
        /// The shard: sub-spec, index map, per-column trace digests.
        shard: crate::plan::SweepShard,
        /// Requested worker threads (0 = server default).
        threads: u64,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake reply.
    Hello {
        /// The server's [`WIRE_VERSION`].
        version: String,
    },
    /// The submitted spec validated; cells will stream next.
    Accepted {
        /// Number of cells the spec expands to.
        cells: u64,
        /// Worker threads the server will actually use.
        threads: u64,
    },
    /// One finished cell (streamed in completion order).
    Cell {
        /// The cell's position in [`SweepSpec::expand`] order.
        index: u64,
        /// Whether it was served from the server's result cache.
        cached: bool,
        /// The cell itself.
        cell: SweepCell,
    },
    /// The sweep finished; no more cells follow for this submission.
    Done {
        /// Digest of the assembled report ([`SweepReport::digest`]).
        report_digest: u64,
        /// Cells served from the server's result cache.
        hits: u64,
        /// Cells the server computed.
        misses: u64,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The v2 handshake reply.
    Hello2 {
        /// The server's [`WIRE_VERSION`].
        version: String,
        /// Capabilities this server grants ([`base_features`], plus
        /// `"worker"` in worker mode).
        features: Vec<String>,
    },
    /// One finished cell of a shard submission, streamed in completion
    /// order and addressed by *full-grid* index (the server translates
    /// through the shard's index map).
    ShardCell {
        /// The cell's position in the **full** grid's expand order.
        index: u64,
        /// Whether it was served from the worker's result cache.
        cached: bool,
        /// The cell itself.
        cell: SweepCell,
    },
    /// The shard finished; no more cells follow for this submission.
    ShardDone {
        /// Echo of the submitted [`crate::plan::SweepShard::shard_index`].
        shard_index: u64,
        /// Digest of the shard's own sub-report ([`SweepReport::digest`]
        /// over the sub-spec), so the client can verify the slice before
        /// the coordinator commits it to the merge.
        report_digest: u64,
        /// Cells served from the worker's result cache.
        hits: u64,
        /// Cells the worker computed.
        misses: u64,
    },
}

/// Typed failures on either side of the wire.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The transport layer rejected a frame (hostile length, truncation).
    Frame(FrameError),
    /// A frame arrived but its payload would not decode.
    Decode(String),
    /// The peer violated the protocol (wrong message, wrong version, bad
    /// index, missing cells).
    Protocol(String),
    /// The server answered with an `Error` frame.
    Server(String),
    /// The spec failed validation before anything was sent.
    Spec(String),
    /// The peer closed the connection cleanly in the middle of a
    /// conversation — a crashed or restarting server.  Retriable: a fresh
    /// reconnect + re-submit usually succeeds (and already-computed cells
    /// come back as cache hits).
    Disconnected,
    /// The peers speak different protocol versions — detected at the
    /// handshake, in either direction, before any submission.  Not
    /// retriable: the same peer will refuse again.
    UnsupportedVersion {
        /// The version this side speaks.
        ours: String,
        /// The version the peer announced (best-effort for pre-v2 peers,
        /// whose refusals carry no structured version field).
        theirs: String,
    },
}

impl WireError {
    /// Whether a fresh reconnect + re-submit may succeed: transport-level
    /// failures (I/O errors, torn or timed-out frames, a peer that vanished
    /// mid-conversation) are retriable; semantic rejections (invalid spec,
    /// server-reported errors, protocol violations, undecodable payloads)
    /// are not — retrying would deterministically fail again.
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            WireError::Io(_) | WireError::Frame(_) | WireError::Disconnected
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Frame(e) => write!(f, "wire framing: {e}"),
            WireError::Decode(e) => write!(f, "wire payload would not decode: {e}"),
            WireError::Protocol(e) => write!(f, "protocol violation: {e}"),
            WireError::Server(e) => write!(f, "server error: {e}"),
            WireError::Spec(e) => write!(f, "invalid sweep spec: {e}"),
            WireError::Disconnected => write!(f, "peer closed mid-conversation"),
            WireError::UnsupportedVersion { ours, theirs } => {
                write!(f, "unsupported protocol version: we speak {ours:?}, peer speaks {theirs:?}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => WireError::Io(io),
            other => WireError::Frame(other),
        }
    }
}

/// Writes one message as a frame.
fn send<T: Serialize>(w: &mut impl std::io::Write, msg: &T) -> Result<(), WireError> {
    write_frame(w, &serde::to_bytes(msg))?;
    w.flush().map_err(WireError::Io)
}

/// Reads one message frame; `Ok(None)` is a clean peer close.
fn recv<T: Deserialize>(r: &mut impl std::io::Read) -> Result<Option<T>, WireError> {
    match read_frame(r, MAX_WIRE_FRAME)? {
        None => Ok(None),
        Some(bytes) => serde::from_bytes(&bytes)
            .map(Some)
            .map_err(|e| WireError::Decode(e.to_string())),
    }
}

/// Reads one message frame, treating peer close as [`WireError::Disconnected`]
/// (used where the conversation is mid-flight and a message is owed — the
/// retriable signature of a crashed or restarting peer).
fn recv_expected<T: Deserialize>(r: &mut impl std::io::Read) -> Result<T, WireError> {
    recv(r)?.ok_or(WireError::Disconnected)
}

/// Server-side send through the outbound-frame fault seam: an armed
/// [`FaultPlan`] can drop or truncate exactly one frame, after which the
/// injected transport error propagates like a real mid-stream crash and the
/// connection is severed.
fn send_srv<T: Serialize>(
    w: &mut impl std::io::Write,
    msg: &T,
    fault: Option<&FaultPlan>,
) -> Result<(), WireError> {
    match fault.map_or(FrameAction::Pass, |p| p.next_frame_action()) {
        FrameAction::Pass => send(w, msg),
        FrameAction::Drop => Err(WireError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "injected fault: outbound frame dropped, connection severed",
        ))),
        FrameAction::Truncate(k) => {
            let mut framed = Vec::new();
            write_frame(&mut framed, &serde::to_bytes(msg))?;
            let keep = k.min(framed.len().saturating_sub(1)).max(1);
            w.write_all(&framed[..keep]).map_err(WireError::Io)?;
            w.flush().map_err(WireError::Io)?;
            Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected fault: outbound frame truncated, connection severed",
            )))
        }
    }
}

/// Client retry policy: deterministic exponential backoff between
/// reconnect-and-resubmit attempts, plus the per-stream I/O deadline.
///
/// The delay before retry *k* (0-based) is `base_delay_ms << k`, capped at
/// `max_delay_ms` — a pure function of the policy and the attempt number,
/// so the schedule is reproducible ([`backoff_delay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts after the first failure (0 = fail fast).
    pub retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Read/write deadline on the client's stream, in milliseconds
    /// (0 = no deadline).  A server that stalls mid-frame longer than this
    /// surfaces as a retriable [`FrameError::TimedOut`].
    pub io_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 4,
            base_delay_ms: 100,
            max_delay_ms: 2_000,
            io_timeout_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// The stream deadline as a `Duration` (`None` when disabled).
    pub fn io_timeout(&self) -> Option<Duration> {
        (self.io_timeout_ms > 0).then(|| Duration::from_millis(self.io_timeout_ms))
    }
}

/// The deterministic backoff delay before 0-based retry `attempt`:
/// `base_delay_ms << attempt`, capped at `max_delay_ms`.
pub fn backoff_delay(policy: &RetryPolicy, attempt: u32) -> Duration {
    let exp = policy
        .base_delay_ms
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX).max(1));
    Duration::from_millis(exp.min(policy.max_delay_ms))
}

/// The result of one client submission.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The reassembled report — byte-identical to a local run of the spec.
    pub report: SweepReport,
    /// Cells the server served from its result cache.
    pub hits: u64,
    /// Cells the server computed.
    pub misses: u64,
}

/// Submits a sweep to a running `icfp-sweepd` at `addr` (e.g.
/// `127.0.0.1:7400`), reassembling the streamed cells into a report.
/// `threads` is the requested server-side worker count (0 = server
/// default).  `on_cell` sees each cell as it arrives (completion order).
///
/// # Errors
///
/// Any [`WireError`].  The returned report's digest is verified against the
/// server's `Done` digest, so a successful return is a report identical to
/// the server's — and, by the executor's determinism, to a local run.
pub fn submit(
    addr: &str,
    spec: &SweepSpec,
    threads: usize,
    mut on_cell: impl FnMut(usize, bool, &SweepCell),
) -> Result<SubmitOutcome, WireError> {
    submit_once(addr, spec, threads, None, &mut on_cell)
}

/// Submits with reconnect-and-resume: on a retriable failure (I/O error,
/// torn or timed-out frame, peer vanished mid-stream) the client waits the
/// policy's deterministic backoff ([`backoff_delay`]), reconnects, and
/// re-submits the whole spec.  Cells the server already computed come back
/// as cache hits, so the reassembled report of the successful attempt is
/// byte-identical to an uninterrupted run.  Non-retriable failures (invalid
/// spec, server-reported errors, protocol violations) return immediately.
///
/// `on_cell` observes the stream of every attempt, so an interrupted
/// attempt's cells may be seen twice; reassembly uses only the successful
/// attempt.
///
/// # Errors
///
/// The last retriable [`WireError`] once `policy.retries` is exhausted, or
/// the first non-retriable one.
pub fn submit_with(
    addr: &str,
    spec: &SweepSpec,
    threads: usize,
    policy: &RetryPolicy,
    mut on_cell: impl FnMut(usize, bool, &SweepCell),
) -> Result<SubmitOutcome, WireError> {
    let mut last = None;
    for attempt in 0..=policy.retries {
        if attempt > 0 {
            std::thread::sleep(backoff_delay(policy, attempt - 1));
        }
        match submit_once(addr, spec, threads, policy.io_timeout(), &mut on_cell) {
            Ok(outcome) => return Ok(outcome),
            Err(e) if e.is_retriable() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// Sets up one end of a wire conversation, client or server: the read and
/// write deadline, and `TCP_NODELAY`.  Every message is written and flushed
/// as one whole frame, so Nagle's algorithm can only hurt: it holds a small
/// frame (a streamed `Cell`) back until the peer's delayed ACK, ~40 ms a
/// time on loopback.
fn framed(
    stream: TcpStream,
    io_timeout: Option<Duration>,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), WireError> {
    stream.set_nodelay(true).map_err(WireError::Io)?;
    stream.set_read_timeout(io_timeout).map_err(WireError::Io)?;
    stream.set_write_timeout(io_timeout).map_err(WireError::Io)?;
    let reader = BufReader::new(stream.try_clone().map_err(WireError::Io)?);
    Ok((reader, BufWriter::new(stream)))
}

/// Opens a framed connection to `addr` under the given I/O deadline.
fn connect_framed(
    addr: &str,
    io_timeout: Option<Duration>,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), WireError> {
    framed(TcpStream::connect(addr).map_err(WireError::Io)?, io_timeout)
}

/// Performs the client side of the v2 handshake, returning the capability
/// set the server granted.  A pre-v2 server — which answers the unknown
/// `Hello2` variant with an `Error` frame or a v1 `Hello` — is a typed
/// [`WireError::UnsupportedVersion`], never a decode failure.
fn client_handshake(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) -> Result<Vec<String>, WireError> {
    send(
        writer,
        &Request::Hello2 {
            version: WIRE_VERSION.to_string(),
            features: base_features(),
        },
    )?;
    match recv_expected::<Response>(reader)? {
        Response::Hello2 { version, features } if version == WIRE_VERSION => Ok(features),
        Response::Hello2 { version, .. } | Response::Hello { version } => {
            Err(WireError::UnsupportedVersion {
                ours: WIRE_VERSION.to_string(),
                theirs: version,
            })
        }
        // A peer that refuses the handshake outright is a version (or
        // capability) mismatch by definition — its Error text is the best
        // version description it gave us.
        Response::Error { message } => Err(WireError::UnsupportedVersion {
            ours: WIRE_VERSION.to_string(),
            theirs: format!("pre-v2 peer ({message})"),
        }),
        other => Err(WireError::Protocol(format!(
            "expected Hello2, got {other:?}"
        ))),
    }
}

/// One submission attempt over one fresh connection.
fn submit_once(
    addr: &str,
    spec: &SweepSpec,
    threads: usize,
    io_timeout: Option<Duration>,
    on_cell: &mut impl FnMut(usize, bool, &SweepCell),
) -> Result<SubmitOutcome, WireError> {
    spec.validate().map_err(WireError::Spec)?;
    let (mut reader, mut writer) = connect_framed(addr, io_timeout)?;
    client_handshake(&mut reader, &mut writer)?;

    send(
        &mut writer,
        &Request::Submit {
            spec: spec.clone(),
            threads: threads as u64,
        },
    )?;
    let (cells_expected, server_threads) = match recv_expected::<Response>(&mut reader)? {
        Response::Accepted { cells, threads } => (cells as usize, threads as usize),
        Response::Error { message } => return Err(WireError::Server(message)),
        other => {
            return Err(WireError::Protocol(format!(
                "expected Accepted, got {other:?}"
            )))
        }
    };
    if cells_expected != spec.cell_count() {
        return Err(WireError::Protocol(format!(
            "server accepted {cells_expected} cells for a {}-cell spec",
            spec.cell_count()
        )));
    }

    let mut cells: Vec<Option<SweepCell>> = (0..cells_expected).map(|_| None).collect();
    loop {
        match recv_expected::<Response>(&mut reader)? {
            Response::Cell {
                index,
                cached,
                cell,
            } => {
                let index = index as usize;
                if index >= cells_expected {
                    return Err(WireError::Protocol(format!(
                        "cell index {index} out of range ({cells_expected} cells)"
                    )));
                }
                if cells[index].is_some() {
                    return Err(WireError::Protocol(format!("cell {index} streamed twice")));
                }
                on_cell(index, cached, &cell);
                cells[index] = Some(cell);
            }
            Response::Done {
                report_digest,
                hits,
                misses,
            } => {
                let mut assembled = Vec::with_capacity(cells_expected);
                for (k, c) in cells.into_iter().enumerate() {
                    assembled.push(c.ok_or_else(|| {
                        WireError::Protocol(format!("server finished without streaming cell {k}"))
                    })?);
                }
                let report = SweepReport {
                    threads: server_threads,
                    warm_fork: spec.warm_fork,
                    insts: spec.insts,
                    seed: spec.seed,
                    reps: spec.reps.max(1),
                    workloads: spec.workloads.clone(),
                    cells: assembled,
                };
                let digest = report.digest();
                if digest != report_digest {
                    return Err(WireError::Protocol(format!(
                        "reassembled report digest {digest:#018x} does not match the server's {report_digest:#018x}"
                    )));
                }
                return Ok(SubmitOutcome {
                    report,
                    hits,
                    misses,
                });
            }
            Response::Error { message } => return Err(WireError::Server(message)),
            other => {
                return Err(WireError::Protocol(format!(
                    "expected Cell or Done, got {other:?}"
                )))
            }
        }
    }
}

/// The result of one shard submission: the verified cells (full-grid
/// indices, completion order) plus the worker's cache counters.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// `(full_grid_index, cached, cell)` for every cell of the shard, in
    /// the order the worker streamed them.  Only returned once the worker's
    /// `ShardDone` digest has been verified against the reassembled slice —
    /// a partially streamed or corrupted shard never leaks cells.
    pub cells: Vec<(usize, bool, SweepCell)>,
    /// Cells served from the worker's result cache.
    pub hits: u64,
    /// Cells the worker computed.
    pub misses: u64,
}

/// Submits one planned shard to a worker at `addr`, collecting its streamed
/// cells.  `threads` is the requested worker-side thread count (0 = worker
/// default).  The returned cells carry *full-grid* indices and are verified
/// two ways before return: every streamed index must belong to the shard's
/// index map (exactly once), and the reassembled sub-report's digest must
/// equal the worker's `ShardDone` digest.
///
/// # Errors
///
/// Any [`WireError`].  Transport-level failures (including a worker that
/// died mid-shard) are retriable ([`WireError::is_retriable`]) — the
/// coordinator's cue to reassign the shard to another worker.
pub fn submit_shard(
    addr: &str,
    shard: &crate::plan::SweepShard,
    threads: usize,
    io_timeout: Option<Duration>,
) -> Result<ShardOutcome, WireError> {
    shard.spec.validate_axes().map_err(WireError::Spec)?;
    let n = shard.cell_count();
    if shard.index_map.len() != n {
        return Err(WireError::Spec(format!(
            "shard index map has {} entries for a {n}-cell sub-spec",
            shard.index_map.len()
        )));
    }
    let (mut reader, mut writer) = connect_framed(addr, io_timeout)?;
    let features = client_handshake(&mut reader, &mut writer)?;
    if !features.iter().any(|f| f == "shard") {
        return Err(WireError::Protocol(format!(
            "peer granted no \"shard\" capability (features: {features:?})"
        )));
    }

    send(
        &mut writer,
        &Request::ShardSubmit {
            shard: shard.clone(),
            threads: threads as u64,
        },
    )?;
    match recv_expected::<Response>(&mut reader)? {
        Response::Accepted { cells, .. } if cells as usize == n => {}
        Response::Accepted { cells, .. } => {
            return Err(WireError::Protocol(format!(
                "worker accepted {cells} cells for a {n}-cell shard"
            )))
        }
        Response::Error { message } => return Err(WireError::Server(message)),
        other => {
            return Err(WireError::Protocol(format!(
                "expected Accepted, got {other:?}"
            )))
        }
    }

    // Streamed indices are full-grid positions; invert the shard's map to
    // validate membership and detect duplicates.
    let sub_of: std::collections::HashMap<u64, usize> = shard
        .index_map
        .iter()
        .enumerate()
        .map(|(sub, &full)| (full, sub))
        .collect();
    let mut slots: Vec<Option<usize>> = vec![None; n]; // sub index -> cells pos
    let mut cells: Vec<(usize, bool, SweepCell)> = Vec::with_capacity(n);
    loop {
        match recv_expected::<Response>(&mut reader)? {
            Response::ShardCell {
                index,
                cached,
                cell,
            } => {
                let sub = *sub_of.get(&index).ok_or_else(|| {
                    WireError::Protocol(format!("cell index {index} is not in this shard"))
                })?;
                if slots[sub].is_some() {
                    return Err(WireError::Protocol(format!("cell {index} streamed twice")));
                }
                slots[sub] = Some(cells.len());
                cells.push((index as usize, cached, cell));
            }
            Response::ShardDone {
                shard_index,
                report_digest,
                hits,
                misses,
            } => {
                if shard_index != shard.shard_index {
                    return Err(WireError::Protocol(format!(
                        "worker finished shard {shard_index}, we submitted {}",
                        shard.shard_index
                    )));
                }
                // Reassemble the slice in sub-spec expand order and verify
                // its digest against the worker's.
                let mut sub_cells = Vec::with_capacity(n);
                for (sub, slot) in slots.iter().enumerate() {
                    let &pos = slot.as_ref().ok_or_else(|| {
                        WireError::Protocol(format!(
                            "worker finished without streaming cell {} (sub index {sub})",
                            shard.index_map[sub]
                        ))
                    })?;
                    sub_cells.push(Some(cells[pos].2.clone()));
                }
                let sub_report = crate::plan::merge_report(&shard.spec, 1, sub_cells)
                    .map_err(WireError::Protocol)?;
                let digest = sub_report.digest();
                if digest != report_digest {
                    return Err(WireError::Protocol(format!(
                        "reassembled shard digest {digest:#018x} does not match the worker's {report_digest:#018x}"
                    )));
                }
                return Ok(ShardOutcome {
                    cells,
                    hits,
                    misses,
                });
            }
            Response::Error { message } => return Err(WireError::Server(message)),
            other => {
                return Err(WireError::Protocol(format!(
                    "expected ShardCell or ShardDone, got {other:?}"
                )))
            }
        }
    }
}

/// Server-side options for a connection.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Default worker threads for submissions that request 0.
    pub threads: usize,
    /// Result cache directory, if caching is enabled (opened per
    /// submission; [`ServeOptions::cache`] takes precedence when set).
    pub cache_dir: Option<PathBuf>,
    /// A pre-opened result cache shared across every connection — the
    /// concurrent [`serve`] loop opens [`ServeOptions::cache_dir`] once
    /// into this field so all connections share one store.
    pub cache: Option<Arc<ResultCache>>,
    /// Read/write deadline on each accepted stream (`None` = no deadline).
    /// A peer that stalls mid-frame longer than this gets a typed
    /// [`FrameError::TimedOut`] and its connection reaped — a slow-loris
    /// client can never hang a server thread.
    pub io_timeout: Option<Duration>,
    /// Retries for a panicking cell before it is recorded as a typed failed
    /// cell ([`crate::executor::ExecOptions::panic_retries`]).
    pub panic_retries: u32,
    /// Deterministic fault-injection plan for the outbound-frame and
    /// executor seams (tests only; `None` in production).
    pub fault: Option<Arc<FaultPlan>>,
    /// Cooperative cancellation for in-flight sweeps (graceful drain):
    /// when set, executors stop pulling new cell groups, in-flight cells
    /// finish and land in the cache, and the submission ends in a typed
    /// error frame.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Counter of successfully served submissions, bumped after each `Done`
    /// frame — [`serve`] arms this so its submission ceiling counts real
    /// service, never failed handshakes.
    pub served: Option<Arc<AtomicU64>>,
    /// Worker mode (`icfp-sweepd --worker`): advertise the `"worker"`
    /// capability in the handshake.  Advisory — the served message set is
    /// identical; coordinators use it to label their worker pools.
    pub worker: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 0,
            cache_dir: None,
            cache: None,
            io_timeout: None,
            panic_retries: DEFAULT_PANIC_RETRIES,
            fault: None,
            cancel: None,
            served: None,
            worker: false,
        }
    }
}

/// Per-connection summary returned by [`handle_conn`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnSummary {
    /// Sweeps executed on this connection.
    pub submits: u64,
    /// Total cells served from the result cache across them.
    pub hits: u64,
    /// Total cells computed across them.
    pub misses: u64,
}

/// Resolves a shard's trace columns on the worker side: a column with a
/// [`crate::plan::ColumnSpec::local_path`] opens that `icfp-trace/v1|v2`
/// container; anything else regenerates from the workload registry exactly
/// as a local executor would.  Every resolved source must match the
/// planner's content digest — traces never travel on the wire, so the
/// digest is the *only* thing binding the worker's trace to the
/// coordinator's, and any mismatch (stale file, skewed registry, wrong
/// seed) refuses the shard before a single cell runs.
fn resolve_shard_columns(
    shard: &SweepShard,
) -> Result<HashMap<String, Arc<dyn TraceSource>>, String> {
    shard.spec.validate_axes()?;
    if shard.index_map.len() != shard.spec.cell_count() {
        return Err(format!(
            "shard index map has {} entries for a {}-cell sub-spec",
            shard.index_map.len(),
            shard.spec.cell_count()
        ));
    }
    let mut columns: HashMap<String, Arc<dyn TraceSource>> = HashMap::new();
    for col in &shard.columns {
        let source: Arc<dyn TraceSource> = match &col.local_path {
            Some(path) => Arc::new(
                TraceFile::open_validated(path, col.trace_digest).map_err(|e| {
                    format!("shard column {:?}: container {path:?}: {e}", col.workload)
                })?,
            ),
            None => column_source(&shard.spec, &col.workload).ok_or_else(|| {
                format!(
                    "shard column {:?} is not a registry workload and carries no local container",
                    col.workload
                )
            })?,
        };
        let found = source.digest();
        if found != col.trace_digest {
            return Err(format!(
                "shard column {:?}: trace digest {found:#018x} does not match the planner's {:#018x}",
                col.workload, col.trace_digest
            ));
        }
        columns.insert(col.workload.clone(), source);
    }
    for w in &shard.spec.workloads {
        if !columns.contains_key(w) {
            return Err(format!("shard carries no trace column for workload {w:?}"));
        }
    }
    Ok(columns)
}

/// Serves one client connection: handshake, then any number of submissions,
/// until the client closes.  Every failure path answers with an `Error`
/// frame when the stream still works and returns a typed [`WireError`] —
/// a hostile or confused peer never panics the server.
///
/// # Errors
///
/// Any [`WireError`]; the caller (the `icfp-sweepd` accept loop) logs it
/// and moves on to the next connection.
pub fn handle_conn(stream: TcpStream, opts: &ServeOptions) -> Result<ConnSummary, WireError> {
    let (mut reader, mut writer) = framed(stream, opts.io_timeout)?;
    let fault = opts.fault.as_deref();
    let mut summary = ConnSummary::default();

    // Handshake.  An undecodable first frame still gets an Error reply.
    let hello = match recv::<Request>(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(summary),
        Err(e) => {
            let _ = send(
                &mut writer,
                &Response::Error {
                    message: format!("bad handshake: {e}"),
                },
            );
            return Err(e);
        }
    };
    match hello {
        Request::Hello2 { ref version, .. } if version == WIRE_VERSION => {}
        // Version skew — a v1 `Hello`, or a future `Hello2` with a version
        // we don't speak — gets a typed refusal naming both versions, never
        // a decode failure or a confusing protocol error.
        Request::Hello { version } | Request::Hello2 { version, .. } => {
            let message =
                format!("server speaks {WIRE_VERSION:?}, client sent {version:?}");
            let _ = send(&mut writer, &Response::Error { message: message.clone() });
            return Err(WireError::UnsupportedVersion {
                ours: WIRE_VERSION.to_string(),
                theirs: version,
            });
        }
        other => {
            let message = format!("expected Hello2 first, got {other:?}");
            let _ = send(&mut writer, &Response::Error { message: message.clone() });
            return Err(WireError::Protocol(message));
        }
    }
    let mut features = base_features();
    if opts.worker {
        features.push("worker".to_string());
    }
    send_srv(
        &mut writer,
        &Response::Hello2 {
            version: WIRE_VERSION.to_string(),
            features,
        },
        fault,
    )?;

    // Submission loop: whole specs (`Submit`) and grid slices
    // (`ShardSubmit`) share the executor, the cache and the streaming
    // machinery; shards additionally carry pre-resolved trace columns and
    // translate cell indices back to full-grid positions.
    loop {
        let req = match recv::<Request>(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(summary),
            Err(e) => {
                let _ = send(
                    &mut writer,
                    &Response::Error {
                        message: format!("bad request: {e}"),
                    },
                );
                return Err(e);
            }
        };
        let (spec, threads, shard_meta) = match req {
            Request::Submit { spec, threads } => {
                if let Err(e) = spec.validate() {
                    // An invalid spec fails the submission, not the
                    // connection.
                    send(&mut writer, &Response::Error { message: e })?;
                    continue;
                }
                (spec, threads, None)
            }
            Request::ShardSubmit { shard, threads } => {
                // A malformed shard — bad axes, unknown column, digest
                // mismatch — likewise fails the submission only.
                match resolve_shard_columns(&shard) {
                    Ok(columns) => {
                        let crate::plan::SweepShard {
                            shard_index,
                            spec,
                            index_map,
                            ..
                        } = shard;
                        (spec, threads, Some((shard_index, index_map, columns)))
                    }
                    Err(e) => {
                        send(&mut writer, &Response::Error { message: e })?;
                        continue;
                    }
                }
            }
            other => {
                let message = format!("expected Submit or ShardSubmit, got {other:?}");
                let _ = send(&mut writer, &Response::Error { message: message.clone() });
                return Err(WireError::Protocol(message));
            }
        };
        let requested = if threads == 0 {
            opts.threads.max(1)
        } else {
            threads as usize
        };
        // Prefer the pre-opened shared cache; fall back to opening the
        // configured directory per submission.
        let opened;
        let cache: Option<&ResultCache> = if let Some(shared) = &opts.cache {
            Some(shared)
        } else {
            match &opts.cache_dir {
                Some(dir) => match ResultCache::open(dir) {
                    Ok(c) => {
                        // Arm the cache-write fault seam on the fallback
                        // open too, mirroring [`serve`]'s shared open.
                        opened = match &opts.fault {
                            Some(plan) => c.with_fault(Arc::clone(plan)),
                            None => c,
                        };
                        Some(&opened)
                    }
                    Err(e) => {
                        let message = format!("result cache unavailable: {e}");
                        let _ = send(&mut writer, &Response::Error { message: message.clone() });
                        return Err(WireError::Protocol(message));
                    }
                },
                None => None,
            }
        };

        // Mirror the executor's thread clamp so the Accepted message (which
        // the client copies into its reassembled report header) states the
        // worker count the report will actually record.
        let num_groups = crate::executor::plan_groups(
            spec.warm_fork || cache.is_some(),
            &spec.expand(),
        )
        .len();
        let workers = requested.clamp(1, num_groups.max(1));

        send_srv(
            &mut writer,
            &Response::Accepted {
                cells: spec.cell_count() as u64,
                threads: workers as u64,
            },
            fault,
        )?;

        // Stream cells as the executor completes them.  A send failure mid-
        // sweep is recorded and surfaced after the executor returns (the
        // callback itself must not unwind through the thread pool) — the
        // sweep still completes into the cache, so the client's re-submit
        // after reconnecting is served as hits.
        let mut send_err: Option<WireError> = None;
        let exec = ExecOptions {
            threads: workers,
            cache,
            panic_retries: opts.panic_retries,
            fault,
            cancel: opts.cancel.as_deref(),
            columns: shard_meta.as_ref().map(|(_, _, cols)| cols),
        };
        let outcome = run_sweep_streamed(&spec, &exec, |event| {
            if send_err.is_none() {
                // Shard cells go out under their *full-grid* index, so the
                // coordinator's merge needs no per-shard bookkeeping.
                let resp = match &shard_meta {
                    Some((_, index_map, _)) => Response::ShardCell {
                        index: index_map[event.index],
                        cached: event.cached,
                        cell: event.cell.clone(),
                    },
                    None => Response::Cell {
                        index: event.index as u64,
                        cached: event.cached,
                        cell: event.cell.clone(),
                    },
                };
                if let Err(e) = send_srv(&mut writer, &resp, fault) {
                    send_err = Some(e);
                }
            }
        });
        if let Some(e) = send_err {
            return Err(e);
        }
        // validate() passed, so the only executor failure left is a
        // graceful-drain cancellation: answer with a typed Error frame.
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                let _ = send(&mut writer, &Response::Error { message: e.clone() });
                return Err(WireError::Protocol(e));
            }
        };
        let finish = match &shard_meta {
            Some((shard_index, _, _)) => Response::ShardDone {
                shard_index: *shard_index,
                report_digest: outcome.report.digest(),
                hits: outcome.cache.hits,
                misses: outcome.cache.misses,
            },
            None => Response::Done {
                report_digest: outcome.report.digest(),
                hits: outcome.cache.hits,
                misses: outcome.cache.misses,
            },
        };
        send_srv(&mut writer, &finish, fault)?;
        summary.submits += 1;
        summary.hits += outcome.cache.hits;
        summary.misses += outcome.cache.misses;
        if let Some(counter) = &opts.served {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Options for the concurrent [`serve`] accept loop.
#[derive(Debug, Clone)]
pub struct AcceptOptions {
    /// Ceiling on simultaneously served connections; further connections
    /// queue in the OS accept backlog until a slot frees, so a cache-hit
    /// submission never waits behind a cold sweep as long as a slot is
    /// open.
    pub max_inflight: usize,
    /// Stop after this many *successfully served submissions* (`None` =
    /// serve forever).  Connections that fail the handshake or never
    /// complete a sweep don't count.
    pub max_submissions: Option<u64>,
    /// Graceful-shutdown flag (e.g. set by a SIGINT handler): when it goes
    /// true the loop stops accepting, in-flight connections drain, and
    /// [`serve`] returns.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl Default for AcceptOptions {
    fn default() -> Self {
        AcceptOptions {
            max_inflight: 4,
            max_submissions: None,
            shutdown: None,
        }
    }
}

/// What [`serve`] did before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted and handed to a handler thread.
    pub connections: u64,
    /// Successfully served submissions across all of them.
    pub submissions: u64,
    /// Connections that ended in a typed error (failed handshakes, hostile
    /// frames, stalled peers, injected faults).
    pub failed: u64,
}

/// The concurrent accept loop: thread-per-connection over one shared
/// executor and result cache, bounded by [`AcceptOptions::max_inflight`].
///
/// Each accepted stream gets its own [`handle_conn`] thread, which sets
/// [`ServeOptions::io_timeout`] deadlines and `TCP_NODELAY` on it; the loop
/// itself never blocks on a conversation, so a quick cache-hit submission
/// runs beside a cold sweep.
/// The loop exits when [`AcceptOptions::max_submissions`] submissions have
/// been served or [`AcceptOptions::shutdown`] goes true, then *drains*:
/// every in-flight connection finishes (in-flight cells complete and land
/// in the cache) before [`serve`] returns.  A blocked `accept` is woken by
/// a loopback self-connection, so neither exit condition waits for a new
/// client.
///
/// `on_event` receives one human-readable line per lifecycle event (from
/// handler threads too, hence `Sync`).
pub fn serve(
    listener: TcpListener,
    opts: ServeOptions,
    accept: AcceptOptions,
    on_event: impl Fn(String) + Send + Sync,
) -> ServeSummary {
    let mut opts = opts;
    // Open the cache once; every connection shares it.
    if opts.cache.is_none() {
        if let Some(dir) = &opts.cache_dir {
            match ResultCache::open(dir) {
                Ok(c) => {
                    // Arm the cache-write fault seam on the shared store.
                    let c = match &opts.fault {
                        Some(plan) => c.with_fault(Arc::clone(plan)),
                        None => c,
                    };
                    opts.cache = Some(Arc::new(c));
                }
                Err(e) => {
                    on_event(format!("result cache unavailable, serving uncached: {e}"));
                    opts.cache_dir = None;
                }
            }
        }
    }
    let served = Arc::new(AtomicU64::new(0));
    opts.served = Some(Arc::clone(&served));
    let opts = Arc::new(opts);

    let connections = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let inflight = Mutex::new(0usize);
    let slot_freed = Condvar::new();
    let local = listener.local_addr().ok();
    let stop_waker = AtomicBool::new(false);

    let done = || {
        accept
            .shutdown
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
            || accept
                .max_submissions
                .is_some_and(|n| served.load(Ordering::Relaxed) >= n)
    };
    // Wakes a blocked `accept` by self-connecting; the dummy connection is
    // recognized and dropped by the `done()` re-check after accept.
    let wake = || {
        if let Some(addr) = local {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    };

    std::thread::scope(|scope| {
        // The shutdown watcher: `accept` cannot observe a flag flipped by a
        // signal handler (glibc installs SA_RESTART semantics), so poll the
        // exit conditions and break the accept loop with a self-connection.
        if accept.shutdown.is_some() {
            scope.spawn(|| loop {
                if stop_waker.load(Ordering::Relaxed) {
                    return;
                }
                if done() {
                    wake();
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            });
        }
        loop {
            if done() {
                break;
            }
            {
                let mut n = inflight.lock().expect("inflight lock");
                while *n >= accept.max_inflight.max(1) {
                    n = slot_freed.wait(n).expect("inflight lock");
                }
            }
            if done() {
                break;
            }
            let (stream, peer) = match listener.accept() {
                Ok(x) => x,
                Err(e) => {
                    on_event(format!("accept failed: {e}"));
                    continue;
                }
            };
            if done() {
                // The waker's (or a late client's) connection arriving after
                // an exit condition: drop it and stop accepting.
                drop(stream);
                break;
            }
            connections.fetch_add(1, Ordering::Relaxed);
            *inflight.lock().expect("inflight lock") += 1;
            on_event(format!("connection from {peer}"));
            let opts = Arc::clone(&opts);
            let on_event = &on_event;
            let failed = &failed;
            let inflight = &inflight;
            let slot_freed = &slot_freed;
            let done = &done;
            let wake = &wake;
            scope.spawn(move || {
                match handle_conn(stream, &opts) {
                    Ok(summary) => on_event(format!(
                        "connection closed ({} sweeps, {} cache hits, {} computed)",
                        summary.submits, summary.hits, summary.misses
                    )),
                    Err(e) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                        on_event(format!("connection failed: {e}"));
                    }
                }
                *inflight.lock().expect("inflight lock") -= 1;
                slot_freed.notify_one();
                // This connection may have pushed the served count to the
                // ceiling while the accept loop is blocked: wake it.
                if done() {
                    wake();
                }
            });
        }
        stop_waker.store(true, Ordering::Relaxed);
        // Leaving the scope joins every handler thread: the drain.
    });

    ServeSummary {
        connections: connections.load(Ordering::Relaxed),
        submissions: served.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;
    use crate::testutil::tiny_spec;
    use std::net::TcpListener;

    /// Starts a one-connection-at-a-time server on an ephemeral port,
    /// returning its address and the accept-loop thread handle.
    fn spawn_server(
        opts: ServeOptions,
        conns: usize,
    ) -> (String, std::thread::JoinHandle<Vec<Result<ConnSummary, String>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            let mut results = Vec::new();
            for _ in 0..conns {
                let (stream, _) = listener.accept().expect("accept");
                results.push(handle_conn(stream, &opts).map_err(|e| e.to_string()));
            }
            results
        });
        (addr, handle)
    }

    #[test]
    fn submitted_sweep_reassembles_byte_identical_to_a_local_run() {
        let (addr, server) = spawn_server(ServeOptions::default(), 1);
        let spec = tiny_spec();
        let mut streamed = 0usize;
        let outcome = submit(&addr, &spec, 2, |_, cached, _| {
            assert!(!cached, "no cache configured");
            streamed += 1;
        })
        .expect("submit");
        assert_eq!(streamed, 32);
        assert_eq!(outcome.hits, 0);
        assert_eq!(outcome.misses, 32);

        // Digest-identical to a local run: every deterministic field agrees
        // (host-time figures are wall-clock measurements of two different
        // executions, so they are the one thing that can differ).
        let local = run_sweep(&spec, 2).expect("local run");
        assert_eq!(outcome.report.digest(), local.digest());
        assert_eq!(outcome.report.threads, local.threads);
        assert_eq!(outcome.report.workloads, local.workloads);
        for (a, b) in outcome.report.cells.iter().zip(&local.cells) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.ipc, b.ipc);
            assert_eq!(a.state_digest, b.state_digest);
        }

        let summaries = server.join().expect("server thread");
        assert_eq!(summaries, vec![Ok(ConnSummary { submits: 1, hits: 0, misses: 32 })]);
    }

    #[test]
    fn resubmission_is_served_from_the_server_cache_with_identical_report() {
        let dir = std::env::temp_dir().join(format!(
            "icfp-wire-test-cache-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            threads: 2,
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let (addr, server) = spawn_server(opts, 2);
        let mut spec = tiny_spec();
        spec.workloads.truncate(2);
        spec.l2_hit_latencies = vec![20];
        let n = spec.cell_count();

        let first = submit(&addr, &spec, 0, |_, _, _| {}).expect("first submit");
        assert_eq!(first.hits, 0);
        assert_eq!(first.misses, n as u64);
        let second = submit(&addr, &spec, 0, |_, cached, _| assert!(cached))
            .expect("second submit");
        assert_eq!(second.hits, n as u64, "fully served from cache");
        assert_eq!(second.misses, 0);
        assert_eq!(second.report, first.report);
        assert_eq!(second.report.to_json(), first.report.to_json());

        server.join().expect("server thread");

        // A *local* cached run over the same cache directory replays the
        // same stored figures: byte-identical to the wire reports, document
        // included — local and server runs are interchangeable.
        let cache = crate::ResultCache::open(&dir).expect("open cache");
        let local = crate::run_sweep_streamed(
            &spec,
            &crate::ExecOptions {
                threads: 2,
                cache: Some(&cache),
                ..crate::ExecOptions::default()
            },
            |_| {},
        )
        .expect("local cached run");
        assert_eq!(local.cache.hits, n as u64);
        assert_eq!(local.report, second.report);
        assert_eq!(local.report.to_json(), second.report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_ends_of_a_wire_stream_disable_nagle_and_carry_deadlines() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr").to_string();
        let deadline = Some(Duration::from_secs(7));
        let (probe_tx, probe_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            // A clone shares the socket, so it observes what handle_conn
            // sets on its own handle.
            probe_tx
                .send(stream.try_clone().expect("clone"))
                .expect("send probe");
            let opts = ServeOptions {
                io_timeout: deadline,
                ..ServeOptions::default()
            };
            handle_conn(stream, &opts).map_err(|e| e.to_string())
        });
        let assert_set_up = |end: &str, s: &TcpStream| {
            assert!(s.nodelay().expect("nodelay"), "{end}: TCP_NODELAY unset");
            assert_eq!(s.read_timeout().expect("read deadline"), deadline, "{end}");
            assert_eq!(
                s.write_timeout().expect("write deadline"),
                deadline,
                "{end}"
            );
        };

        let (mut reader, mut writer) = connect_framed(&addr, deadline).expect("connect");
        assert_set_up("client reader", reader.get_ref());
        assert_set_up("client writer", writer.get_ref());
        // The server answers the handshake only after setting its end up.
        client_handshake(&mut reader, &mut writer).expect("handshake");
        assert_set_up("server", &probe_rx.recv().expect("probe"));

        drop((reader, writer));
        let summary = server.join().expect("server thread").expect("clean close");
        assert_eq!(summary.submits, 0);
    }

    #[test]
    fn hostile_and_confused_clients_get_typed_errors_not_panics() {
        use std::io::Write as _;

        // 1. Garbage bytes that are a valid frame but not a Request.
        let (addr, server) = spawn_server(ServeOptions::default(), 1);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        write_frame(&mut stream, b"\xFF\xFF not a request").expect("frame");
        stream.flush().expect("flush");
        // The server answers with an Error frame, then drops the connection.
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        match recv::<Response>(&mut reader).expect("error frame") {
            Some(Response::Error { message }) => {
                assert!(message.contains("bad handshake"), "{message}");
            }
            other => panic!("expected Error frame, got {other:?}"),
        }
        let errs = server.join().expect("server thread");
        assert_eq!(errs.len(), 1);
        assert!(errs[0].is_err(), "typed error, not a panic: {errs:?}");

        // 2. A hostile length prefix (4 GiB frame) — rejected by the
        //    transport without allocating; server survives to return.
        let (addr, server) = spawn_server(ServeOptions::default(), 1);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(&u32::MAX.to_le_bytes()).expect("prefix");
        drop(stream);
        let errs = server.join().expect("server thread");
        assert!(errs[0].as_ref().is_err());
        assert!(
            errs[0].as_ref().unwrap_err().contains("ceiling"),
            "hostile length is a framing error: {errs:?}"
        );

        // 3. Wrong protocol version.
        let (addr, server) = spawn_server(ServeOptions::default(), 1);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        send(
            &mut stream,
            &Request::Hello {
                version: "icfp-wire/v0".into(),
            },
        )
        .expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        match recv::<Response>(&mut reader).expect("reply") {
            Some(Response::Error { message }) => assert!(message.contains("icfp-wire/v0")),
            other => panic!("expected Error frame, got {other:?}"),
        }
        assert!(server.join().expect("join")[0].is_err());

        // 4. An invalid spec fails the submission but not the connection:
        //    a corrected spec on the same connection still runs.
        let (addr, server) = spawn_server(ServeOptions::default(), 1);
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        send(
            &mut writer,
            &Request::Hello2 {
                version: WIRE_VERSION.into(),
                features: base_features(),
            },
        )
        .expect("hello");
        assert!(matches!(
            recv::<Response>(&mut reader).expect("hello back"),
            Some(Response::Hello2 { .. })
        ));
        let mut bad = tiny_spec();
        bad.workloads = vec!["no-such-workload".into()];
        send(
            &mut writer,
            &Request::Submit {
                spec: bad,
                threads: 1,
            },
        )
        .expect("submit bad");
        match recv::<Response>(&mut reader).expect("reply") {
            Some(Response::Error { message }) => {
                assert!(message.contains("no-such-workload"), "{message}")
            }
            other => panic!("expected Error frame, got {other:?}"),
        }
        let mut good = tiny_spec();
        good.workloads.truncate(1);
        good.slice_buffer_entries = vec![128];
        good.l2_hit_latencies = vec![20];
        send(
            &mut writer,
            &Request::Submit {
                spec: good.clone(),
                threads: 1,
            },
        )
        .expect("submit good");
        let mut done = false;
        let mut cells = 0;
        while !done {
            match recv::<Response>(&mut reader).expect("stream").expect("msg") {
                Response::Accepted { cells: n, .. } => assert_eq!(n, 2),
                Response::Cell { .. } => cells += 1,
                Response::Done { report_digest, .. } => {
                    assert_eq!(report_digest, run_sweep(&good, 1).unwrap().digest());
                    done = true;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(cells, 2);
        drop(writer);
        drop(reader);
        let summary = server.join().expect("join").remove(0).expect("clean close");
        assert_eq!(summary.submits, 1);

        // 5. Client-side: submitting an invalid spec never touches the
        //    network.
        let mut bad = tiny_spec();
        bad.insts = 0;
        match submit("127.0.0.1:1", &bad, 1, |_, _, _| {}) {
            Err(WireError::Spec(msg)) => assert!(msg.contains("instruction budget")),
            other => panic!("expected Spec error, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_a_typed_refusal_in_both_directions() {
        // A v1 client against this (v2) server: the old Hello variant still
        // decodes (append-only enum encoding) and is answered with an Error
        // frame naming both versions, and a typed error server-side.
        let (addr, server) = spawn_server(ServeOptions::default(), 1);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        send(
            &mut stream,
            &Request::Hello {
                version: WIRE_VERSION_V1.into(),
            },
        )
        .expect("send v1 hello");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        match recv::<Response>(&mut reader).expect("reply") {
            Some(Response::Error { message }) => {
                assert!(message.contains(WIRE_VERSION_V1), "{message}");
                assert!(message.contains(WIRE_VERSION), "{message}");
            }
            other => panic!("expected Error frame, got {other:?}"),
        }
        let err = server.join().expect("join").remove(0).unwrap_err();
        assert!(err.contains("unsupported protocol version"), "{err}");

        // A v2 client against a v1-style server (answers the handshake with
        // the old Hello): typed UnsupportedVersion, not retriable, never a
        // decode failure.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let v1_server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            let _hello: Request = recv_expected(&mut reader).expect("Hello2 decodes");
            send(
                &mut writer,
                &Response::Hello {
                    version: WIRE_VERSION_V1.into(),
                },
            )
            .expect("reply v1 hello");
        });
        let err =
            submit(&addr, &small_spec(), 1, |_, _, _| {}).expect_err("skewed peer refused");
        assert!(!err.is_retriable(), "version skew retries cannot succeed");
        match err {
            WireError::UnsupportedVersion { ours, theirs } => {
                assert_eq!(ours, WIRE_VERSION);
                assert_eq!(theirs, WIRE_VERSION_V1);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        v1_server.join().expect("v1 server thread");
    }

    /// A small 2-cell spec for service-level tests.
    fn small_spec() -> SweepSpec {
        let mut spec = tiny_spec();
        spec.workloads.truncate(1);
        spec.slice_buffer_entries = vec![128];
        spec.l2_hit_latencies = vec![20];
        spec
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("icfp-wire-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy {
            retries: 8,
            base_delay_ms: 100,
            max_delay_ms: 1_500,
            io_timeout_ms: 0,
        };
        let delays: Vec<u64> = (0..6)
            .map(|k| backoff_delay(&policy, k).as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![100, 200, 400, 800, 1_500, 1_500]);
        // Pure function: same inputs, same schedule.
        assert_eq!(backoff_delay(&policy, 3), backoff_delay(&policy, 3));
        assert!(policy.io_timeout().is_none());
        assert_eq!(
            RetryPolicy::default().io_timeout(),
            Some(Duration::from_secs(30))
        );
    }

    #[test]
    fn stalled_server_times_out_typed_and_stalled_client_is_reaped() {
        // Client side: a server that accepts and then never speaks.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let policy = RetryPolicy {
            retries: 0,
            base_delay_ms: 1,
            max_delay_ms: 1,
            io_timeout_ms: 50,
        };
        let spec = small_spec();
        match submit_with(&addr, &spec, 1, &policy, |_, _, _| {}) {
            Err(WireError::Frame(FrameError::TimedOut)) => {}
            other => panic!("expected typed timeout, got {other:?}"),
        }
        drop(hold.join());

        // Server side: a client that connects and then stalls mid-frame is
        // reaped with the same typed error — never a hung server thread.
        let (addr, server) = spawn_server(
            ServeOptions {
                io_timeout: Some(Duration::from_millis(50)),
                ..ServeOptions::default()
            },
            1,
        );
        let stream = TcpStream::connect(&addr).expect("connect");
        let errs = server.join().expect("server thread");
        assert!(
            errs[0].as_ref().unwrap_err().contains("deadline"),
            "stalled peer is a typed timeout: {errs:?}"
        );
        drop(stream);
    }

    #[test]
    fn client_retries_through_a_server_restart_with_identical_report() {
        let dir = tmp_dir("retry-resume");
        let spec = small_spec();
        let local = run_sweep(&spec, 1).expect("local run");

        // First server: armed to drop an outbound frame mid-stream (the
        // shape of a crash), then exits.  Its sweep still completes into
        // the shared cache.
        let fault = Arc::new(FaultPlan::new().with_frame_fault(crate::fault::FrameFault {
            // Frame 3 = Hello, Accepted, then mid-cell-stream.
            frame_index: 3,
            action: FrameAction::Drop,
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let opts = ServeOptions {
            cache_dir: Some(dir.clone()),
            fault: Some(Arc::clone(&fault)),
            ..ServeOptions::default()
        };
        let first = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            handle_conn(stream, &opts)
        });
        // Second server on a new port — "restarted" on the same cache dir.
        let listener2 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr2 = listener2.local_addr().expect("addr").to_string();
        let opts2 = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let second = std::thread::spawn(move || {
            let (stream, _) = listener2.accept().expect("accept");
            handle_conn(stream, &opts2)
        });

        // One `submit` against the faulted server fails retriably...
        let err = submit(&addr, &spec, 1, |_, _, _| {}).expect_err("server severed mid-stream");
        assert!(err.is_retriable(), "mid-stream sever retriable: {err}");
        assert!(fault.frame_fault_fired());
        first.join().expect("first server").expect_err("typed injected error");

        // ...and `submit_with` against the restarted server resumes: the
        // report is byte-identical to an uninterrupted local run, served
        // from the cache the interrupted sweep populated.
        let policy = RetryPolicy {
            retries: 2,
            base_delay_ms: 1,
            max_delay_ms: 5,
            io_timeout_ms: 30_000,
        };
        let outcome =
            submit_with(&addr2, &spec, 1, &policy, |_, _, _| {}).expect("resumed submit");
        assert_eq!(outcome.report.digest(), local.digest());
        assert_eq!(outcome.hits, spec.cell_count() as u64, "resumed from cache");
        assert_eq!(outcome.misses, 0);
        second.join().expect("second server").expect("clean close");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_counts_only_served_submissions_toward_the_ceiling() {
        // Satellite: a connection that fails the handshake must not count
        // toward --max-conns; only completed submissions do.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            serve(
                listener,
                ServeOptions::default(),
                AcceptOptions {
                    max_inflight: 2,
                    max_submissions: Some(1),
                    shutdown: None,
                },
                |_| {},
            )
        });

        // Hostile connection: garbage handshake — served, rejected, not
        // counted.
        {
            use std::io::Write as _;
            let mut stream = TcpStream::connect(&addr).expect("connect");
            write_frame(&mut stream, b"not a request").expect("frame");
            stream.flush().expect("flush");
            let mut reader = BufReader::new(stream);
            // Wait for the Error reply so the failure is fully processed
            // before the real submission below.
            match recv::<Response>(&mut reader).expect("reply") {
                Some(Response::Error { .. }) => {}
                other => panic!("expected Error, got {other:?}"),
            }
        }

        // A real submission reaches the ceiling and stops the server.
        let spec = small_spec();
        let outcome = submit(&addr, &spec, 1, |_, _, _| {}).expect("submit");
        assert_eq!(outcome.report.cells.len(), spec.cell_count());

        let summary = server.join().expect("serve returns");
        assert_eq!(summary.submissions, 1, "only the served submission counts");
        assert_eq!(summary.failed, 1, "the hostile conn is tallied as failed");
        assert_eq!(summary.connections, 2);
    }

    #[test]
    fn cache_hit_submission_is_not_blocked_behind_an_open_connection() {
        // Tentpole: thread-per-connection means a held-open connection (or a
        // long cold sweep) cannot serialize the whole service.  A sequential
        // accept loop would deadlock this test.
        let dir = tmp_dir("concurrent");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let opts = ServeOptions {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let server = std::thread::spawn(move || {
            serve(
                listener,
                opts,
                AcceptOptions {
                    max_inflight: 3,
                    max_submissions: Some(2),
                    shutdown: None,
                },
                |_| {},
            )
        });

        // Occupy one connection slot: handshake, then hold the conversation
        // open without submitting.
        let hold = TcpStream::connect(&addr).expect("connect");
        let mut hold_reader = BufReader::new(hold.try_clone().expect("clone"));
        let mut hold_writer = BufWriter::new(hold);
        send(
            &mut hold_writer,
            &Request::Hello2 {
                version: WIRE_VERSION.into(),
                features: base_features(),
            },
        )
        .expect("hello");
        assert!(matches!(
            recv::<Response>(&mut hold_reader).expect("hello back"),
            Some(Response::Hello2 { .. })
        ));

        // Both submissions complete while the first connection stays held.
        let spec = small_spec();
        let cold = submit(&addr, &spec, 1, |_, _, _| {}).expect("cold submit");
        assert_eq!(cold.misses, spec.cell_count() as u64);
        let warm = submit(&addr, &spec, 1, |_, _, _| {}).expect("warm submit");
        assert_eq!(warm.hits, spec.cell_count() as u64, "shared cache");
        assert_eq!(warm.report, cold.report);

        // Release the held slot so the drain can finish.
        drop(hold_writer);
        drop(hold_reader);
        let summary = server.join().expect("serve returns");
        assert_eq!(summary.submissions, 2);
        assert_eq!(summary.connections, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_flag_drains_and_stops_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let server = std::thread::spawn(move || {
            serve(
                listener,
                ServeOptions::default(),
                AcceptOptions {
                    max_inflight: 2,
                    max_submissions: None,
                    shutdown: Some(flag),
                },
                |_| {},
            )
        });
        // Serve one real submission first.
        let spec = small_spec();
        submit(&addr, &spec, 1, |_, _, _| {}).expect("submit");
        // Raise the flag; the watcher wakes the accept loop and serve
        // returns after the drain.
        shutdown.store(true, Ordering::Relaxed);
        let summary = server.join().expect("serve returns");
        assert_eq!(summary.submissions, 1);
        assert_eq!(summary.failed, 0);
    }
}
