//! Wire protocol between a sweep coordinator and its workers.
//!
//! Framing is a 4-byte little-endian payload length followed by the
//! payload; the payload is a 1-byte message tag followed by the message
//! fields. All integers are little-endian, floats travel as `f64::to_bits`
//! (so values merge back **bit-exact** — the basis of the byte-identical
//! CSV guarantee), and strings are a `u32` byte length plus UTF-8 bytes.
//!
//! The first exchange on every connection is a version handshake:
//! [`Message::Hello`] (worker → coordinator) answered by
//! [`Message::Welcome`] or [`Message::Reject`]. Everything after is
//! **coordinator-pushed**: the coordinator keeps each worker topped up
//! with a credit window of outstanding chunk leases ([`Message::Grant`];
//! `Welcome` advertises the *initial* window, which an adaptive
//! coordinator then resizes without telling the worker), the worker streams
//! [`Message::ChunkResult`] frames back as chunks finish, and
//! `Heartbeat` frames interleave from a side thread so the coordinator
//! can tell a slow worker from a dead one. There is no idle poll: a
//! worker with no work simply has nothing to read until the coordinator
//! pushes the next grant (v3's `Ready`/`Wait`/`Lease` pull cycle — one
//! network round-trip serialized in front of every chunk — is gone).
//!
//! Every encode/decode is exercised by a round-trip property test, and
//! decoding is strict: trailing bytes, truncated fields, unknown tags,
//! element counts the payload cannot hold, and over-limit frames are all
//! `InvalidData` errors rather than best-effort guesses. A mutation fuzz
//! loop checks that arbitrary bytes yield either such an error or a
//! message that re-encodes to exactly those bytes.

use std::io::{self, IoSlice, Read, Write};

use twocs_core::serialized::Method;
use twocs_core::sweep::{GridPoint, GridSweep, Workload};

/// Protocol version; bumped on any incompatible wire change. A
/// coordinator rejects workers that greet with a different version, so a
/// stale binary fails loudly at handshake instead of corrupting a sweep.
/// v2 widened the lease with the sweep workload and the MoE/PP/SP axis
/// fields on every grid point. v3 added the whole-grid axis lists plus
/// the grid fingerprint to every lease, so a worker can rebuild the
/// sweep once and reuse its factored plan across chunks. v4 replaced the
/// worker-driven `Ready`/`Lease`/`Wait` pull cycle with coordinator-
/// pushed multi-lease [`Message::Grant`] frames and a credit window
/// advertised in [`Message::Welcome`], so communication overlaps
/// computation instead of serializing in front of it.
pub const PROTOCOL_VERSION: u32 = 4;

/// Upper bound on one frame's payload, defending both sides against a
/// corrupt or hostile peer declaring a multi-gigabyte length. The
/// largest legitimate frame, a grant carrying a full adaptive window
/// ([`crate::window::MAX_WINDOW_POINTS`] grid points), is about 4.8 MB.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// The nine axis lists that define a sweep's grid, shipped with every
/// grant (a few hundred bytes even for a million-point grid — the point
/// counts multiply, the lists only add). Together with the grant's
/// `batch`/`method`/`workload` a worker can rebuild the full
/// [`GridSweep`] and amortize one whole-grid factored plan across every
/// chunk of the job, keyed by the grid fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxes {
    /// Hidden sizes.
    pub hs: Vec<u64>,
    /// Sequence lengths.
    pub sls: Vec<u64>,
    /// Tensor-parallel degrees.
    pub tps: Vec<u64>,
    /// Flop-vs-bw hardware-evolution ratios.
    pub flop_vs_bw: Vec<f64>,
    /// MoE expert counts.
    pub experts: Vec<u64>,
    /// Experts activated per token.
    pub top_ks: Vec<u64>,
    /// Pipeline stage counts.
    pub stages: Vec<u64>,
    /// Micro-batches per pipeline flush.
    pub micro_batches: Vec<u64>,
    /// Sequence-parallel degrees.
    pub sps: Vec<u64>,
}

impl SweepAxes {
    /// Capture a sweep's axis lists for the wire.
    #[must_use]
    pub fn from_sweep(sweep: &GridSweep) -> Self {
        Self {
            hs: sweep.hs.clone(),
            sls: sweep.sls.clone(),
            tps: sweep.tps.clone(),
            flop_vs_bw: sweep.flop_vs_bw.clone(),
            experts: sweep.experts.clone(),
            top_ks: sweep.top_ks.clone(),
            stages: sweep.stages.clone(),
            micro_batches: sweep.micro_batches.clone(),
            sps: sweep.sps.clone(),
        }
    }

    /// Rebuild the sweep these axes came from, completing it with the
    /// grant's sweep-level selectors.
    #[must_use]
    pub fn to_sweep(&self, batch: u64, method: Method, workload: Workload) -> GridSweep {
        GridSweep {
            hs: self.hs.clone(),
            sls: self.sls.clone(),
            tps: self.tps.clone(),
            flop_vs_bw: self.flop_vs_bw.clone(),
            experts: self.experts.clone(),
            top_ks: self.top_ks.clone(),
            stages: self.stages.clone(),
            micro_batches: self.micro_batches.clone(),
            sps: self.sps.clone(),
            batch,
            method,
            workload,
        }
    }
}

/// One chunk's worth of leased work inside a [`Message::Grant`]: the
/// chunk id plus its grid points in grid order. Job-level context
/// (device, axes, fingerprints) lives once on the grant, not per chunk —
/// a full credit window costs one frame and one copy of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkLease {
    /// Chunk id within the job.
    pub chunk: u32,
    /// The chunk's grid points, in grid order.
    pub points: Vec<GridPoint>,
}

/// One protocol message. See the module docs for the exchange sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator: version handshake opener.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Coordinator → worker: handshake accepted.
    Welcome {
        /// The coordinator's [`PROTOCOL_VERSION`] (equal to the worker's).
        version: u32,
        /// Coordinator-assigned worker id, used in logs and lease
        /// bookkeeping.
        worker_id: u64,
        /// How often the worker should send [`Message::Heartbeat`], in
        /// milliseconds. The coordinator treats ~3 missed beats as death.
        heartbeat_ms: u32,
        /// Initial credit window: how many chunk leases the coordinator
        /// keeps outstanding on this connection before it has measured
        /// anything. An adaptive coordinator grows it from there; a
        /// pinned one never moves it, and `1` degenerates to the lockstep
        /// v3 behavior (one chunk per network round-trip).
        pipeline: u32,
    },
    /// Coordinator → worker: handshake refused (version mismatch, shutdown).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Coordinator → worker: a batch of chunk leases, pushed whenever the
    /// worker's outstanding window has room. Replaces v3's per-chunk
    /// `Ready` → `Lease` round-trip.
    Grant {
        /// Sweep job id (guards against results from a previous sweep).
        job: u64,
        /// Catalog name of the **base** device (per-point flop-vs-bw
        /// evolution happens worker-side, inside `eval_grid_point`).
        device: String,
        /// Fingerprint of the base device; the worker verifies its
        /// catalog copy matches before computing.
        device_fingerprint: u64,
        /// Sweep batch size.
        batch: u64,
        /// Serialized-fraction evaluation method.
        method: Method,
        /// Sweep workload (training, prefill, or decode).
        workload: Workload,
        /// The whole sweep's axis lists, for worker-side plan reuse.
        /// Boxed so the rare-but-wide grant payload doesn't inflate
        /// every [`Message`] on the stack.
        axes: Box<SweepAxes>,
        /// `GridSweep::fingerprint()` of the sweep the axes describe;
        /// the worker's plan-cache key (with the device fingerprint)
        /// and a consistency check on the rebuilt sweep.
        grid_fingerprint: u64,
        /// The granted chunks, one lease each. Never empty on the wire.
        leases: Vec<ChunkLease>,
    },
    /// Coordinator → worker: the fabric is shutting down; exit cleanly.
    Done,
    /// Worker → coordinator: one evaluated chunk. `values[i]` pairs with
    /// the lease's `points[i]`; `Err` carries a panic message for that
    /// point (rendered as `error` cells, same as a local run).
    ChunkResult {
        /// Job id copied from the grant.
        job: u64,
        /// Chunk id copied from the lease.
        chunk: u32,
        /// Per-point `(serialized_pct, overlap_pct)` or panic message.
        values: Vec<Result<(f64, f64), String>>,
    },
    /// Worker → coordinator: liveness signal while idle or mid-compute.
    Heartbeat,
    /// Worker → coordinator: cannot evaluate this job (e.g. the device
    /// is not in the worker's catalog). The coordinator requeues the
    /// worker's whole outstanding window and releases it.
    Refuse {
        /// Job id copied from the grant.
        job: u64,
        /// Chunk id of the lease that triggered the refusal.
        chunk: u32,
        /// Why the grant was refused.
        reason: String,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_REJECT: u8 = 3;
// Tags 4–6 (`Ready`/`Lease`/`Wait`) were retired with the v3 pull
// protocol and are not reused, so a stale peer's frames fail decoding
// loudly instead of aliasing into new meanings.
const TAG_DONE: u8 = 7;
const TAG_CHUNK_RESULT: u8 = 8;
const TAG_HEARTBEAT: u8 = 9;
const TAG_REFUSE: u8 = 10;
const TAG_GRANT: u8 = 11;

/// Encoded size of one [`GridPoint`]: nine 8-byte fields.
const POINT_LEN: usize = 9 * 8;
/// Smallest encoded [`ChunkLease`]: chunk id plus an empty point list.
const LEASE_MIN_LEN: usize = 4 + 4;
/// Smallest encoded chunk result value: the `Err` tag plus an empty
/// message.
const RESULT_MIN_LEN: usize = 1 + 4;

fn method_to_wire(m: Method) -> u8 {
    match m {
        Method::Simulation => 0,
        Method::Projection => 1,
    }
}

fn method_from_wire(b: u8) -> io::Result<Method> {
    match b {
        0 => Ok(Method::Simulation),
        1 => Ok(Method::Projection),
        other => Err(bad(format!("unknown method byte {other}"))),
    }
}

fn workload_to_wire(w: Workload) -> u8 {
    match w {
        Workload::Training => 0,
        Workload::Prefill => 1,
        Workload::Decode => 2,
    }
}

fn workload_from_wire(b: u8) -> io::Result<Workload> {
    match b {
        0 => Ok(Workload::Training),
        1 => Ok(Workload::Prefill),
        2 => Ok(Workload::Decode),
        other => Err(bad(format!("unknown workload byte {other}"))),
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---- encoding ----------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_u64_list(buf: &mut Vec<u8>, vs: &[u64]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_u64(buf, v);
    }
}

fn put_f64_list(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_f64(buf, v);
    }
}

fn put_axes(buf: &mut Vec<u8>, axes: &SweepAxes) {
    put_u64_list(buf, &axes.hs);
    put_u64_list(buf, &axes.sls);
    put_u64_list(buf, &axes.tps);
    put_f64_list(buf, &axes.flop_vs_bw);
    put_u64_list(buf, &axes.experts);
    put_u64_list(buf, &axes.top_ks);
    put_u64_list(buf, &axes.stages);
    put_u64_list(buf, &axes.micro_batches);
    put_u64_list(buf, &axes.sps);
}

fn put_points(buf: &mut Vec<u8>, points: &[GridPoint]) {
    put_u32(buf, points.len() as u32);
    for p in points {
        put_u64(buf, p.h);
        put_u64(buf, p.sl);
        put_u64(buf, p.tp);
        put_f64(buf, p.ratio);
        put_u64(buf, p.experts);
        put_u64(buf, p.top_k);
        put_u64(buf, p.stages);
        put_u64(buf, p.micro_batches);
        put_u64(buf, p.sp);
    }
}

impl Message {
    /// Encode the message payload (tag + fields, no length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_payload(&mut buf);
        buf
    }

    /// Append the payload (tag + fields) to `buf` without clearing it.
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello { version } => {
                buf.push(TAG_HELLO);
                put_u32(buf, *version);
            }
            Message::Welcome {
                version,
                worker_id,
                heartbeat_ms,
                pipeline,
            } => {
                buf.push(TAG_WELCOME);
                put_u32(buf, *version);
                put_u64(buf, *worker_id);
                put_u32(buf, *heartbeat_ms);
                put_u32(buf, *pipeline);
            }
            Message::Reject { reason } => {
                buf.push(TAG_REJECT);
                put_str(buf, reason);
            }
            Message::Grant {
                job,
                device,
                device_fingerprint,
                batch,
                method,
                workload,
                axes,
                grid_fingerprint,
                leases,
            } => {
                buf.push(TAG_GRANT);
                put_u64(buf, *job);
                put_str(buf, device);
                put_u64(buf, *device_fingerprint);
                put_u64(buf, *batch);
                buf.push(method_to_wire(*method));
                buf.push(workload_to_wire(*workload));
                put_axes(buf, axes);
                put_u64(buf, *grid_fingerprint);
                put_u32(buf, leases.len() as u32);
                for lease in leases {
                    put_u32(buf, lease.chunk);
                    put_points(buf, &lease.points);
                }
            }
            Message::Done => buf.push(TAG_DONE),
            Message::ChunkResult { job, chunk, values } => {
                buf.push(TAG_CHUNK_RESULT);
                put_u64(buf, *job);
                put_u32(buf, *chunk);
                put_u32(buf, values.len() as u32);
                for v in values {
                    match v {
                        Ok((a, b)) => {
                            buf.push(0);
                            put_f64(buf, *a);
                            put_f64(buf, *b);
                        }
                        Err(e) => {
                            buf.push(1);
                            put_str(buf, e);
                        }
                    }
                }
            }
            Message::Heartbeat => buf.push(TAG_HEARTBEAT),
            Message::Refuse { job, chunk, reason } => {
                buf.push(TAG_REFUSE);
                put_u64(buf, *job);
                put_u32(buf, *chunk);
                put_str(buf, reason);
            }
        }
    }

    /// Append one length-prefixed frame to `buf` and return its size on
    /// the wire. The length prefix is patched in after encoding, so one
    /// reused buffer serves any number of frames with **zero
    /// allocations at steady state** — the writer threads' hot path.
    pub fn append_frame(&self, buf: &mut Vec<u8>) -> usize {
        let start = buf.len();
        buf.extend_from_slice(&[0u8; 4]);
        self.encode_payload(buf);
        let payload_len = buf.len() - start - 4;
        debug_assert!(payload_len as u32 <= MAX_FRAME_LEN);
        buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        buf.len() - start
    }

    /// Decode one payload produced by [`Message::encode`]. Strict:
    /// truncated fields, trailing bytes, and unknown tags are errors.
    pub fn decode(payload: &[u8]) -> io::Result<Message> {
        let mut r = Reader {
            buf: payload,
            at: 0,
        };
        let tag = r.u8()?;
        let msg = match tag {
            TAG_HELLO => Message::Hello { version: r.u32()? },
            TAG_WELCOME => Message::Welcome {
                version: r.u32()?,
                worker_id: r.u64()?,
                heartbeat_ms: r.u32()?,
                pipeline: r.u32()?,
            },
            TAG_REJECT => Message::Reject {
                reason: r.string()?,
            },
            TAG_GRANT => {
                let job = r.u64()?;
                let device = r.string()?;
                let device_fingerprint = r.u64()?;
                let batch = r.u64()?;
                let method = method_from_wire(r.u8()?)?;
                let workload = workload_from_wire(r.u8()?)?;
                let axes = SweepAxes {
                    hs: r.u64_list()?,
                    sls: r.u64_list()?,
                    tps: r.u64_list()?,
                    flop_vs_bw: r.f64_list()?,
                    experts: r.u64_list()?,
                    top_ks: r.u64_list()?,
                    stages: r.u64_list()?,
                    micro_batches: r.u64_list()?,
                    sps: r.u64_list()?,
                };
                let axes = Box::new(axes);
                let grid_fingerprint = r.u64()?;
                let n = r.count(LEASE_MIN_LEN)?;
                let mut leases = Vec::with_capacity(n);
                for _ in 0..n {
                    let chunk = r.u32()?;
                    let points = r.points()?;
                    leases.push(ChunkLease { chunk, points });
                }
                Message::Grant {
                    job,
                    device,
                    device_fingerprint,
                    batch,
                    method,
                    workload,
                    axes,
                    grid_fingerprint,
                    leases,
                }
            }
            TAG_DONE => Message::Done,
            TAG_CHUNK_RESULT => {
                let job = r.u64()?;
                let chunk = r.u32()?;
                let n = r.count(RESULT_MIN_LEN)?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(match r.u8()? {
                        0 => Ok((f64::from_bits(r.u64()?), f64::from_bits(r.u64()?))),
                        1 => Err(r.string()?),
                        other => return Err(bad(format!("unknown result tag {other}"))),
                    });
                }
                Message::ChunkResult { job, chunk, values }
            }
            TAG_HEARTBEAT => Message::Heartbeat,
            TAG_REFUSE => Message::Refuse {
                job: r.u64()?,
                chunk: r.u32()?,
                reason: r.string()?,
            },
            other => return Err(bad(format!("unknown message tag {other}"))),
        };
        if r.at != payload.len() {
            return Err(bad(format!(
                "{} trailing bytes after message tag {tag}",
                payload.len() - r.at
            )));
        }
        Ok(msg)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated message"))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` element count for elements of at least `min_len` encoded
    /// bytes each, rejected unless that many could fit in the rest of
    /// the payload. Decoded elements are far larger in memory than on
    /// the wire, so this is what bounds `Vec::with_capacity(n)`: a
    /// hostile 16 MiB frame cannot reserve gigabytes up front.
    fn count(&mut self, min_len: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_len) > self.buf.len() - self.at {
            return Err(bad(format!("element count {n} exceeds payload")));
        }
        Ok(n)
    }

    fn string(&mut self) -> io::Result<String> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| bad("invalid UTF-8 in string"))
    }

    fn u64_list(&mut self) -> io::Result<Vec<u64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn f64_list(&mut self) -> io::Result<Vec<f64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64().map(f64::from_bits)).collect()
    }

    fn points(&mut self) -> io::Result<Vec<GridPoint>> {
        let n = self.count(POINT_LEN)?;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(GridPoint {
                h: self.u64()?,
                sl: self.u64()?,
                tp: self.u64()?,
                ratio: f64::from_bits(self.u64()?),
                experts: self.u64()?,
                top_k: self.u64()?,
                stages: self.u64()?,
                micro_batches: self.u64()?,
                sp: self.u64()?,
            });
        }
        Ok(points)
    }
}

// ---- framing -----------------------------------------------------------

/// Write one length-prefixed frame; returns total bytes on the wire
/// (callers feed this into the `dist.bytes_tx` counter).
pub fn write_frame(w: &mut impl Write, msg: &Message) -> io::Result<usize> {
    let mut frame = Vec::new();
    let n = msg.append_frame(&mut frame);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(n)
}

/// Write a batch of frames with one vectored syscall where the platform
/// allows, reusing `scratch`'s per-frame buffers so the steady state
/// allocates nothing. Returns total bytes on the wire.
pub fn write_batch(
    w: &mut impl Write,
    msgs: &[Message],
    scratch: &mut Vec<Vec<u8>>,
) -> io::Result<usize> {
    if msgs.is_empty() {
        return Ok(0);
    }
    if scratch.len() < msgs.len() {
        scratch.resize_with(msgs.len(), Vec::new);
    }
    let mut total = 0usize;
    for (msg, buf) in msgs.iter().zip(scratch.iter_mut()) {
        buf.clear();
        total += msg.append_frame(buf);
    }
    let mut slices: Vec<IoSlice<'_>> = scratch[..msgs.len()]
        .iter()
        .map(|b| IoSlice::new(b))
        .collect();
    let mut rest: &mut [IoSlice<'_>] = &mut slices;
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "batch write stalled",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()?;
    Ok(total)
}

/// Read one length-prefixed frame; returns the message and total bytes
/// read. Propagates the reader's timeout/EOF errors untouched so callers
/// can distinguish a silent peer from a malformed one.
pub fn read_frame(r: &mut impl Read) -> io::Result<(Message, usize)> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(bad(format!("frame length {len} exceeds {MAX_FRAME_LEN}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let msg = Message::decode(&payload)?;
    Ok((msg, 4 + payload.len()))
}

/// Incremental frame extraction over a **nonblocking** byte stream: the
/// coordinator's poll-driven connection state machines [`fill`] raw
/// bytes whenever the socket is readable and pop complete frames with
/// [`next_frame`], without ever blocking mid-frame the way
/// [`read_frame`]'s `read_exact` would.
///
/// [`fill`]: FrameReader::fill
/// [`next_frame`]: FrameReader::next_frame
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    at: usize,
}

/// Compact the consumed prefix away once it outgrows this, so the buffer
/// neither reallocates per frame nor grows without bound.
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Read once from `r` into the internal buffer, returning the byte
    /// count (0 = EOF). `WouldBlock`/`Interrupted` pass through untouched
    /// so nonblocking callers can keep their readiness loop simple.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at > COMPACT_THRESHOLD {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        let mut tmp = [0u8; 64 * 1024];
        let n = r.read(&mut tmp)?;
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(n)
    }

    /// Pop the next complete frame, if the buffer holds one. Returns the
    /// message plus its size on the wire; `Ok(None)` means "need more
    /// bytes", errors mean the stream is corrupt.
    pub fn next_frame(&mut self) -> io::Result<Option<(Message, usize)>> {
        let avail = &self.buf[self.at..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(bad(format!("frame length {len} exceeds {MAX_FRAME_LEN}")));
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let msg = Message::decode(&avail[4..4 + len])?;
        self.at += 4 + len;
        Ok(Some((msg, 4 + len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_axes() -> SweepAxes {
        SweepAxes {
            hs: vec![4096],
            sls: vec![2048],
            tps: vec![16],
            flop_vs_bw: vec![2.0],
            experts: vec![1],
            top_ks: vec![1],
            stages: vec![1],
            micro_batches: vec![1],
            sps: vec![1],
        }
    }

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
            },
            Message::Welcome {
                version: PROTOCOL_VERSION,
                worker_id: 7,
                heartbeat_ms: 500,
                pipeline: 4,
            },
            Message::Reject {
                reason: "version mismatch".to_owned(),
            },
            Message::Grant {
                job: 3,
                device: "MI210".to_owned(),
                device_fingerprint: 0xDEAD_BEEF,
                batch: 1,
                method: Method::Projection,
                workload: Workload::Training,
                axes: Box::new(SweepAxes::from_sweep(&GridSweep::default())),
                grid_fingerprint: 0x0123_4567_89AB_CDEF,
                leases: vec![
                    ChunkLease {
                        chunk: 11,
                        points: vec![
                            GridPoint::new(4096, 2048, 16, 1.0),
                            GridPoint {
                                experts: 8,
                                top_k: 2,
                                stages: 4,
                                micro_batches: 8,
                                sp: 2,
                                ..GridPoint::new(16_384, 4096, 64, 4.0)
                            },
                        ],
                    },
                    ChunkLease {
                        chunk: 12,
                        points: vec![GridPoint::new(4096, 4096, 64, 2.0)],
                    },
                ],
            },
            Message::Grant {
                job: 4,
                device: "MI210".to_owned(),
                device_fingerprint: 1,
                batch: 8,
                method: Method::Projection,
                workload: Workload::Decode,
                axes: Box::new(sample_axes()),
                grid_fingerprint: 7,
                leases: vec![ChunkLease {
                    chunk: 0,
                    points: vec![GridPoint::new(4096, 2048, 16, 2.0)],
                }],
            },
            Message::Done,
            Message::ChunkResult {
                job: 3,
                chunk: 11,
                values: vec![
                    Ok((21.653_234, 47.25)),
                    Err("point panicked: tp exceeds heads".to_owned()),
                ],
            },
            Message::Heartbeat,
            Message::Refuse {
                job: 3,
                chunk: 11,
                reason: "unknown device `TPUv9`".to_owned(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let decoded = Message::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn float_values_round_trip_bit_exact() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, f64::NAN] {
            let msg = Message::ChunkResult {
                job: 0,
                chunk: 0,
                values: vec![Ok((v, -v))],
            };
            let Message::ChunkResult { values, .. } = Message::decode(&msg.encode()).unwrap()
            else {
                panic!("wrong variant");
            };
            let Ok((a, b)) = values[0] else {
                panic!("wrong result arm")
            };
            assert_eq!(a.to_bits(), v.to_bits());
            assert_eq!(b.to_bits(), (-v).to_bits());
        }
    }

    #[test]
    fn framing_round_trips_over_a_byte_stream() {
        let mut wire = Vec::new();
        let mut written = 0;
        for msg in samples() {
            written += write_frame(&mut wire, &msg).unwrap();
        }
        assert_eq!(written, wire.len());
        let mut cursor = std::io::Cursor::new(wire);
        let mut read_bytes = 0;
        for expected in samples() {
            let (msg, n) = read_frame(&mut cursor).unwrap();
            assert_eq!(msg, expected);
            read_bytes += n;
        }
        assert_eq!(read_bytes, written);
    }

    #[test]
    fn batched_vectored_writes_match_frame_by_frame_bytes() {
        let msgs = samples();
        let mut frame_by_frame = Vec::new();
        for msg in &msgs {
            write_frame(&mut frame_by_frame, msg).unwrap();
        }
        let mut batched = Vec::new();
        let mut scratch = Vec::new();
        let n = write_batch(&mut batched, &msgs, &mut scratch).unwrap();
        assert_eq!(batched, frame_by_frame, "identical bytes on the wire");
        assert_eq!(n, batched.len());
        // Steady state: the second batch reuses every scratch buffer.
        let caps: Vec<usize> = scratch.iter().map(Vec::capacity).collect();
        let mut again = Vec::new();
        write_batch(&mut again, &msgs, &mut scratch).unwrap();
        assert_eq!(again, frame_by_frame);
        assert_eq!(
            caps,
            scratch.iter().map(Vec::capacity).collect::<Vec<_>>(),
            "reused buffers must not reallocate"
        );
    }

    #[test]
    fn frame_reader_reassembles_frames_from_arbitrary_splits() {
        let msgs = samples();
        let mut wire = Vec::new();
        for msg in &msgs {
            write_frame(&mut wire, msg).unwrap();
        }
        // Drip the stream through the reader in adversarial slice sizes,
        // including 1-byte reads that split every length prefix.
        twocs_testkit::cases(16, |rng| {
            let mut reader = FrameReader::new();
            let mut decoded = Vec::new();
            let mut at = 0usize;
            while at < wire.len() {
                let step = rng.usize_in(1..64).min(wire.len() - at);
                let mut cursor = std::io::Cursor::new(&wire[at..at + step]);
                let n = reader.fill(&mut cursor).unwrap();
                assert_eq!(n, step);
                at += step;
                while let Some((msg, _)) = reader.next_frame().unwrap() {
                    decoded.push(msg);
                }
            }
            assert_eq!(decoded, msgs);
        });
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let good = Message::Welcome {
            version: 1,
            worker_id: 2,
            heartbeat_ms: 3,
            pipeline: 4,
        }
        .encode();
        for cut in 1..good.len() {
            assert!(
                Message::decode(&good[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Message::decode(&trailing).is_err());
        assert!(Message::decode(&[99]).is_err(), "unknown tag");
        // Retired v3 pull-cycle tags must not decode as anything.
        for retired in [4u8, 5, 6] {
            assert!(
                Message::decode(&[retired]).is_err(),
                "retired tag {retired} must stay invalid"
            );
        }
    }

    #[test]
    fn oversized_frames_and_bogus_counts_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(wire.clone())).is_err());
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        reader.fill(&mut cursor).unwrap();
        assert!(reader.next_frame().is_err(), "FrameReader rejects it too");

        // A ChunkResult claiming u32::MAX values with a tiny payload must
        // fail fast instead of allocating.
        let mut payload = vec![super::TAG_CHUNK_RESULT];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Message::decode(&payload).is_err());
    }

    /// Property coverage for the v4 grant framing: random multi-lease
    /// windows over the widened `GridPoint` (MoE/PP/SP axes) and every
    /// workload must survive encode → decode bit-exact, ratio included —
    /// through both the one-shot codec and the incremental
    /// [`FrameReader`].
    #[test]
    fn multi_lease_grant_round_trip_property() {
        twocs_testkit::cases(64, |rng| {
            let workload = match rng.u64_in(0..3) {
                0 => Workload::Training,
                1 => Workload::Prefill,
                _ => Workload::Decode,
            };
            let n_leases = rng.usize_in(1..8);
            let leases: Vec<ChunkLease> = rng.vec_of(n_leases, |r| {
                let n = r.usize_in(0..12);
                ChunkLease {
                    chunk: r.u32_in(0..10_000),
                    points: r.vec_of(n, |r| GridPoint {
                        h: r.u64_in(256..65_537),
                        sl: r.u64_in(1..8193),
                        tp: r.u64_in(1..257),
                        ratio: r.f64_in(1.0..16.0),
                        experts: r.u64_in(1..65),
                        top_k: r.u64_in(1..9),
                        stages: r.u64_in(1..17),
                        micro_batches: r.u64_in(1..33),
                        sp: r.u64_in(1..17),
                    }),
                }
            });
            let mut list = |hi: u64| {
                let len = rng.usize_in(1..4);
                rng.vec_of(len, |r| r.u64_in(1..hi))
            };
            let axes = SweepAxes {
                hs: list(65_537),
                sls: list(8193),
                tps: list(257),
                experts: list(65),
                top_ks: list(9),
                stages: list(17),
                micro_batches: list(33),
                sps: list(17),
                flop_vs_bw: {
                    let len = rng.usize_in(1..4);
                    rng.vec_of(len, |r| r.f64_in(1.0..16.0))
                },
            };
            let msg = Message::Grant {
                job: rng.next_u64(),
                device: "MI210".to_owned(),
                device_fingerprint: rng.next_u64(),
                batch: rng.u64_in(1..64),
                method: Method::Projection,
                workload,
                axes: Box::new(axes),
                grid_fingerprint: rng.next_u64(),
                leases,
            };
            assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
            let mut wire = Vec::new();
            let written = write_frame(&mut wire, &msg).unwrap();
            let mut reader = FrameReader::new();
            let mut cursor = std::io::Cursor::new(wire);
            reader.fill(&mut cursor).unwrap();
            let (decoded, n) = reader.next_frame().unwrap().expect("complete frame");
            assert_eq!(decoded, msg);
            assert_eq!(n, written);
        });
    }

    /// Pipelined result frames: a burst of back-to-back `ChunkResult`
    /// frames — what a double-buffered worker's writer thread flushes —
    /// round-trips through the batched vectored writer and the
    /// incremental reader without loss or reordering.
    #[test]
    fn pipelined_result_burst_round_trip_property() {
        twocs_testkit::cases(64, |rng| {
            let n_msgs = rng.usize_in(1..10);
            let msgs: Vec<Message> = rng.vec_of(n_msgs, |r| {
                let n = r.usize_in(0..20);
                let values: Vec<Result<(f64, f64), String>> = r.vec_of(n, |r| {
                    if r.bool() {
                        Ok((r.f64_in(-1e6..1e6), r.f64_in(0.0..200.0)))
                    } else {
                        Err(format!("case error {}", r.u64_in(0..1000)))
                    }
                });
                Message::ChunkResult {
                    job: r.next_u64(),
                    chunk: r.u32_in(0..10_000),
                    values,
                }
            });
            let mut wire = Vec::new();
            let mut scratch = Vec::new();
            let written = write_batch(&mut wire, &msgs, &mut scratch).unwrap();
            assert_eq!(written, wire.len());
            let mut reader = FrameReader::new();
            let mut cursor = std::io::Cursor::new(wire);
            while reader.fill(&mut cursor).unwrap() > 0 {}
            let mut decoded = Vec::new();
            while let Some((msg, _)) = reader.next_frame().unwrap() {
                decoded.push(msg);
            }
            assert_eq!(decoded, msgs);
        });
    }

    /// A 512-lease grant: the deep-window frame an adaptive coordinator
    /// sends once the round trip is measured.
    fn deep_grant() -> Message {
        Message::Grant {
            job: 9,
            device: "MI210".to_owned(),
            device_fingerprint: 0xFEED,
            batch: 1,
            method: Method::Projection,
            workload: Workload::Prefill,
            axes: Box::new(sample_axes()),
            grid_fingerprint: 0xC0FFEE,
            leases: (0..512)
                .map(|c| ChunkLease {
                    chunk: c,
                    points: vec![GridPoint::new(4096, 2048, 16, 1.0 + f64::from(c)); 2],
                })
                .collect(),
        }
    }

    /// Every decoder must turn `frame` into a typed error or into a
    /// message that re-encodes to exactly the bytes it came from.
    fn assert_decoders_are_total(frame: &[u8]) {
        if let Some(payload) = frame.get(4..) {
            if let Ok(msg) = Message::decode(payload) {
                assert_eq!(msg.encode(), payload, "{msg:?} re-encodes differently");
            }
        }
        let reencode = |msg: &Message| {
            let mut bytes = Vec::new();
            msg.append_frame(&mut bytes);
            bytes
        };
        if let Ok((msg, n)) = read_frame(&mut std::io::Cursor::new(frame)) {
            assert_eq!(reencode(&msg), &frame[..n]);
        }
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(frame);
        while reader.fill(&mut cursor).unwrap() > 0 {}
        let mut at = 0;
        while let Ok(Some((msg, n))) = reader.next_frame() {
            assert_eq!(reencode(&msg), &frame[at..at + n]);
            at += n;
        }
    }

    /// Std-only mutation fuzzing of `Message::decode`, `read_frame` and
    /// `FrameReader`: seed frames from the round-trip vectors plus a
    /// 512-lease grant, then bit flips, truncation, extension and forged
    /// length prefixes (the frame's own and the counts inside it). The
    /// decoders must never panic or over-allocate.
    #[test]
    fn decoders_survive_mutated_frames() {
        let seeds: Vec<Vec<u8>> = samples()
            .iter()
            .chain([deep_grant()].iter())
            .map(|msg| {
                let mut frame = Vec::new();
                msg.append_frame(&mut frame);
                frame
            })
            .collect();
        for frame in &seeds {
            assert_decoders_are_total(frame);
        }
        twocs_testkit::cases(1500, |rng| {
            let mut frame = rng.choose(&seeds).clone();
            for _ in 0..rng.usize_in(1..4) {
                let len = frame.len();
                match rng.u32_in(0..5) {
                    0 if len > 0 => {
                        let i = rng.usize_in(0..len);
                        frame[i] ^= 1 << rng.u32_in(0..8);
                    }
                    1 => frame.truncate(rng.usize_in(0..len + 1)),
                    2 => {
                        let extra = rng.usize_in(1..32);
                        frame.extend((0..extra).map(|_| rng.u32_in(0..256) as u8));
                    }
                    // Forge a length prefix: the frame's own, or any
                    // 4-byte window that might be an element count.
                    3 | 4 if len >= 4 => {
                        let at = if rng.bool() {
                            0
                        } else {
                            rng.usize_in(0..len - 3)
                        };
                        let forged = match rng.u32_in(0..4) {
                            0 => u32::MAX,
                            1 => MAX_FRAME_LEN,
                            2 => rng.u32_in(0..len as u32 + 8),
                            _ => rng.next_u64() as u32,
                        };
                        frame[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                    }
                    _ => frame.push(0),
                }
            }
            assert_decoders_are_total(&frame);
        });
    }

    /// An element count that fits the remaining payload as bytes but not
    /// as encoded elements is rejected before anything is reserved.
    #[test]
    fn element_counts_are_bounded_by_their_encoded_size() {
        let Message::Grant { leases, .. } = deep_grant() else {
            unreachable!()
        };
        let grant = Message::Grant {
            job: 1,
            device: String::new(),
            device_fingerprint: 0,
            batch: 1,
            method: Method::Projection,
            workload: Workload::Training,
            axes: Box::new(sample_axes()),
            grid_fingerprint: 0,
            leases: leases[..1].to_vec(),
        };
        let payload = grant.encode();
        // The lone lease's point count sits 8 + 2×72 bytes from the end;
        // claim one point more than the remaining 144 bytes can encode.
        let at = payload.len() - 2 * POINT_LEN - 4;
        assert_eq!(payload[at..at + 4], 2u32.to_le_bytes());
        let mut forged = payload.clone();
        forged[at..at + 4].copy_from_slice(&3u32.to_le_bytes());
        let err = Message::decode(&forged).unwrap_err();
        assert!(err.to_string().contains("exceeds payload"), "{err}");
        // A result count of remaining/5 + 1 cannot fit either.
        let mut payload = vec![TAG_CHUNK_RESULT];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.extend_from_slice(&[1, 0, 0, 0, 0].repeat(4));
        assert!(Message::decode(&payload)
            .unwrap_err()
            .to_string()
            .contains("exceeds payload"));
    }
}
