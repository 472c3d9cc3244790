//! Wire protocol between a sweep coordinator and its workers.
//!
//! Framing is a 4-byte little-endian payload length followed by the
//! payload; the payload is a 1-byte message tag followed by the message
//! fields. All integers are little-endian, floats travel as `f64::to_bits`
//! (so values merge back **bit-exact** — the basis of the byte-identical
//! CSV guarantee), and strings are a `u32` byte length plus UTF-8 bytes.
//! A sweep spec and a chunk's results are encoded by `twocs-store`
//! ([`SweepSpec::encode`], [`twocs_store::put_values`]), the same bytes
//! the journal stores, so the wire has no codec of its own for either.
//!
//! The first exchange on every connection is a version handshake:
//! [`Message::Hello`] (worker → coordinator) answered by
//! [`Message::Welcome`] or [`Message::Reject`]. Everything after is
//! **coordinator-pushed**. Before a connection's first grant of a job,
//! the coordinator sends that job once as a [`Message::Job`]: its id, its
//! [`SweepSpec`] (grid axes, chunk size, device) and the spec's
//! fingerprint. It then keeps the worker topped up with a credit window
//! of outstanding chunk leases, each [`Message::Grant`] naming chunk ids
//! only; the worker decodes each chunk's grid points from the spec itself.
//! (`Welcome` advertises the *initial* window, which an adaptive
//! coordinator then resizes without telling the worker.) The worker
//! streams [`Message::ChunkResult`] frames back as chunks finish, and
//! `Heartbeat` frames interleave from a side thread so the coordinator
//! can tell a slow worker from a dead one. A worker that cannot evaluate
//! a job answers its `Job` with [`Message::Refuse`]. There is no idle
//! poll: a worker with no work simply has nothing to read until the
//! coordinator pushes the next grant.
//!
//! Every encode/decode is exercised by a round-trip property test, and
//! decoding is strict: trailing bytes, truncated fields, unknown tags,
//! element counts the payload cannot hold, and over-limit frames are all
//! `InvalidData` errors rather than best-effort guesses. A mutation fuzz
//! loop checks that arbitrary bytes yield either such an error or a
//! message that re-encodes to exactly those bytes.

use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

use twocs_core::PointResults;
use twocs_store::{put_values, read_values, SweepSpec};

/// Protocol version; bumped on any incompatible wire change. A
/// coordinator rejects workers that greet with a different version, so a
/// stale binary fails loudly at handshake instead of corrupting a sweep.
/// v2 widened the lease with the sweep workload and the MoE/PP/SP axis
/// fields on every grid point. v3 added the whole-grid axis lists plus
/// the grid fingerprint to every lease. v4 replaced the worker-driven
/// `Ready`/`Lease`/`Wait` pull cycle with coordinator-pushed multi-lease
/// grants and a credit window advertised in [`Message::Welcome`]. v5
/// sends each job once per connection as a [`Message::Job`] in the
/// journal's spec encoding, and a grant names chunk ids instead of
/// carrying grid points, so the wire no longer grows with points.
pub const PROTOCOL_VERSION: u32 = 5;

/// Upper bound on one frame's payload, defending both sides against a
/// corrupt or hostile peer declaring a multi-gigabyte length. Legitimate
/// frames are far smaller: a grant costs 4 B per chunk id, a job a few
/// hundred bytes, a result 17 B per point.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Most chunk ids one [`Message::Grant`] frame carries (256 KiB); a
/// larger pinned window is granted across several frames.
pub(crate) const MAX_GRANT_CHUNKS: usize = 65_536;

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
        /// pinned one never moves it, and `1` degenerates to lockstep
        /// (one chunk per network round-trip).
        pipeline: u32,
    },
    /// Coordinator → worker: handshake refused (version mismatch, shutdown).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Coordinator → worker: the job every following [`Message::Grant`]
    /// with this id draws from, sent once per connection before its first
    /// grant.
    Job {
        /// Sweep job id (guards against results from a previous sweep).
        job: u64,
        /// [`SweepSpec::fingerprint`] of `spec`; the worker refuses a
        /// job whose decoded spec hashes differently, and keys its plan
        /// cache by it.
        fingerprint: u64,
        /// The grid, chunk size and base device (a catalog name plus
        /// fingerprint; per-point flop-vs-bw evolution happens
        /// worker-side), in the journal's encoding.
        spec: Arc<SweepSpec>,
    },
    /// Coordinator → worker: a batch of chunk leases of an announced job,
    /// pushed whenever the worker's outstanding window has room.
    Grant {
        /// Job id from the connection's latest [`Message::Job`].
        job: u64,
        /// Granted chunk ids, each below the spec's chunk count. Never
        /// empty on the wire.
        chunks: Vec<u32>,
    },
    /// Coordinator → worker: the fabric is shutting down; exit cleanly.
    Done,
    /// Worker → coordinator: one evaluated chunk. `values[i]` pairs with
    /// the chunk's `i`-th grid point; `Err` carries a panic message for
    /// that point (rendered as `error` cells, same as a local run).
    ChunkResult {
        /// Job id copied from the grant.
        job: u64,
        /// Chunk id copied from the grant.
        chunk: u32,
        /// Per-point `(serialized_pct, overlap_pct)` or panic message.
        values: PointResults,
    },
    /// Worker → coordinator: liveness signal while idle or mid-compute.
    Heartbeat,
    /// Worker → coordinator: cannot evaluate this job (a fingerprint
    /// mismatch, an invalid grid, a device not in the worker's catalog).
    /// The coordinator records the reason, requeues the worker's whole
    /// outstanding window and releases it.
    Refuse {
        /// Job id copied from the [`Message::Job`].
        job: u64,
        /// Why the job was refused.
        reason: String,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_REJECT: u8 = 3;
// Retired tags are never reused, so a stale peer's frames fail decoding
// loudly instead of aliasing into new meanings: 4–6 (`Ready`/`Lease`/
// `Wait`) went with the v3 pull protocol, 10–11 (the per-chunk `Refuse`
// and the point-carrying `Grant`) with v4.
const TAG_DONE: u8 = 7;
const TAG_CHUNK_RESULT: u8 = 8;
const TAG_HEARTBEAT: u8 = 9;
const TAG_JOB: u8 = 12;
const TAG_GRANT: u8 = 13;
const TAG_REFUSE: u8 = 14;

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

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
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
                put_bytes(buf, reason.as_bytes());
            }
            Message::Job {
                job,
                fingerprint,
                spec,
            } => {
                buf.push(TAG_JOB);
                put_u64(buf, *job);
                put_u64(buf, *fingerprint);
                put_bytes(buf, &spec.encode());
            }
            Message::Grant { job, chunks } => {
                buf.push(TAG_GRANT);
                put_u64(buf, *job);
                put_u32(buf, chunks.len() as u32);
                for &chunk in chunks {
                    put_u32(buf, chunk);
                }
            }
            Message::Done => buf.push(TAG_DONE),
            Message::ChunkResult { job, chunk, values } => {
                buf.push(TAG_CHUNK_RESULT);
                put_u64(buf, *job);
                put_u32(buf, *chunk);
                put_values(buf, values);
            }
            Message::Heartbeat => buf.push(TAG_HEARTBEAT),
            Message::Refuse { job, reason } => {
                buf.push(TAG_REFUSE);
                put_u64(buf, *job);
                put_bytes(buf, reason.as_bytes());
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
            TAG_JOB => Message::Job {
                job: r.u64()?,
                fingerprint: r.u64()?,
                spec: Arc::new(SweepSpec::decode(r.bytes()?).map_err(bad)?),
            },
            TAG_GRANT => {
                let job = r.u64()?;
                let n = r.count(4)?;
                let chunks = (0..n).map(|_| r.u32()).collect::<io::Result<_>>()?;
                Message::Grant { job, chunks }
            }
            TAG_DONE => Message::Done,
            TAG_CHUNK_RESULT => Message::ChunkResult {
                job: r.u64()?,
                chunk: r.u32()?,
                values: read_values(r.rest()).map_err(bad)?,
            },
            TAG_HEARTBEAT => Message::Heartbeat,
            TAG_REFUSE => Message::Refuse {
                job: r.u64()?,
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

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
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

    /// A length-prefixed byte string.
    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }

    fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| bad("invalid UTF-8 in string"))
    }

    /// The rest of the payload (a trailing store-encoded field).
    fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.at..];
        self.at = self.buf.len();
        rest
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
    use twocs_core::serialized::Method;
    use twocs_core::sweep::{GridSweep, Workload};

    fn sample_spec() -> Arc<SweepSpec> {
        Arc::new(SweepSpec {
            sweep: GridSweep {
                experts: vec![1, 8],
                top_ks: vec![2],
                stages: vec![1, 4],
                workload: Workload::Decode,
                ..GridSweep::default()
            },
            chunk_size: 4,
            device_name: "MI210".to_owned(),
            device_fingerprint: 0xDEAD_BEEF,
        })
    }

    fn job_message(job: u64, spec: Arc<SweepSpec>) -> Message {
        Message::Job {
            job,
            fingerprint: spec.fingerprint(),
            spec,
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
            job_message(3, sample_spec()),
            Message::Grant {
                job: 3,
                chunks: vec![11, 12],
            },
            Message::Grant {
                job: 4,
                chunks: vec![0],
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
                reason: "device `TPUv9` not in this worker's catalog".to_owned(),
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
        // Retired v3 pull-cycle tags and v4's Refuse/Grant tags must not
        // decode as anything.
        for retired in [4u8, 5, 6, 10, 11] {
            assert!(
                Message::decode(&[retired]).is_err(),
                "retired tag {retired} must stay invalid"
            );
        }
    }

    /// A whole v4 `Grant` frame (tag 11: device, axes, fingerprints and
    /// 72-byte grid points) fails to decode instead of aliasing into a
    /// v5 message.
    #[test]
    fn a_v4_grant_frame_fails_to_decode() {
        let mut v4 = vec![11u8];
        v4.extend_from_slice(&3u64.to_le_bytes()); // job
        v4.extend_from_slice(&5u32.to_le_bytes()); // device name
        v4.extend_from_slice(b"MI210");
        v4.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes()); // device fp
        v4.extend_from_slice(&1u64.to_le_bytes()); // batch
        v4.extend_from_slice(&[1, 0]); // method, workload
        for axis in [4096u64, 2048, 16, 2f64.to_bits(), 1, 1, 1, 1, 1] {
            v4.extend_from_slice(&1u32.to_le_bytes());
            v4.extend_from_slice(&axis.to_le_bytes());
        }
        v4.extend_from_slice(&7u64.to_le_bytes()); // grid fp
        v4.extend_from_slice(&1u32.to_le_bytes()); // one lease
        v4.extend_from_slice(&0u32.to_le_bytes()); // chunk 0
        v4.extend_from_slice(&1u32.to_le_bytes()); // one point
        for field in [4096u64, 2048, 16, 2f64.to_bits(), 1, 1, 1, 1, 1] {
            v4.extend_from_slice(&field.to_le_bytes());
        }
        let err = Message::decode(&v4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown message tag 11"), "{err}");
        let mut frame = (v4.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&v4);
        assert!(read_frame(&mut std::io::Cursor::new(frame)).is_err());
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

    /// Property coverage for the v5 job and grant framing: random specs
    /// over every axis and workload, and random chunk-id windows, must
    /// survive encode → decode bit-exact, ratios included — through both
    /// the one-shot codec and the incremental [`FrameReader`].
    #[test]
    fn multi_lease_grant_round_trip_property() {
        twocs_testkit::cases(64, |rng| {
            let workload = match rng.u64_in(0..3) {
                0 => Workload::Training,
                1 => Workload::Prefill,
                _ => Workload::Decode,
            };
            let mut list = |hi: u64| {
                let len = rng.usize_in(1..4);
                rng.vec_of(len, |r| r.u64_in(1..hi))
            };
            let sweep = GridSweep {
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
                batch: rng.u64_in(1..64),
                method: Method::Projection,
                workload,
            };
            let spec = Arc::new(SweepSpec {
                sweep,
                chunk_size: rng.u32_in(1..64),
                device_name: "MI210".to_owned(),
                device_fingerprint: rng.next_u64(),
            });
            let job = rng.next_u64();
            let n_chunks = rng.usize_in(1..64);
            let grant = Message::Grant {
                job,
                chunks: rng.vec_of(n_chunks, |r| r.u32_in(0..10_000)),
            };
            for msg in [job_message(job, spec), grant] {
                assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
                let mut wire = Vec::new();
                let written = write_frame(&mut wire, &msg).unwrap();
                let mut reader = FrameReader::new();
                let mut cursor = std::io::Cursor::new(wire);
                reader.fill(&mut cursor).unwrap();
                let (decoded, n) = reader.next_frame().unwrap().expect("complete frame");
                assert_eq!(decoded, msg);
                assert_eq!(n, written);
            }
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
            chunks: (0..512).collect(),
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
    /// `FrameReader`: seed frames from the round-trip vectors (a `Job`
    /// and v5 `Grant`s among them) plus a 512-lease grant and a job over
    /// an extended grid, then bit flips, truncation, extension and forged
    /// length prefixes (the frame's own and the counts inside it). The
    /// decoders must never panic or over-allocate.
    #[test]
    fn decoders_survive_mutated_frames() {
        let seeds: Vec<Vec<u8>> = samples()
            .iter()
            .chain(
                [
                    deep_grant(),
                    job_message(
                        u64::MAX,
                        Arc::new(SweepSpec {
                            sweep: GridSweep {
                                flop_vs_bw: vec![1.0, 2.5, 11.0],
                                sps: vec![1, 2, 4],
                                method: Method::Projection,
                                ..GridSweep::default()
                            },
                            ..(*sample_spec()).clone()
                        }),
                    ),
                ]
                .iter(),
            )
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
        let payload = Message::Grant {
            job: 1,
            chunks: vec![7, 8],
        }
        .encode();
        // The chunk count sits 2×4 bytes from the end; claim one chunk
        // id more than the remaining 8 bytes can encode.
        let at = payload.len() - 2 * 4 - 4;
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

    /// A `Job` whose spec blob is not a valid spec encoding is an
    /// `InvalidData` error naming the store's complaint.
    #[test]
    fn a_job_with_a_corrupt_spec_is_invalid_data() {
        let Message::Job { spec, .. } = job_message(1, sample_spec()) else {
            unreachable!()
        };
        let mut payload = vec![TAG_JOB];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&spec.fingerprint().to_le_bytes());
        let mut blob = spec.encode();
        blob.push(0);
        put_bytes(&mut payload, &blob);
        let err = Message::decode(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("trailing bytes after sweep spec"),
            "{err}"
        );
    }
}
