//! Append-only, checksummed sweep journal.
//!
//! Layout: an 8-byte magic + u32 format version, then a sequence of
//! records, each `[u32 payload_len][u32 crc32(payload)][payload]`. The
//! first record is always the [`SweepSpec`] (with its fingerprint);
//! after it come chunk-result records and advisory lease records in
//! arrival order.
//!
//! Durability model: [`Journal::append_chunk`] fsyncs after every
//! record, so a completed chunk survives any later crash. A crash *mid*
//! append leaves a torn record at the tail; replay detects it by length
//! or CRC, truncates the file back to the last intact record, and
//! resumes from there — the torn chunk is simply recomputed. A CRC
//! mismatch anywhere invalidates everything after it (an append-only
//! file has no record framing to resynchronize on), which replay
//! reports via [`Replay::discarded_bytes`] so callers can warn.
//!
//! Metrics: `store.journal.appends`, `store.journal.fsyncs`,
//! `store.journal.replayed_chunks`; spans: `journal fsync`,
//! `journal replay` (category `store`).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use twocs_core::PointResults;

use crate::enc::{self, Reader};
use crate::spec::SweepSpec;

const MAGIC: &[u8; 8] = b"TWOCSJNL";
/// Journal format version. The spec and chunk records carry the codec
/// the dist wire speaks too, so a change to it bumps this and the wire's
/// `PROTOCOL_VERSION` together.
const VERSION: u32 = 1;
/// Record kinds.
const KIND_SPEC: u8 = 1;
const KIND_CHUNK: u8 = 2;
const KIND_LEASE: u8 = 3;
/// Upper bound on one record's payload; a length prefix beyond it is
/// treated as corruption rather than attempted as an allocation.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;
/// Bytes of a record's frame header: `u32` payload length, `u32` CRC.
const FRAME_LEN: usize = 8;

/// A writable sweep journal (see module docs for the format).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

/// What replaying an existing journal recovered.
#[derive(Debug, Default)]
pub struct Replay {
    /// Completed chunks by id, each with its full per-point results.
    pub chunks: BTreeMap<u32, PointResults>,
    /// Advisory lease records seen (crash forensics; not needed to
    /// resume).
    pub leases: u64,
    /// Bytes discarded from the tail because of a torn or corrupt
    /// record (zero for a cleanly closed journal).
    pub discarded_bytes: u64,
}

impl Journal {
    /// Create a new journal at `path` and durably write the spec
    /// record. Refuses to overwrite an existing file — a journal is a
    /// recovery artifact, so clobbering one is always a caller bug.
    pub fn create(path: &Path, spec: &SweepSpec) -> Result<Self, String> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        let mut journal = Self {
            file,
            path: path.to_path_buf(),
        };
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(MAGIC);
        enc::put_u32(&mut header, VERSION);
        journal
            .file
            .write_all(&header)
            .map_err(|e| journal.io_err("write header", &e))?;
        let mut record = new_record(KIND_SPEC, 8);
        enc::put_u64(&mut record, spec.fingerprint());
        record.extend_from_slice(&spec.encode());
        journal.append_record(record, true)?;
        Ok(journal)
    }

    /// Open an existing journal, validate its spec, and replay every
    /// intact record. Returns the journal positioned for appending
    /// (truncated past any torn tail), the decoded spec, and the
    /// replayed state.
    pub fn open(path: &Path) -> Result<(Self, SweepSpec, Replay), String> {
        let _span = twocs_obs::span("journal replay", "store");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        if bytes.len() < 12 || &bytes[..8] != MAGIC {
            return Err(format!("{} is not a twocs sweep journal", path.display()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(format!(
                "journal {} has format version {version}, this build reads {VERSION}",
                path.display()
            ));
        }

        let mut spec: Option<SweepSpec> = None;
        let mut replay = Replay::default();
        let mut good_end = 12usize;
        let mut at = 12usize;
        while at < bytes.len() {
            let Some(record) = read_record(&bytes[at..]) else {
                break; // torn or corrupt: everything from `at` is dead
            };
            let (payload, consumed) = record;
            match apply_record(payload, &mut spec, &mut replay) {
                Ok(()) => {}
                Err(e) => return Err(format!("journal {}: {e}", path.display())),
            }
            at += consumed;
            good_end = at;
        }
        replay.discarded_bytes = (bytes.len() - good_end) as u64;
        let spec = spec.ok_or_else(|| {
            format!(
                "journal {} has no intact spec record; nothing to resume",
                path.display()
            )
        })?;
        for (&chunk, values) in &replay.chunks {
            if chunk >= spec.chunk_count() || values.len() != spec.chunk_len(chunk) {
                return Err(format!(
                    "journal {}: chunk {chunk} does not fit the journaled grid \
                     ({} values, expected {})",
                    path.display(),
                    values.len(),
                    spec.chunk_len(chunk)
                ));
            }
        }
        if replay.discarded_bytes > 0 {
            file.set_len(good_end as u64)
                .map_err(|e| format!("cannot truncate torn journal {}: {e}", path.display()))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("cannot seek journal {}: {e}", path.display()))?;
        let registry = twocs_obs::metrics::global();
        registry
            .counter("store.journal.replayed_chunks")
            .add(replay.chunks.len() as u64);
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
            },
            spec,
            replay,
        ))
    }

    /// Durably append one completed chunk's results: the record is
    /// written and fsynced before this returns, so a chunk the caller
    /// believes journaled survives any crash after this call.
    pub fn append_chunk(&mut self, chunk: u32, values: &PointResults) -> Result<(), String> {
        // Chunk id, count, then a tag and two f64s per `Ok` point.
        let mut record = new_record(KIND_CHUNK, 8 + values.len() * 17);
        enc::put_u32(&mut record, chunk);
        enc::put_values(&mut record, values);
        self.append_record(record, true)
    }

    /// Append an advisory lease record (which worker took which chunk).
    /// Not fsynced — leases are forensic context, not recovery state;
    /// the next durable chunk append flushes them along.
    pub fn append_lease(&mut self, chunk: u32, worker: u64) -> Result<(), String> {
        let mut record = new_record(KIND_LEASE, 12);
        enc::put_u32(&mut record, chunk);
        enc::put_u64(&mut record, worker);
        self.append_record(record, false)
    }

    /// Fill in a [`new_record`]'s frame header — the payload's length
    /// and CRC — and write the record in one `write_all`.
    fn append_record(&mut self, mut record: Vec<u8>, durable: bool) -> Result<(), String> {
        let payload = &record[FRAME_LEN..];
        let (len, crc) = (payload.len() as u32, enc::crc32(payload));
        record[..4].copy_from_slice(&len.to_le_bytes());
        record[4..FRAME_LEN].copy_from_slice(&crc.to_le_bytes());
        self.file
            .write_all(&record)
            .map_err(|e| self.io_err("append", &e))?;
        let registry = twocs_obs::metrics::global();
        registry.counter("store.journal.appends").inc();
        if durable {
            let _span = twocs_obs::span("journal fsync", "store");
            self.file
                .sync_data()
                .map_err(|e| self.io_err("fsync", &e))?;
            registry.counter("store.journal.fsyncs").inc();
        }
        Ok(())
    }

    fn io_err(&self, what: &str, e: &std::io::Error) -> String {
        format!("journal {} {what} failed: {e}", self.path.display())
    }
}

/// A record buffer: the frame header reserved (zeroed until
/// `append_record` fills it in), then the payload's kind byte, with room
/// for `payload_hint` more payload bytes. The payload is encoded in
/// place, so a record is framed without a second copy.
fn new_record(kind: u8, payload_hint: usize) -> Vec<u8> {
    let mut record = Vec::with_capacity(FRAME_LEN + 1 + payload_hint);
    record.extend_from_slice(&[0; FRAME_LEN]);
    record.push(kind);
    record
}

/// Parse one framed record from `buf`; `None` when the frame is torn
/// (truncated length/payload) or fails its CRC.
fn read_record(buf: &[u8]) -> Option<(&[u8], usize)> {
    if buf.len() < FRAME_LEN {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return None;
    }
    let crc = u32::from_le_bytes(buf[4..FRAME_LEN].try_into().unwrap());
    let total = FRAME_LEN + len as usize;
    if buf.len() < total {
        return None;
    }
    let payload = &buf[FRAME_LEN..total];
    (enc::crc32(payload) == crc).then_some((payload, total))
}

/// Apply one intact record to the replay state. Intact-but-invalid
/// records (bad kind, malformed payload, spec mismatch) are hard
/// errors: the CRC passed, so this is version skew or a writer bug,
/// not a crash artifact.
fn apply_record(
    payload: &[u8],
    spec: &mut Option<SweepSpec>,
    replay: &mut Replay,
) -> Result<(), String> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        KIND_SPEC => {
            if spec.is_some() {
                return Err("duplicate spec record".to_owned());
            }
            let journaled_fp = r.u64()?;
            let decoded = SweepSpec::decode(r.rest())?;
            if decoded.fingerprint() != journaled_fp {
                return Err(format!(
                    "grid fingerprint mismatch: journal says {journaled_fp:#x}, \
                     decoded spec hashes to {:#x}",
                    decoded.fingerprint()
                ));
            }
            *spec = Some(decoded);
            Ok(())
        }
        KIND_CHUNK => {
            if spec.is_none() {
                return Err("chunk record before spec record".to_owned());
            }
            let chunk = r.u32()?;
            let values = enc::read_values(r.rest())?;
            replay.chunks.insert(chunk, values);
            Ok(())
        }
        KIND_LEASE => {
            let _chunk = r.u32()?;
            let _worker = r.u64()?;
            if !r.done() {
                return Err("trailing bytes in lease record".to_owned());
            }
            replay.leases += 1;
            Ok(())
        }
        other => Err(format!("unknown record kind {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twocs_core::serialized::Method;
    use twocs_core::sweep::GridSweep;

    fn spec() -> SweepSpec {
        SweepSpec {
            sweep: GridSweep {
                method: Method::Projection,
                ..GridSweep::default()
            },
            chunk_size: 4,
            device_name: "mi210".to_owned(),
            device_fingerprint: 7,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("twocs-journal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn chunk_values(spec: &SweepSpec, chunk: u32) -> PointResults {
        (0..spec.chunk_len(chunk))
            .map(|i| Ok((i as f64 + chunk as f64, 0.5)))
            .collect()
    }

    #[test]
    fn journal_round_trips_spec_and_chunks() {
        let path = tmp("roundtrip");
        let s = spec();
        let mut j = Journal::create(&path, &s).unwrap();
        j.append_lease(0, 3).unwrap();
        j.append_chunk(0, &chunk_values(&s, 0)).unwrap();
        j.append_chunk(2, &chunk_values(&s, 2)).unwrap();
        drop(j);
        let (_j, back, replay) = Journal::open(&path).unwrap();
        assert_eq!(back, s);
        assert_eq!(replay.leases, 1);
        assert_eq!(replay.discarded_bytes, 0);
        assert_eq!(
            replay.chunks.keys().copied().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(replay.chunks[&0], chunk_values(&s, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = tmp("torn");
        let s = spec();
        let mut j = Journal::create(&path, &s).unwrap();
        j.append_chunk(0, &chunk_values(&s, 0)).unwrap();
        let intact = std::fs::metadata(&path).unwrap().len();
        j.append_chunk(1, &chunk_values(&s, 1)).unwrap();
        drop(j);
        // Tear the second chunk record mid-payload.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(intact + 5).unwrap();
        drop(f);
        let (mut j, _s, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.chunks.len(), 1);
        assert_eq!(replay.discarded_bytes, 5);
        // The journal must now accept the recomputed chunk cleanly.
        j.append_chunk(1, &chunk_values(&s, 1)).unwrap();
        drop(j);
        let (_j, _s, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.chunks.len(), 2);
        assert_eq!(replay.discarded_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_spec_or_flipped_bit_is_detected() {
        let path = tmp("flip");
        let s = spec();
        let mut j = Journal::create(&path, &s).unwrap();
        j.append_chunk(0, &chunk_values(&s, 0)).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // The flipped record fails its CRC: replay keeps the prefix.
        let (_j, _s, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.chunks.len(), 0);
        assert!(replay.discarded_bytes > 0);
        // Flipping inside the spec record kills the whole journal.
        bytes[mid] ^= 0x40; // restore
        bytes[20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Journal::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_foreign_files_and_clobbering() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(Journal::open(&path).is_err());
        assert!(Journal::create(&path, &spec()).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunk_outside_the_grid_is_rejected_on_replay() {
        let path = tmp("badchunk");
        let s = spec();
        let mut j = Journal::create(&path, &s).unwrap();
        j.append_chunk(10_000, &vec![Ok((1.0, 2.0))]).unwrap();
        drop(j);
        assert!(Journal::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
