//! Streaming, spill-to-disk CSV result sink.
//!
//! Chunks of point results arrive in any order (dist workers finish
//! when they finish); rows must leave in grid order to stay
//! byte-identical with the in-memory CSV path. The sink holds a cursor
//! at the next unrendered chunk: an in-order chunk renders straight to
//! the output writer, an out-of-order chunk parks in a bounded
//! in-memory buffer, and when that buffer overflows its point budget
//! every parked chunk is flushed to an append-only temp spill file,
//! leaving only a tiny `chunk id -> (offset, len)` map in RAM. As the
//! cursor advances it drains parked chunks from memory or disk.
//!
//! Memory therefore scales with the reorder window (the buffer budget
//! plus one chunk), never with the grid; a million-point sweep renders
//! through a coordinator whose RSS stays flat.
//!
//! Byte identity with [`GridSweep::tabulate`] is by construction: both
//! paths render through [`GridSweep::header_cells`] and the row cell
//! writers. The sink builds one [`RowWriter`] for its grid in
//! [`StreamSink::new`], which renders every `(H, SL, TP)` triple, ratio
//! and axis-tuple cell once; a chunk's rows are then slice copies of
//! those cells, picked by one grid cursor walking the chunk's rank
//! range, plus the metric cells. They land in one reused byte buffer
//! handed to the writer in a single `write_all`.
//!
//! Metrics: `store.sink.spilled_bytes` (bytes appended to the spill
//! file) and `store.sink.merge_passes` (drain sessions that had to read
//! the spill file back).

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use twocs_core::sweep::{GridSweep, RowWriter};
use twocs_core::{GridIndex, PointResults};

use crate::enc;

/// Default in-memory reorder budget, in points. At the default dist
/// chunk size this is a few hundred parked chunks — far beyond any
/// realistic worker skew — so spilling only engages on pathological
/// reorderings or deliberately tiny budgets (as in tests).
pub const DEFAULT_BUFFER_POINTS: usize = 65_536;

/// What a completed sink did, for logs and stats lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkReport {
    /// Data rows written (equals the grid's point count).
    pub rows: usize,
    /// Rows whose evaluation failed (rendered as `error,error`).
    pub failures: usize,
    /// Bytes written to the spill file (0 if the buffer never
    /// overflowed).
    pub spilled_bytes: u64,
    /// Drain sessions that read chunks back from the spill file.
    pub merge_passes: u64,
}

/// Index-ordered streaming CSV sink (see module docs).
pub struct StreamSink {
    out: Box<dyn Write + Send>,
    /// The grid's row writer, which owns its index.
    writer: RowWriter,
    chunk_size: usize,
    n_chunks: u32,
    /// Next chunk to render; everything below is already on `out`.
    next_chunk: u32,
    /// Reused render buffer: one chunk's rows.
    rendered: Vec<u8>,
    /// Out-of-order chunks parked in memory.
    buffered: BTreeMap<u32, PointResults>,
    buffered_points: usize,
    max_buffered_points: usize,
    spill: Option<SpillFile>,
    rows: usize,
    failures: usize,
    spilled_bytes: u64,
    merge_passes: u64,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("next_chunk", &self.next_chunk)
            .field("n_chunks", &self.n_chunks)
            .field("buffered", &self.buffered.len())
            .field("spilled", &self.spill.as_ref().map(|s| s.index.len()))
            .finish_non_exhaustive()
    }
}

impl StreamSink {
    /// Build a sink over `index` split into `chunk_size`-point chunks,
    /// writing CSV to `out` with an in-memory reorder budget of
    /// `max_buffered_points`. The header line is written immediately.
    pub fn new(
        index: GridIndex,
        chunk_size: usize,
        mut out: Box<dyn Write + Send>,
        max_buffered_points: usize,
    ) -> Result<Self, String> {
        let chunk_size = chunk_size.max(1);
        let header = GridSweep::header_cells(index.extended()).join(",");
        out.write_all(header.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .map_err(|e| format!("sink: cannot write header: {e}"))?;
        Ok(Self {
            n_chunks: index.chunk_count(chunk_size) as u32,
            out,
            writer: RowWriter::new(index),
            chunk_size,
            next_chunk: 0,
            rendered: Vec::new(),
            buffered: BTreeMap::new(),
            buffered_points: 0,
            max_buffered_points: max_buffered_points.max(1),
            spill: None,
            rows: 0,
            failures: 0,
            spilled_bytes: 0,
            merge_passes: 0,
        })
    }

    /// Points in the grid the sink renders.
    pub(crate) fn points(&self) -> usize {
        self.writer.index().len()
    }

    /// True once every chunk has been accepted and rendered.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.next_chunk == self.n_chunks
    }

    /// Accept one chunk's results. Rejects out-of-range ids, wrong
    /// value counts, and duplicates (a chunk already rendered, parked,
    /// or spilled).
    pub fn accept(&mut self, chunk: u32, values: PointResults) -> Result<(), String> {
        check_chunk(self.points(), self.chunk_size, chunk, values.len())?;
        if chunk < self.next_chunk
            || self.buffered.contains_key(&chunk)
            || self.spill.as_ref().is_some_and(|s| s.contains(chunk))
        {
            return Err(format!("sink: duplicate chunk {chunk}"));
        }
        if chunk == self.next_chunk {
            self.render(chunk, &values)?;
            self.next_chunk += 1;
            return self.drain();
        }
        self.buffered_points += values.len();
        self.buffered.insert(chunk, values);
        if self.buffered_points > self.max_buffered_points {
            self.spill_buffered()?;
        }
        Ok(())
    }

    /// Finish the stream: every chunk must have arrived. Flushes the
    /// writer and returns the report.
    pub fn finish(mut self) -> Result<SinkReport, String> {
        if !self.complete() {
            return Err(format!(
                "sink: incomplete stream: {} of {} chunks rendered",
                self.next_chunk, self.n_chunks
            ));
        }
        self.out
            .flush()
            .map_err(|e| format!("sink: cannot flush output: {e}"))?;
        let registry = twocs_obs::metrics::global();
        registry
            .counter("store.sink.spilled_bytes")
            .add(self.spilled_bytes);
        registry
            .counter("store.sink.merge_passes")
            .add(self.merge_passes);
        Ok(SinkReport {
            rows: self.rows,
            failures: self.failures,
            spilled_bytes: self.spilled_bytes,
            merge_passes: self.merge_passes,
        })
    }

    /// Render one chunk's rows into the reused byte buffer and hand them
    /// to the output writer in one `write_all`.
    fn render(&mut self, chunk: u32, values: &PointResults) -> Result<(), String> {
        self.rendered.clear();
        self.writer
            .write_rows(&mut self.rendered, chunk as usize * self.chunk_size, values);
        self.out
            .write_all(&self.rendered)
            .map_err(|e| format!("sink: cannot write rows: {e}"))?;
        self.rows += values.len();
        self.failures += values.iter().filter(|v| v.is_err()).count();
        Ok(())
    }

    /// Advance the cursor through every consecutively-available parked
    /// chunk, from memory or the spill file.
    fn drain(&mut self) -> Result<(), String> {
        let mut read_spill = false;
        loop {
            if let Some(values) = self.buffered.remove(&self.next_chunk) {
                self.buffered_points -= values.len();
                self.render(self.next_chunk, &values)?;
                self.next_chunk += 1;
                continue;
            }
            let from_spill = match &mut self.spill {
                Some(s) if s.contains(self.next_chunk) => Some(s.read(self.next_chunk)?),
                _ => None,
            };
            let Some(values) = from_spill else { break };
            read_spill = true;
            self.render(self.next_chunk, &values)?;
            self.next_chunk += 1;
        }
        if read_spill {
            self.merge_passes += 1;
        }
        if let Some(s) = &self.spill {
            if s.is_drained() {
                self.spill = None; // Drop removes the temp file.
            }
        }
        Ok(())
    }

    /// Move every parked chunk to the spill file, leaving only the
    /// offset map in memory.
    fn spill_buffered(&mut self) -> Result<(), String> {
        if self.spill.is_none() {
            self.spill = Some(SpillFile::create()?);
        }
        let spill = self.spill.as_mut().expect("just created");
        for (chunk, values) in std::mem::take(&mut self.buffered) {
            self.spilled_bytes += spill.append(chunk, &values)?;
        }
        self.buffered_points = 0;
        Ok(())
    }
}

/// The shape check every chunk passes before it is kept: an id inside
/// a grid of `points` split into `chunk_size`-point chunks, and exactly
/// that chunk's number of values (the last chunk may be short). The
/// sink runs it on accept; [`SweepStore`](crate::SweepStore) runs it
/// before journaling, so a malformed chunk never reaches the journal.
pub(crate) fn check_chunk(
    points: usize,
    chunk_size: usize,
    chunk: u32,
    got: usize,
) -> Result<(), String> {
    let n_chunks = points.div_ceil(chunk_size);
    if chunk as usize >= n_chunks {
        return Err(format!(
            "sink: chunk {chunk} out of range ({n_chunks} chunks)"
        ));
    }
    let expected = (points - chunk as usize * chunk_size).min(chunk_size);
    if got != expected {
        return Err(format!(
            "sink: chunk {chunk} has {got} values, expected {expected}"
        ));
    }
    Ok(())
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Append-only temp file of encoded chunk results, with an in-memory
/// `chunk -> (offset, len)` map. Removed on drop.
struct SpillFile {
    file: File,
    path: PathBuf,
    write_pos: u64,
    index: HashMap<u32, (u64, u32)>,
}

impl SpillFile {
    fn create() -> Result<Self, String> {
        let path = std::env::temp_dir().join(format!(
            "twocs-sink-spill-{}-{}.tmp",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| format!("sink: cannot create spill file {}: {e}", path.display()))?;
        Ok(Self {
            file,
            path,
            write_pos: 0,
            index: HashMap::new(),
        })
    }

    fn contains(&self, chunk: u32) -> bool {
        self.index.contains_key(&chunk)
    }

    fn is_drained(&self) -> bool {
        self.index.is_empty()
    }

    /// Append one chunk; returns the bytes written.
    fn append(&mut self, chunk: u32, values: &PointResults) -> Result<u64, String> {
        let mut buf = Vec::new();
        enc::put_values(&mut buf, values);
        self.file
            .seek(SeekFrom::Start(self.write_pos))
            .and_then(|_| self.file.write_all(&buf))
            .map_err(|e| format!("sink: cannot write spill file: {e}"))?;
        self.index.insert(chunk, (self.write_pos, buf.len() as u32));
        self.write_pos += buf.len() as u64;
        Ok(buf.len() as u64)
    }

    /// Read one chunk back and forget it (each chunk is read at most
    /// once, by the drain cursor).
    fn read(&mut self, chunk: u32) -> Result<PointResults, String> {
        let (offset, len) = self
            .index
            .remove(&chunk)
            .ok_or_else(|| format!("sink: chunk {chunk} not in spill file"))?;
        let mut buf = vec![0u8; len as usize];
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(&mut buf))
            .map_err(|e| format!("sink: cannot read spill file: {e}"))?;
        enc::read_values(&buf).map_err(|e| format!("sink: bad spill record: {e}"))
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use twocs_testkit::cases;

    /// A `Write` handle over a shared byte buffer.
    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sweep() -> GridSweep {
        GridSweep::default()
    }

    fn fake_values(index: &GridIndex, chunk: u32, chunk_size: usize) -> PointResults {
        let start = chunk as usize * chunk_size;
        let len = index.len().saturating_sub(start).min(chunk_size);
        (0..len)
            .map(|i| {
                let rank = start + i;
                if rank % 17 == 3 {
                    Err(format!("boom {rank}"))
                } else {
                    Ok((rank as f64 * 0.25, 100.0 - rank as f64))
                }
            })
            .collect()
    }

    fn expected_csv(s: &GridSweep, index: &GridIndex, chunk_size: usize) -> String {
        let points = s.points();
        let results: Vec<_> = (0..index.chunk_count(chunk_size))
            .flat_map(|c| fake_values(index, c as u32, chunk_size))
            .collect();
        GridSweep::tabulate(&points, &results).to_csv()
    }

    #[test]
    fn in_order_stream_matches_tabulate_bytes() {
        let s = sweep();
        let index = s.index();
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink =
            StreamSink::new(s.index(), 16, Box::new(Shared(buf.clone())), 1 << 20).unwrap();
        for c in 0..index.chunk_count(16) as u32 {
            sink.accept(c, fake_values(&index, c, 16)).unwrap();
        }
        let report = sink.finish().unwrap();
        assert_eq!(report.rows, index.len());
        assert_eq!(report.spilled_bytes, 0);
        let got = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(got, expected_csv(&s, &index, 16));
    }

    #[test]
    fn shuffled_chunks_with_forced_spill_still_match_bytes() {
        cases(20, |rng| {
            let s = sweep();
            let index = s.index();
            let chunk_size = rng.usize_in(1..40);
            let n = index.chunk_count(chunk_size) as u32;
            let mut order: Vec<u32> = (0..n).collect();
            rng.shuffle(&mut order);
            let buf = Arc::new(Mutex::new(Vec::new()));
            // A tiny budget forces spilling on almost every reorder.
            let mut sink = StreamSink::new(
                s.index(),
                chunk_size,
                Box::new(Shared(buf.clone())),
                chunk_size * 2,
            )
            .unwrap();
            for &c in &order {
                sink.accept(c, fake_values(&index, c, chunk_size)).unwrap();
            }
            let report = sink.finish().unwrap();
            assert_eq!(report.rows, index.len());
            let got = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            assert_eq!(got, expected_csv(&s, &index, chunk_size));
        });
    }

    #[test]
    fn duplicates_bad_lengths_and_incomplete_streams_are_rejected() {
        let s = sweep();
        let index = s.index();
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = StreamSink::new(s.index(), 16, Box::new(Shared(buf)), 1 << 20).unwrap();
        sink.accept(0, fake_values(&index, 0, 16)).unwrap();
        assert!(sink.accept(0, fake_values(&index, 0, 16)).is_err());
        sink.accept(2, fake_values(&index, 2, 16)).unwrap();
        assert!(sink.accept(2, fake_values(&index, 2, 16)).is_err());
        assert!(sink
            .accept(1, fake_values(&index, 0, 16)[..3].to_vec())
            .is_err());
        assert!(sink.accept(u32::MAX, Vec::new()).is_err());
        assert!(sink.finish().is_err());
    }

    #[test]
    fn spill_file_is_removed_after_drain() {
        let s = sweep();
        let index = s.index();
        let n = index.chunk_count(8) as u32;
        assert!(n > 3);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = StreamSink::new(s.index(), 8, Box::new(Shared(buf)), 1).unwrap();
        // Park everything except chunk 0 -> guaranteed spill.
        for c in (1..n).rev() {
            sink.accept(c, fake_values(&index, c, 8)).unwrap();
        }
        let spill_path = sink.spill.as_ref().map(|f| f.path.clone()).unwrap();
        assert!(spill_path.exists());
        sink.accept(0, fake_values(&index, 0, 8)).unwrap();
        assert!(sink.complete());
        assert!(sink.spill.is_none());
        assert!(!spill_path.exists());
        let report = sink.finish().unwrap();
        assert!(report.spilled_bytes > 0);
        assert!(report.merge_passes >= 1);
    }
}
