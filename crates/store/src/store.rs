//! [`SweepStore`] — the one-call composition of journal + streaming
//! sink that the sweep driver ([`crate::run`]) records completed chunks
//! into, whatever the front end and executor.
//!
//! Ordering inside [`SweepStore::record`] is the durability contract:
//! the journal append (with its fsync) happens *before* the sink
//! renders, so a crash between the two re-renders the chunk from the
//! journal on resume rather than losing it. Duplicate chunks (a resumed
//! worker re-delivering) are absorbed silently.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use twocs_core::PointResults;

use crate::journal::Journal;
use crate::sink::{SinkReport, StreamSink, DEFAULT_BUFFER_POINTS};
use crate::spec::SweepSpec;

/// Final stats from a completed store, merging the sink report with
/// journal replay counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreReport {
    /// Data rows written (equals the grid's point count).
    pub rows: usize,
    /// Rows whose evaluation failed.
    pub failures: usize,
    /// Bytes spilled to disk by the reorder buffer.
    pub spilled_bytes: u64,
    /// Spill-file read passes during draining.
    pub merge_passes: u64,
    /// Chunks recovered from the journal instead of recomputed.
    pub replayed_chunks: u64,
}

/// A journal-backed streaming sweep run (see module docs).
#[derive(Debug)]
pub struct SweepStore {
    spec: SweepSpec,
    journal: Option<Journal>,
    sink: StreamSink,
    completed: BTreeSet<u32>,
    replayed_chunks: u64,
}

impl SweepStore {
    /// Start a fresh run: optionally create a journal at
    /// `journal_path` (refusing to clobber an existing file), and open
    /// the streaming sink over `out` (header is written immediately).
    pub fn create(
        spec: SweepSpec,
        out: Box<dyn Write + Send>,
        journal_path: Option<&Path>,
    ) -> Result<Self, String> {
        let journal = journal_path
            .map(|p| Journal::create(p, &spec))
            .transpose()?;
        let sink = Self::sink(&spec, out)?;
        Ok(Self {
            spec,
            journal,
            sink,
            completed: BTreeSet::new(),
            replayed_chunks: 0,
        })
    }

    /// Resume from an existing journal: replays its completed chunks
    /// straight into the sink (so `out` immediately receives every
    /// in-order recovered row) and keeps appending to the same journal.
    pub fn resume(journal_path: &Path, out: Box<dyn Write + Send>) -> Result<Self, String> {
        let (journal, spec, replay) = Journal::open(journal_path)?;
        let mut sink = Self::sink(&spec, out)?;
        let mut completed = BTreeSet::new();
        let replayed_chunks = replay.chunks.len() as u64;
        for (chunk, values) in replay.chunks {
            sink.accept(chunk, values)?;
            completed.insert(chunk);
        }
        Ok(Self {
            spec,
            journal: Some(journal),
            sink,
            completed,
            replayed_chunks,
        })
    }

    /// The ordered sink over `spec`'s chunks, writing to `out`.
    fn sink(spec: &SweepSpec, out: Box<dyn Write + Send>) -> Result<StreamSink, String> {
        let chunk_size = spec.chunk_size.max(1) as usize;
        StreamSink::new(spec.index(), chunk_size, out, DEFAULT_BUFFER_POINTS)
    }

    /// The run's spec (grid, chunking, device identity).
    #[must_use]
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Chunks already recorded (journal-replayed or recorded live).
    #[must_use]
    pub fn completed(&self) -> &BTreeSet<u32> {
        &self.completed
    }

    /// True once every chunk of the grid has been recorded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.sink.complete()
    }

    /// Record one completed chunk: journal it durably (if journaling),
    /// then stream its rows. Returns `Ok(false)` for a duplicate of an
    /// already-recorded chunk, which is dropped without effect.
    pub fn record(&mut self, chunk: u32, values: PointResults) -> Result<bool, String> {
        if self.completed.contains(&chunk) {
            return Ok(false);
        }
        if let Some(j) = &mut self.journal {
            j.append_chunk(chunk, &values)?;
        }
        self.sink.accept(chunk, values)?;
        self.completed.insert(chunk);
        Ok(true)
    }

    /// Finish the run: every chunk must have been recorded. Flushes the
    /// output and returns merged stats. The journal file is left in
    /// place — it is the caller's receipt, cheap and explicit to
    /// delete.
    pub fn finish(self) -> Result<StoreReport, String> {
        let SinkReport {
            rows,
            failures,
            spilled_bytes,
            merge_passes,
        } = self.sink.finish()?;
        Ok(StoreReport {
            rows,
            failures,
            spilled_bytes,
            merge_passes,
            replayed_chunks: self.replayed_chunks,
        })
    }
}

/// An in-memory store output: clones share one byte buffer, so a caller
/// keeps one handle, gives the store another as its `out`, and takes the
/// rendered CSV once the store has finished.
#[derive(Debug, Clone, Default)]
pub struct Buffer(Arc<Mutex<Vec<u8>>>);

impl Buffer {
    /// The bytes written so far, leaving the buffer empty.
    #[must_use]
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Write for Buffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
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
            device_fingerprint: 1,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "twocs-store-test-{}-{name}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn values(spec: &SweepSpec, chunk: u32) -> PointResults {
        (0..spec.chunk_len(chunk))
            .map(|i| Ok((chunk as f64 + i as f64 * 0.125, 1.0)))
            .collect()
    }

    #[test]
    fn interrupted_run_resumes_to_identical_bytes() {
        let s = spec();
        let n = s.chunk_count();
        assert!(n >= 4);

        // Reference: one uninterrupted, unjournaled run.
        let want = Buffer::default();
        let mut full = SweepStore::create(s.clone(), Box::new(want.clone()), None).unwrap();
        for c in 0..n {
            assert!(full.record(c, values(&s, c)).unwrap());
        }
        let report = full.finish().unwrap();
        assert_eq!(report.rows, s.point_count());
        assert_eq!(report.replayed_chunks, 0);

        // Journaled run that dies after recording half the chunks,
        // out of order.
        let path = tmp("resume");
        let mut first =
            SweepStore::create(s.clone(), Box::new(Buffer::default()), Some(&path)).unwrap();
        for c in [1u32, 0, 3] {
            first.record(c, values(&s, c)).unwrap();
        }
        drop(first); // crash: no finish()

        let got = Buffer::default();
        let mut second = SweepStore::resume(&path, Box::new(got.clone())).unwrap();
        assert_eq!(second.spec(), &s);
        assert_eq!(second.completed().len(), 3);
        // Re-delivered chunk is a silent duplicate.
        assert!(!second.record(1, values(&s, 1)).unwrap());
        for c in 0..n {
            if !second.completed().contains(&c) {
                assert!(second.record(c, values(&s, c)).unwrap());
            }
        }
        let report = second.finish().unwrap();
        assert_eq!(report.replayed_chunks, 3);
        assert_eq!(report.rows, s.point_count());
        assert_eq!(want.take(), got.take());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finish_requires_every_chunk() {
        let s = spec();
        let mut store = SweepStore::create(s.clone(), Box::new(Buffer::default()), None).unwrap();
        store.record(0, values(&s, 0)).unwrap();
        assert!(!store.is_complete());
        assert!(store.finish().is_err());
    }
}
