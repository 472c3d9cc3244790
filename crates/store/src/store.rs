//! [`SweepStore`] — the one-call composition of journal + streaming
//! sink that the sweep driver ([`crate::run`]) records completed chunks
//! into, whatever the front end and executor.
//!
//! The durability contract: a chunk's rows never reach `out` before its
//! journal record is fsynced. After a crash at any instant, a resume
//! finds every chunk whose rows were written in the journal and loses
//! none. A journaled store keeps it as a two-stage pipeline:
//!
//! 1. the calling thread checks the chunk, appends it to the journal and
//!    fsyncs, and only then hands it to
//! 2. the render stage, one helper thread that owns the sink and renders
//!    and writes a chunk while the next chunk's fsync is in flight,
//!    behind a bounded queue.
//!
//! A journaled run's wall time is then about the larger of the fsync
//! and render stages, not their sum. A store without a journal has no
//! fsync to hide behind and renders inline: a render stage there only
//! adds a thread spawn per store and a cross-thread handoff per chunk.
//! Measured on a 2-core container, staging every store cost perfbench's
//! `serve_zipf` (a store per `/v1/sweep` request) about a sixth of its
//! points/s and `dist_rtt1ms` (12,800 four-point chunks) half of its.
//! The same holds for the executor in front of a store: a one-chunk
//! grid is evaluated on the calling thread (`stream_tasks` spawns no
//! worker for a single task), so a small unjournaled request runs on
//! one thread end to end.
//!
//! Duplicate chunks (a resumed worker re-delivering) are absorbed
//! silently. Malformed chunks are refused before they are journaled.
//!
//! Metrics: `store.sink.wait_us` counts the microseconds
//! [`SweepStore::record`] spent blocked on a full render queue; with
//! the journal's `store.journal.fsync_us` it shows which stage bounds a
//! journaled run.

use std::io::Write;
use std::path::Path;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use twocs_core::{ChunkSet, PointResults};
use twocs_obs::metrics::Counter;

use crate::journal::Journal;
use crate::sink::{check_chunk, SinkReport, StreamSink, DEFAULT_BUFFER_POINTS};
use crate::spec::SweepSpec;

/// Journaled chunks the render stage may hold queued behind the one it
/// is rendering. One is enough to overlap each fsync with the previous
/// chunk's rendering; a deeper queue only absorbs jitter, at a chunk's
/// results of memory apiece.
const STAGE_QUEUE: usize = 1;

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
    /// The grid's point count, which `record` checks every chunk
    /// against (the spec would rebuild the grid index to count it).
    points: usize,
    journal: Option<Journal>,
    rows: Rows,
    /// Chunks recorded so far, one bit each.
    completed: ChunkSet,
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
        Self::open(spec, journal, sink, ChunkSet::new(), 0)
    }

    /// Resume from an existing journal: replays its completed chunks
    /// straight into the sink (so `out` immediately receives every
    /// in-order recovered row) and keeps appending to the same journal.
    pub fn resume(journal_path: &Path, out: Box<dyn Write + Send>) -> Result<Self, String> {
        let (journal, spec, replay) = Journal::open(journal_path)?;
        let mut sink = Self::sink(&spec, out)?;
        let mut completed = ChunkSet::new();
        let replayed_chunks = replay.chunks.len() as u64;
        for (chunk, values) in replay.chunks {
            sink.accept(chunk, values)?;
            completed.insert(chunk);
        }
        Self::open(spec, Some(journal), sink, completed, replayed_chunks)
    }

    /// The ordered sink over `spec`'s chunks, writing to `out`.
    fn sink(spec: &SweepSpec, out: Box<dyn Write + Send>) -> Result<StreamSink, String> {
        let chunk_size = spec.chunk_size.max(1) as usize;
        StreamSink::new(spec.index(), chunk_size, out, DEFAULT_BUFFER_POINTS)
    }

    /// Assemble a store, moving the sink onto a render stage when there
    /// is a journal for it to hide behind.
    fn open(
        spec: SweepSpec,
        journal: Option<Journal>,
        sink: StreamSink,
        completed: ChunkSet,
        replayed_chunks: u64,
    ) -> Result<Self, String> {
        let points = sink.points();
        let rows = match journal {
            Some(_) => Rows::Staged(Stage::spawn(sink)?),
            None => Rows::Inline(Box::new(sink)),
        };
        Ok(Self {
            points,
            spec,
            journal,
            rows,
            completed,
            replayed_chunks,
        })
    }

    /// The run's spec (grid, chunking, device identity).
    #[must_use]
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Chunks already recorded (journal-replayed or recorded live).
    #[must_use]
    pub fn completed(&self) -> &ChunkSet {
        &self.completed
    }

    /// True once every chunk of the grid has been recorded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.points.div_ceil(self.chunk_size())
    }

    fn chunk_size(&self) -> usize {
        self.spec.chunk_size.max(1) as usize
    }

    /// Record one completed chunk: check its id and value count, journal
    /// it durably (if journaling), then hand it to the sink. Its rows
    /// reach `out` only after its journal record is fsynced; with a
    /// journal they are rendered on the render stage, and a write error
    /// there comes back from a later `record` or from
    /// [`finish`](Self::finish). Returns `Ok(false)` for a duplicate of
    /// an already-recorded chunk, which is dropped without effect.
    pub fn record(&mut self, chunk: u32, values: PointResults) -> Result<bool, String> {
        if self.completed.contains(chunk) {
            return Ok(false);
        }
        check_chunk(self.points, self.chunk_size(), chunk, values.len())?;
        if let Some(j) = &mut self.journal {
            j.append_chunk(chunk, &values)?;
        }
        match &mut self.rows {
            Rows::Inline(sink) => sink.accept(chunk, values)?,
            Rows::Staged(stage) => stage.send(chunk, values)?,
        }
        self.completed.insert(chunk);
        Ok(true)
    }

    /// Finish the run: every chunk must have been recorded. Waits for
    /// the render stage, flushes the output and returns merged stats.
    /// The journal file is left in place — it is the caller's receipt,
    /// cheap and explicit to delete.
    pub fn finish(self) -> Result<StoreReport, String> {
        let sink = match self.rows {
            Rows::Inline(sink) => *sink,
            Rows::Staged(mut stage) => stage.join()?,
        };
        let SinkReport {
            rows,
            failures,
            spilled_bytes,
            merge_passes,
        } = sink.finish()?;
        Ok(StoreReport {
            rows,
            failures,
            spilled_bytes,
            merge_passes,
            replayed_chunks: self.replayed_chunks,
        })
    }
}

/// Where a store's recorded chunks are rendered (see module docs).
#[derive(Debug)]
enum Rows {
    /// On the calling thread: a store without a journal.
    Inline(Box<StreamSink>),
    /// On the render stage, behind the journal's fsync.
    Staged(Stage),
}

/// The render stage: one helper thread that feeds chunks from a bounded
/// queue into the sink. It stops at the sink's first error, which the
/// next `send` or `join` returns; once joined, every later call fails.
/// Dropping the stage closes the queue and joins it, so every chunk
/// handed over is rendered first.
#[derive(Debug)]
struct Stage {
    queue: Option<SyncSender<(u32, PointResults)>>,
    thread: Option<JoinHandle<Result<StreamSink, String>>>,
    wait_us: Counter,
}

impl Stage {
    fn spawn(mut sink: StreamSink) -> Result<Self, String> {
        let (queue, chunks) = sync_channel::<(u32, PointResults)>(STAGE_QUEUE);
        let thread = std::thread::Builder::new()
            .name("twocs-store-render".to_owned())
            .spawn(move || {
                for (chunk, values) in chunks {
                    sink.accept(chunk, values)?;
                }
                Ok(sink)
            })
            .map_err(|e| format!("sink: cannot start the render stage: {e}"))?;
        Ok(Self {
            queue: Some(queue),
            thread: Some(thread),
            wait_us: twocs_obs::metrics::global().counter("store.sink.wait_us"),
        })
    }

    /// Queue one chunk, blocking while the queue is full. Once the stage
    /// has stopped, joins it and returns the error it stopped on.
    fn send(&mut self, chunk: u32, values: PointResults) -> Result<(), String> {
        let sent = match &self.queue {
            None => false,
            Some(queue) => match queue.try_send((chunk, values)) {
                Ok(()) => true,
                Err(TrySendError::Full(item)) => {
                    let started = Instant::now();
                    let sent = queue.send(item).is_ok();
                    self.wait_us.add_duration_us(started.elapsed());
                    sent
                }
                Err(TrySendError::Disconnected(_)) => false,
            },
        };
        if sent {
            return Ok(());
        }
        self.join()?;
        Err("sink: the render stage stopped early".to_owned())
    }

    /// Close the queue, wait for the stage to render what it holds, and
    /// take back its sink (or the error it stopped on).
    fn join(&mut self) -> Result<StreamSink, String> {
        self.queue = None;
        let thread = self
            .thread
            .take()
            .ok_or("sink: the render stage was already joined")?;
        thread
            .join()
            .unwrap_or_else(|_| Err("sink: the render stage panicked".to_owned()))
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.join();
        }
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
            if !second.completed().contains(c) {
                assert!(second.record(c, values(&s, c)).unwrap());
            }
        }
        let report = second.finish().unwrap();
        assert_eq!(report.replayed_chunks, 3);
        assert_eq!(report.rows, s.point_count());
        assert_eq!(want.take(), got.take());
        std::fs::remove_file(&path).unwrap();
    }

    /// The bytes of one uninterrupted, unjournaled run over `s`.
    fn reference(s: &SweepSpec) -> Vec<u8> {
        let out = Buffer::default();
        let mut store = SweepStore::create(s.clone(), Box::new(out.clone()), None).unwrap();
        for c in 0..s.chunk_count() {
            store.record(c, values(s, c)).unwrap();
        }
        store.finish().unwrap();
        out.take()
    }

    #[test]
    fn malformed_chunk_is_refused_before_it_is_journaled() {
        let s = spec();
        let n = s.chunk_count();
        let want = reference(&s);
        let path = tmp("malformed");
        let out = Buffer::default();
        let mut first = SweepStore::create(s.clone(), Box::new(out.clone()), Some(&path)).unwrap();
        assert_eq!(
            first.record(0, values(&s, 0)[..3].to_vec()).unwrap_err(),
            "sink: chunk 0 has 3 values, expected 4"
        );
        assert_eq!(
            first.record(n, values(&s, 0)).unwrap_err(),
            format!("sink: chunk {n} out of range ({n} chunks)")
        );
        for c in [1u32, 0] {
            assert!(first.record(c, values(&s, c)).unwrap());
        }
        assert_eq!(first.completed().len(), 2);
        drop(first); // crash: no finish(), but the render stage is joined

        // Both recorded chunks reached `out`: header plus eight rows.
        let partial = out.take();
        assert!(want.starts_with(&partial));
        assert_eq!(partial.iter().filter(|&&b| b == b'\n').count(), 9);

        let got = Buffer::default();
        let mut second = SweepStore::resume(&path, Box::new(got.clone())).unwrap();
        assert_eq!(second.completed().len(), 2);
        for c in 2..n {
            assert!(second.record(c, values(&s, c)).unwrap());
        }
        assert!(second.is_complete());
        assert_eq!(second.finish().unwrap().replayed_chunks, 2);
        assert_eq!(got.take(), want);
        std::fs::remove_file(&path).unwrap();
    }

    /// An `out` that, on every write, replays a copy of the journal and
    /// refuses the write if it carries rows of a chunk the replay does
    /// not hold yet.
    struct Witness {
        journal: PathBuf,
        copy: PathBuf,
        chunk_size: usize,
        lines: usize,
    }

    impl Write for Witness {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.lines += buf.iter().filter(|&&b| b == b'\n').count();
            // The first line is the header; rows start on the second.
            if let Some(last_row) = self.lines.checked_sub(2) {
                std::fs::copy(&self.journal, &self.copy)?;
                let (_, _, replay) = Journal::open(&self.copy).map_err(std::io::Error::other)?;
                let last_chunk = (last_row / self.chunk_size) as u32;
                if let Some(c) = (0..=last_chunk).find(|c| !replay.chunks.contains_key(c)) {
                    return Err(std::io::Error::other(format!(
                        "rows of chunk {c} reached out before its journal record"
                    )));
                }
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn rows_never_reach_out_before_their_journal_record() {
        let s = spec();
        let (journal, copy) = (tmp("witness"), tmp("witness-copy"));
        let witness = Witness {
            journal: journal.clone(),
            copy: copy.clone(),
            chunk_size: 4,
            lines: 0,
        };
        let mut store = SweepStore::create(s.clone(), Box::new(witness), Some(&journal)).unwrap();
        for c in 0..s.chunk_count() {
            // A long error message is slow to journal but renders as a
            // short `error,error`: rows handed off before their record
            // is written would win the race to `out`.
            let mut v = values(&s, c);
            v[0] = Err("x".repeat(1 << 18));
            store.record(c, v).unwrap();
        }
        assert_eq!(store.finish().unwrap().rows, s.point_count());
        std::fs::remove_file(&journal).unwrap();
        std::fs::remove_file(&copy).unwrap();
    }

    /// An `out` that takes `left` more bytes, then fails like a closed
    /// pipe, or panics if `panic` is set.
    struct Faulty {
        left: usize,
        panic: bool,
    }

    impl Write for Faulty {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.left {
                assert!(!self.panic, "out failed");
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            self.left -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The first error of a run over `s` into `out`, from `record` or
    /// else from `finish`, which must fail too. Fails the test instead
    /// of hanging if the store does not return.
    fn first_error(s: SweepSpec, out: Faulty, journal: Option<PathBuf>) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut store = SweepStore::create(s.clone(), Box::new(out), journal.as_deref())
                .expect("the header fits");
            let recorded = (0..s.chunk_count()).find_map(|c| store.record(c, values(&s, c)).err());
            let finished = store.finish().expect_err("finish after a failed write");
            let _ = tx.send(recorded.unwrap_or(finished));
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the store hung or its caller panicked")
    }

    #[test]
    fn a_failing_out_surfaces_as_an_error_without_a_hang() {
        let s = spec();
        let header = reference(&s).iter().position(|&b| b == b'\n').unwrap() + 1;
        for journaled in [false, true] {
            let path = tmp("faulty");
            let out = Faulty {
                left: header + 100,
                panic: false,
            };
            let e = first_error(s.clone(), out, journaled.then(|| path.clone()));
            assert!(
                e.starts_with("sink: cannot write rows: "),
                "journaled {journaled}: {e}"
            );
            let _ = std::fs::remove_file(&path);
        }
        let path = tmp("panicky");
        let out = Faulty {
            left: header + 100,
            panic: true,
        };
        let e = first_error(s, out, Some(path.clone()));
        assert_eq!(e, "sink: the render stage panicked");
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
