//! Bounded-memory local sweep driver: evaluates every pending chunk of
//! a [`SweepStore`] across worker threads without ever materializing
//! the full grid.
//!
//! Workers claim chunk ids from an atomic cursor, decode their points
//! lazily through the grid index, evaluate them with [`eval_chunk`] —
//! through one shared whole-grid [`FactoredPlan`] when the method
//! supports it — and send
//! `(chunk, values)` over a bounded channel. The calling thread is the
//! sole recorder: it journals and streams each chunk as it lands, so
//! peak memory is the plan tables plus the channel and reorder windows,
//! independent of grid size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

use twocs_core::planner::{eval_chunk, FactoredPlan};
use twocs_core::sweep::set_parallelism;
use twocs_core::PointResults;
use twocs_hw::DeviceSpec;

use crate::store::SweepStore;

/// Evaluate every chunk the store has not yet recorded, on `jobs`
/// worker threads, recording each completed chunk (journal + stream)
/// as it arrives. Returns the number of chunks evaluated (0 for an
/// already-complete resume).
pub fn run_streaming(
    device: &DeviceSpec,
    store: &mut SweepStore,
    jobs: usize,
) -> Result<u64, String> {
    let spec = store.spec();
    if device.fingerprint() != spec.device_fingerprint {
        return Err(format!(
            "device \"{}\" (fingerprint {:#x}) does not match the run's journaled \
             device \"{}\" (fingerprint {:#x}); resuming on different hardware \
             would mix incomparable numbers in one CSV",
            device.name(),
            device.fingerprint(),
            spec.device_name,
            spec.device_fingerprint
        ));
    }
    let index = spec.index();
    let chunk_size = spec.chunk_size.max(1) as usize;
    let pending: Vec<u32> = (0..spec.chunk_count())
        .filter(|c| !store.completed().contains(c))
        .collect();
    if pending.is_empty() {
        return Ok(0);
    }
    let sweep = spec.sweep.clone();
    // One whole-grid factored plan shared read-only by every worker,
    // priced on the same `jobs` budget; None (simulation grids) means
    // every chunk evaluates naively.
    set_parallelism(jobs);
    let plan: Option<FactoredPlan> = FactoredPlan::build_from_sweep(device, &sweep);
    let jobs = jobs.max(1).min(pending.len());
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = sync_channel::<(u32, PointResults)>(jobs * 4);

    let evaluated = std::thread::scope(|scope| -> Result<u64, String> {
        for _ in 0..jobs {
            let tx = tx.clone();
            let (pending, cursor, index, plan, sweep) = (&pending, &cursor, &index, &plan, &sweep);
            scope.spawn(move || loop {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&chunk) = pending.get(at) else { break };
                let points = index.chunk_points(chunk as usize, chunk_size);
                let mut values = PointResults::with_capacity(points.len());
                eval_chunk(plan.as_ref(), device, sweep, &points, &mut values);
                if tx.send((chunk, values)).is_err() {
                    break; // recorder gone (record error): stop early
                }
            });
        }
        drop(tx);
        let mut evaluated = 0u64;
        while let Ok((chunk, values)) = rx.recv() {
            store.record(chunk, values)?;
            evaluated += 1;
        }
        Ok(evaluated)
    })?;
    Ok(evaluated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};
    use twocs_core::serialized::Method;
    use twocs_core::sweep::{GridSweep, Workload};

    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn spec(device: &DeviceSpec, method: Method) -> crate::SweepSpec {
        crate::SweepSpec {
            sweep: GridSweep {
                method,
                workload: Workload::Training,
                ..GridSweep::default()
            },
            chunk_size: 4,
            device_name: device.name().to_owned(),
            device_fingerprint: device.fingerprint(),
        }
    }

    fn reference_csv(device: &DeviceSpec, s: &GridSweep) -> String {
        let points = s.points();
        let results: Vec<_> = points
            .iter()
            .map(|&p| {
                Ok(twocs_core::sweep::eval_grid_point(
                    device, p, s.batch, s.method, s.workload,
                ))
            })
            .collect();
        GridSweep::tabulate(&points, &results).to_csv()
    }

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "twocs-runner-test-{}-{name}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn streaming_run_matches_in_memory_csv_for_both_methods() {
        let device = DeviceSpec::mi210();
        for method in [Method::Projection, Method::Simulation] {
            let s = spec(&device, method);
            let buf = Arc::new(Mutex::new(Vec::new()));
            let mut store =
                SweepStore::create(s.clone(), Box::new(Shared(buf.clone())), None).unwrap();
            let evaluated = run_streaming(&device, &mut store, 4).unwrap();
            assert_eq!(evaluated, u64::from(s.chunk_count()));
            store.finish().unwrap();
            let got = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            assert_eq!(got, reference_csv(&device, &s.sweep), "method {method:?}");
        }
    }

    #[test]
    fn resumed_run_evaluates_only_pending_chunks() {
        let device = DeviceSpec::mi210();
        let s = spec(&device, Method::Projection);
        let path = tmp("pending");

        // First run dies after a partial, journaled evaluation.
        {
            let buf = Arc::new(Mutex::new(Vec::new()));
            let mut store =
                SweepStore::create(s.clone(), Box::new(Shared(buf)), Some(&path)).unwrap();
            let index = s.index();
            let plan = FactoredPlan::build_from_sweep(&device, &s.sweep);
            for chunk in [0u32, 2, 5] {
                let points = index.chunk_points(chunk as usize, 4);
                let mut values = PointResults::new();
                eval_chunk(plan.as_ref(), &device, &s.sweep, &points, &mut values);
                store.record(chunk, values).unwrap();
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut store = SweepStore::resume(&path, Box::new(Shared(buf.clone()))).unwrap();
        let evaluated = run_streaming(&device, &mut store, 3).unwrap();
        assert_eq!(evaluated, u64::from(s.chunk_count()) - 3);
        let report = store.finish().unwrap();
        assert_eq!(report.replayed_chunks, 3);
        let got = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(got, reference_csv(&device, &s.sweep));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_device_is_refused() {
        let device = DeviceSpec::mi210();
        let mut s = spec(&device, Method::Projection);
        s.device_fingerprint ^= 1;
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut store = SweepStore::create(s, Box::new(Shared(buf)), None).unwrap();
        assert!(run_streaming(&device, &mut store, 2).is_err());
    }
}
