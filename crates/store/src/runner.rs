//! The one sweep driver: every front end — `twocs sweep` local or
//! `--listen`, fresh, `--journal`ed or `--resume`d, and serve's
//! `/v1/sweep` — opens a [`SweepStore`] and hands it to [`run`] with
//! an executor (the in-process [`LocalPool`](twocs_core::LocalPool) or
//! the dist coordinator).
//!
//! The driver checks the store's device against the build's, runs the
//! executor over every chunk the store has not yet recorded, and
//! records each chunk as it lands (journal first, then the ordered
//! sink), so peak memory is the executor's working set plus the sink's
//! reorder window and, when journaled, its one-chunk render queue,
//! independent of grid size.

use std::fmt::Display;

use twocs_core::{GridExecutor, GridSweep};
use twocs_hw::DeviceSpec;

use crate::store::{StoreReport, SweepStore};

/// Points per chunk of a fresh store over `sweep` when the caller names
/// none: under a journal 512, since each chunk is one fsynced append
/// and that size balances fsync frequency against the recompute a crash
/// loses (tens of KiB per append); otherwise `executor`'s own. A journal
/// records its chunk size, so one written at another size still resumes.
#[must_use]
pub fn default_chunk_size(
    executor: &dyn GridExecutor,
    sweep: &GridSweep,
    journaled: bool,
) -> usize {
    if journaled {
        512
    } else {
        executor.chunk_size(sweep)
    }
}

/// Evaluate every chunk `store` has not yet recorded on `executor`,
/// record each one as it arrives, and finish the store. Returns the
/// executor's summary and the store's report (its `failures` count is
/// what exit statuses are made of). This is the one place a store's
/// device is checked against the build's: a mismatch is an error before
/// anything runs.
pub fn run(
    executor: &dyn GridExecutor,
    device: &DeviceSpec,
    mut store: SweepStore,
) -> Result<(Box<dyn Display + Send>, StoreReport), String> {
    let spec = store.spec().clone();
    // A resumed journal must not mix numbers from two devices in one CSV.
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
    let completed = store.completed().clone();
    let summary = executor.execute(
        &spec.sweep,
        device,
        spec.chunk_size.max(1) as usize,
        &completed,
        &mut |chunk, values| store.record(chunk, values).map(drop),
    )?;
    Ok((summary, store.finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};
    use twocs_core::planner::{eval_chunk, FactoredPlan};
    use twocs_core::serialized::Method;
    use twocs_core::sweep::{GridSweep, LocalPool, OnChunk, Workload};
    use twocs_core::PointResults;

    use crate::Buffer;

    /// A [`LocalPool`] that counts the chunks it hands out.
    #[derive(Debug)]
    struct Counting(LocalPool, AtomicU32);

    impl GridExecutor for Counting {
        fn execute(
            &self,
            sweep: &GridSweep,
            device: &DeviceSpec,
            chunk_size: usize,
            completed: &BTreeSet<u32>,
            on_chunk: &mut OnChunk<'_>,
        ) -> Result<Box<dyn Display + Send>, String> {
            self.0
                .execute(sweep, device, chunk_size, completed, &mut |c, v| {
                    self.1.fetch_add(1, Ordering::Relaxed);
                    on_chunk(c, v)
                })
        }

        fn chunk_size(&self, sweep: &GridSweep) -> usize {
            self.0.chunk_size(sweep)
        }
    }

    fn counting(jobs: usize) -> Counting {
        Counting(LocalPool { jobs }, AtomicU32::new(0))
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
            let buf = Buffer::default();
            let store = SweepStore::create(s.clone(), Box::new(buf.clone()), None).unwrap();
            let executor = counting(4);
            run(&executor, &device, store).unwrap();
            assert_eq!(executor.1.into_inner(), s.chunk_count());
            let got = String::from_utf8(buf.take()).unwrap();
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
            let mut store =
                SweepStore::create(s.clone(), Box::new(Buffer::default()), Some(&path)).unwrap();
            let index = s.index();
            let plan = FactoredPlan::build_from_sweep(&device, &s.sweep);
            for chunk in [0u32, 2, 5] {
                let ranks = index.chunk_ranks(chunk as usize, 4);
                let mut values = PointResults::new();
                eval_chunk(plan.as_ref(), &device, &s.sweep, &index, ranks, &mut values);
                store.record(chunk, values).unwrap();
            }
        }

        let buf = Buffer::default();
        let store = SweepStore::resume(&path, Box::new(buf.clone())).unwrap();
        let executor = counting(3);
        let (_, report) = run(&executor, &device, store).unwrap();
        assert_eq!(executor.1.into_inner(), s.chunk_count() - 3);
        assert_eq!(report.replayed_chunks, 3);
        let got = String::from_utf8(buf.take()).unwrap();
        assert_eq!(got, reference_csv(&device, &s.sweep));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_device_is_refused() {
        let device = DeviceSpec::mi210();
        let mut s = spec(&device, Method::Projection);
        s.device_fingerprint ^= 1;
        let store = SweepStore::create(s, Box::new(Buffer::default()), None).unwrap();
        assert!(run(&LocalPool { jobs: 2 }, &device, store).is_err());
    }
}
