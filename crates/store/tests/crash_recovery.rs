//! Crash-recovery property: a journaled sweep killed at *any* byte
//! offset — mid-record, mid-header, mid-fsync — resumes to a final CSV
//! byte-identical to an uninterrupted run. The "kill" is simulated by
//! truncating a copy of a complete journal at a random offset, which is
//! exactly the on-disk state a SIGKILL between two writes leaves behind.

use std::path::PathBuf;

use twocs_core::serialized::Method;
use twocs_core::sweep::{GridSweep, LocalPool};
use twocs_hw::DeviceSpec;
use twocs_store::{run, Buffer, SweepSpec, SweepStore};

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "twocs-crash-test-{}-{name}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn resume_from_any_truncation_point_is_byte_identical() {
    let device = DeviceSpec::mi210();
    let spec = SweepSpec {
        sweep: GridSweep {
            method: Method::Projection,
            ..GridSweep::default()
        },
        chunk_size: 4,
        device_name: device.name().to_owned(),
        device_fingerprint: device.fingerprint(),
    };

    // Reference: one clean, journaled run.
    let journal = tmp("full");
    let want = Buffer::default();
    let store = SweepStore::create(spec.clone(), Box::new(want.clone()), Some(&journal)).unwrap();
    // File size right after create = header + spec record; any cut at or
    // past this point leaves a resumable journal.
    let spec_end = std::fs::metadata(&journal).unwrap().len() as usize;
    run(&LocalPool { jobs: 4 }, &device, store).unwrap();
    let want = want.take();
    let full = std::fs::read(&journal).unwrap();
    std::fs::remove_file(&journal).unwrap();
    // 12-byte magic+version header, then the spec record, then chunks.
    assert!(full.len() > spec_end, "journal has chunk content");

    twocs_testkit::cases(16, |rng| {
        // A SIGKILL can land anywhere at or after the spec record —
        // including mid-chunk-record; resume must replay the clean
        // prefix and recompute the rest, never produce different bytes.
        let cut = rng.usize_in(spec_end..full.len());
        let path = tmp(&format!("cut-{cut}"));
        std::fs::write(&path, &full[..cut]).unwrap();

        let got = Buffer::default();
        let resumed = SweepStore::resume(&path, Box::new(got.clone())).unwrap();
        let replayed = resumed.completed().len();
        let (_, report) = run(&LocalPool { jobs: 3 }, &device, resumed).unwrap();
        assert_eq!(report.rows, spec.point_count());
        assert_eq!(report.replayed_chunks as usize, replayed);

        let got = got.take();
        assert_eq!(
            got, want,
            "truncation at byte {cut} must still yield identical bytes"
        );
        std::fs::remove_file(&path).unwrap();
    });
}

/// Truncating *inside the spec record* leaves no valid run to resume;
/// the store must refuse rather than guess.
#[test]
fn truncation_before_the_spec_record_refuses_to_resume() {
    let device = DeviceSpec::mi210();
    let spec = SweepSpec {
        sweep: GridSweep {
            method: Method::Projection,
            ..GridSweep::default()
        },
        chunk_size: 8,
        device_name: device.name().to_owned(),
        device_fingerprint: device.fingerprint(),
    };
    let journal = tmp("headless");
    let store = SweepStore::create(spec, Box::new(Buffer::default()), Some(&journal)).unwrap();
    drop(store);
    let full = std::fs::read(&journal).unwrap();
    std::fs::remove_file(&journal).unwrap();

    // Keep the magic+version header but cut the spec record short.
    let path = tmp("headless-cut");
    std::fs::write(&path, &full[..20.min(full.len())]).unwrap();
    assert!(SweepStore::resume(&path, Box::new(Buffer::default())).is_err());
    std::fs::remove_file(&path).unwrap();
}
