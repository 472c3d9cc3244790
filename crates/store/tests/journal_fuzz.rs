//! Std-only mutation fuzzing of the journal record decoder: a small valid
//! journal goes through bit flips, truncation, appended garbage and
//! forged 4-byte windows (record lengths and the element counts inside
//! payloads). Half the cases then re-seal every record's CRC and the spec
//! record's fingerprint, so the mutated payloads reach the spec and
//! chunk decoders instead of stopping at the checksum.
//!
//! [`Journal::open`] must answer `Ok` or `Err` for every input: it never
//! panics, and no single allocation it makes exceeds a small constant
//! factor of the file's size (a forged count must be rejected before
//! anything is reserved for it). A counting global allocator checks the
//! second half; it lives here, in a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use twocs_core::serialized::Method;
use twocs_core::sweep::GridSweep;
use twocs_store::{Journal, SweepSpec};
use twocs_testkit::{cases, Rng};

/// Forwards to [`System`], recording the largest single request made
/// while the calling thread has tracking switched on.
struct PeakAlloc;

static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        PEAK.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates an
// atomic and a const-initialized thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` guarantees are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's valid size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// A decoded point takes 24 bytes in memory and at least 5 in the file
/// (an error tag and an empty message), and the file itself is read into
/// one buffer; 8x the file plus a page covers both with room to spare,
/// while a forged u32 count would ask for gigabytes.
fn alloc_limit(file_len: usize) -> usize {
    8 * file_len + 4096
}

const HEADER_LEN: usize = 12;
const FRAME_LEN: usize = 8;

fn spec() -> SweepSpec {
    SweepSpec {
        sweep: GridSweep {
            hs: vec![4096, 16_384],
            sls: vec![2048],
            tps: vec![16, 64],
            flop_vs_bw: vec![1.0, 2.0],
            method: Method::Projection,
            ..GridSweep::default()
        },
        chunk_size: 2,
        device_name: "mi210".to_owned(),
        device_fingerprint: 7,
    }
}

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "twocs-journal-fuzz-{}-{name}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The bytes of a small valid journal: spec, a lease, two chunks (one
/// holding an error result).
fn seed_journal() -> Vec<u8> {
    let path = tmp("seed");
    let s = spec();
    let mut j = Journal::create(&path, &s).unwrap();
    j.append_lease(0, 3).unwrap();
    j.append_chunk(0, &vec![Ok((1.5, 0.25)); s.chunk_len(0)])
        .unwrap();
    let mut mixed = vec![Ok((2.5, 0.75)); s.chunk_len(1)];
    mixed[0] = Err("point failed".to_owned());
    j.append_chunk(1, &mixed).unwrap();
    drop(j);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rewrite every whole record's CRC, and the first record's spec
/// fingerprint (`payload[1..9]`, the FNV-1a of the spec encoding after
/// it), so mutated payloads pass the integrity checks.
fn reseal(bytes: &mut [u8]) {
    let mut at = HEADER_LEN;
    while at + FRAME_LEN <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let end = at + FRAME_LEN + len;
        if end > bytes.len() {
            break;
        }
        let payload = &mut bytes[at + FRAME_LEN..end];
        if at == HEADER_LEN && payload.len() >= 9 {
            let fingerprint = fnv1a(&payload[9..]);
            payload[1..9].copy_from_slice(&fingerprint.to_le_bytes());
        }
        let crc = crc32(&bytes[at + FRAME_LEN..end]);
        bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        at = end;
    }
}

fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.usize_in(1..4) {
        let len = bytes.len();
        match rng.u32_in(0..5) {
            0 if len > 0 => {
                let i = rng.usize_in(0..len);
                bytes[i] ^= 1 << rng.u32_in(0..8);
            }
            1 => bytes.truncate(rng.usize_in(0..len + 1)),
            2 => {
                let extra = rng.usize_in(1..32);
                bytes.extend((0..extra).map(|_| rng.u32_in(0..256) as u8));
            }
            // Forge a 4-byte window: the first record's length, or any
            // window that might be a length or an element count.
            3 | 4 if len >= HEADER_LEN + 4 => {
                let at = if rng.bool() {
                    HEADER_LEN
                } else {
                    rng.usize_in(HEADER_LEN..len - 3)
                };
                let forged = match rng.u32_in(0..4) {
                    0 => u32::MAX,
                    1 => 64 * 1024 * 1024,
                    2 => rng.u32_in(0..len as u32 + 8),
                    _ => rng.next_u64() as u32,
                };
                bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            }
            _ => bytes.push(0),
        }
    }
}

/// Open `bytes` as a journal; it must answer without panicking and
/// within the allocation limit.
fn assert_open_is_total(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
    PEAK.store(0, Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let opened = Journal::open(path);
    TRACKING.with(|t| t.set(false));
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(
        peak <= alloc_limit(bytes.len()),
        "a {}-byte journal made a {peak}-byte allocation ({:?})",
        bytes.len(),
        opened.as_ref().err()
    );
    drop(opened);
}

#[test]
fn journal_open_survives_mutated_files() {
    let seed = seed_journal();
    let path = tmp("case");
    let (_, back, replay) = {
        std::fs::write(&path, &seed).unwrap();
        Journal::open(&path).expect("the seed journal opens")
    };
    assert_eq!((back, replay.chunks.len(), replay.leases), (spec(), 2, 1));
    assert_open_is_total(&path, &seed);
    cases(800, |rng| {
        let mut bytes = seed.clone();
        mutate(rng, &mut bytes);
        if rng.bool() {
            reseal(&mut bytes);
        }
        assert_open_is_total(&path, &bytes);
    });
    std::fs::remove_file(&path).unwrap();
}
