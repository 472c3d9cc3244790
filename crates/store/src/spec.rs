//! The durable sweep specification: everything a resumed process needs
//! to re-create the grid, validate it, and continue — the full
//! [`GridSweep`] axes, the chunk split, and the device identity.

use twocs_core::axes::{Values, AXES};
use twocs_core::sweep::{GridSweep, Workload};
use twocs_core::GridIndex;

use crate::enc::{self, Reader};

/// Stable one-byte tag for the evaluation method.
fn method_tag(m: twocs_core::serialized::Method) -> u8 {
    match m {
        twocs_core::serialized::Method::Simulation => 0,
        twocs_core::serialized::Method::Projection => 1,
    }
}

fn method_from_tag(t: u8) -> Result<twocs_core::serialized::Method, String> {
    match t {
        0 => Ok(twocs_core::serialized::Method::Simulation),
        1 => Ok(twocs_core::serialized::Method::Projection),
        other => Err(format!("unknown method tag {other}")),
    }
}

/// Stable one-byte tag for the workload.
fn workload_tag(w: Workload) -> u8 {
    match w {
        Workload::Training => 0,
        Workload::Prefill => 1,
        Workload::Decode => 2,
    }
}

fn workload_from_tag(t: u8) -> Result<Workload, String> {
    match t {
        0 => Ok(Workload::Training),
        1 => Ok(Workload::Prefill),
        2 => Ok(Workload::Decode),
        other => Err(format!("unknown workload tag {other}")),
    }
}

/// Append a grid's part of the spec encoding: every [`AXES`] list in
/// table order, then the batch and the method and workload tags. Two
/// grids write the same bytes iff they describe the same sweep, which is
/// what makes these bytes serve's `/v1/sweep` response-cache key too.
pub fn encode_grid(out: &mut Vec<u8>, sweep: &GridSweep) {
    for axis in &AXES {
        match axis.values {
            Values::U64 { list, .. } => enc::put_u64_list(out, list(sweep)),
            Values::F64 { list, .. } => enc::put_f64_list(out, list(sweep)),
        }
    }
    enc::put_u64(out, sweep.batch);
    out.push(method_tag(sweep.method));
    out.push(workload_tag(sweep.workload));
}

/// The journaled identity of one sweep run: the grid specification, the
/// chunk split that defines chunk ids, and the device it runs on.
///
/// Two runs are resumable into each other iff their spec
/// [fingerprints](Self::fingerprint) match — same axes in the same
/// order, same batch/method/workload, same chunk size, same device.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The grid being swept.
    pub sweep: GridSweep,
    /// Points per chunk — fixes the meaning of every chunk id in the
    /// journal and on the dist wire.
    pub chunk_size: u32,
    /// Catalog name of the device (resolvable on a restarted process).
    pub device_name: String,
    /// The device's [`fingerprint`](twocs_hw::DeviceSpec::fingerprint),
    /// so a renamed or re-calibrated catalog cannot silently resume
    /// into different numbers.
    pub device_fingerprint: u64,
}

impl SweepSpec {
    /// Total surviving grid points.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.sweep.point_count()
    }

    /// Number of chunks the grid splits into.
    #[must_use]
    pub fn chunk_count(&self) -> u32 {
        self.index().chunk_count(self.chunk_size.max(1) as usize) as u32
    }

    /// The lazy point index of the grid.
    #[must_use]
    pub fn index(&self) -> GridIndex {
        self.sweep.index()
    }

    /// Points in chunk `chunk` (the last chunk may be short).
    #[must_use]
    pub fn chunk_len(&self, chunk: u32) -> usize {
        let total = self.point_count();
        let size = self.chunk_size.max(1) as usize;
        let start = (chunk as usize) * size;
        total.saturating_sub(start).min(size)
    }

    /// Canonical byte encoding, the basis of the journal's spec record,
    /// the dist wire's `Job` frame and [`Self::fingerprint`]: the grid's
    /// [`encode_grid`] bytes, then the chunk size and the device. Any
    /// change here must bump both the journal format version and the
    /// wire's protocol version; `enc`'s tests pin the bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_grid(&mut out, &self.sweep);
        enc::put_u32(&mut out, self.chunk_size);
        enc::put_str(&mut out, &self.device_name);
        enc::put_u64(&mut out, self.device_fingerprint);
        out
    }

    /// Decode an encoding produced by [`Self::encode`] that spans all of
    /// `buf`. Strict: truncation, trailing bytes and unknown tags are
    /// errors.
    pub fn decode(buf: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(buf);
        let mut sweep = GridSweep::default();
        for axis in &AXES {
            match axis.values {
                Values::U64 { list_mut, .. } => *list_mut(&mut sweep) = r.u64_list()?,
                Values::F64 { list_mut, .. } => *list_mut(&mut sweep) = r.f64_list()?,
            }
        }
        sweep.batch = r.u64()?;
        sweep.method = method_from_tag(r.u8()?)?;
        sweep.workload = workload_from_tag(r.u8()?)?;
        let chunk_size = r.u32()?;
        let device_name = r.str()?;
        let device_fingerprint = r.u64()?;
        if !r.done() {
            return Err(format!("{} trailing bytes after sweep spec", r.remaining()));
        }
        Ok(Self {
            sweep,
            chunk_size,
            device_name,
            device_fingerprint,
        })
    }

    /// Stable fingerprint of the whole run spec — FNV-1a over the
    /// canonical encoding. The journal stores it next to the encoded
    /// spec; replay recomputes it from the decoded spec, so either a
    /// corrupted spec or an encoding drift between writer and reader
    /// versions fails loudly instead of resuming into a different grid.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        enc::fnv1a(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twocs_core::serialized::Method;

    fn sample() -> SweepSpec {
        SweepSpec {
            sweep: GridSweep {
                method: Method::Projection,
                workload: Workload::Decode,
                experts: vec![1, 4],
                top_ks: vec![2],
                ..GridSweep::default()
            },
            chunk_size: 7,
            device_name: "mi210".to_owned(),
            device_fingerprint: 0xdead_beef,
        }
    }

    #[test]
    fn spec_round_trips_and_fingerprint_is_stable() {
        let spec = sample();
        let back = SweepSpec::decode(&spec.encode()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fingerprint_separates_chunking_and_device() {
        let spec = sample();
        let mut other = sample();
        other.chunk_size = 8;
        assert_ne!(spec.fingerprint(), other.fingerprint());
        let mut dev = sample();
        dev.device_fingerprint ^= 1;
        assert_ne!(spec.fingerprint(), dev.fingerprint());
        // List boundaries are length-prefixed: moving a value between
        // adjacent lists must change the hash.
        let mut a = sample();
        a.sweep.hs = vec![4096, 2048];
        a.sweep.sls = vec![];
        let mut b = sample();
        b.sweep.hs = vec![4096];
        b.sweep.sls = vec![2048];
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn chunk_math_matches_the_grid() {
        let spec = sample();
        let n = spec.point_count();
        assert!(n > 0);
        let chunks = spec.chunk_count();
        assert_eq!(chunks as usize, n.div_ceil(7));
        let total: usize = (0..chunks).map(|c| spec.chunk_len(c)).sum();
        assert_eq!(total, n);
        assert_eq!(spec.chunk_len(chunks), 0);
    }

    #[test]
    fn truncated_spec_fails_to_decode() {
        let buf = sample().encode();
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            assert!(SweepSpec::decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(SweepSpec::decode(&trailing).is_err());
    }
}
