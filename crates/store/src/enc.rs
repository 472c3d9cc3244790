//! Byte-level encoding shared by the journal, the spill file, the spec
//! fingerprint and the dist wire: little-endian scalars, length-prefixed
//! strings and lists, a table-driven CRC-32 (IEEE), and FNV-1a 64.
//!
//! There is one codec and two version numbers. A sweep spec
//! ([`SweepSpec::encode`](crate::SweepSpec::encode)) and a chunk's results
//! ([`put_values`]/[`read_values`]) are encoded here and nowhere else: the
//! journal stores these bytes, and the dist wire ships the same bytes in
//! its `Job` and `ChunkResult` frames. Changing either encoding changes
//! both artifacts, so it must bump the journal's format `VERSION` and the
//! wire's `PROTOCOL_VERSION` together. Conventions: LE integers, f64 by bit
//! pattern, u32 length prefixes bounded by remaining input.

use twocs_core::PointResults;

/// Append a u32, little-endian.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a u64, little-endian.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an f64 by bit pattern (bit-exact round trip, NaN included).
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a length-prefixed u64 list.
pub(crate) fn put_u64_list(out: &mut Vec<u8>, list: &[u64]) {
    put_u32(out, list.len() as u32);
    for &v in list {
        put_u64(out, v);
    }
}

/// Append a length-prefixed f64 list (by bit pattern).
pub(crate) fn put_f64_list(out: &mut Vec<u8>, list: &[f64]) {
    put_u32(out, list.len() as u32);
    for &v in list {
        put_f64(out, v);
    }
}

/// Sequential reader over an encoded payload; every read is
/// bounds-checked and length prefixes are validated against the
/// remaining input, so corrupt payloads fail with an error instead of
/// a panic or an absurd allocation.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    pub(crate) fn done(&self) -> bool {
        self.at == self.buf.len()
    }

    /// Consume and return the rest of the input.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.at..];
        self.at = self.buf.len();
        rest
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes, {} left",
                self.remaining()
            ));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix for items of at least `item_bytes` encoded bytes
    /// each, rejected when that many cannot fit in the remaining input.
    /// Decoded items are larger in memory than on the wire, so this is
    /// what bounds `Vec::with_capacity(n)` on hostile input.
    pub(crate) fn len_prefix(&mut self, item_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(item_bytes.max(1)) > self.remaining() {
            return Err(format!(
                "element count {n} exceeds payload ({} bytes left)",
                self.remaining()
            ));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let n = self.len_prefix(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("invalid UTF-8: {e}"))
    }

    pub(crate) fn u64_list(&mut self) -> Result<Vec<u64>, String> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    pub(crate) fn f64_list(&mut self) -> Result<Vec<f64>, String> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
}

/// Smallest encoded point result: the `Err` tag plus an empty message.
const RESULT_MIN_LEN: usize = 1 + 4;

/// Append one chunk's per-point results: count, then per point either
/// `0` + two f64 bit patterns (ok) or `1` + error string.
pub fn put_values(out: &mut Vec<u8>, values: &PointResults) {
    put_u32(out, values.len() as u32);
    for v in values {
        match v {
            Ok((s, o)) => {
                out.push(0);
                put_f64(out, *s);
                put_f64(out, *o);
            }
            Err(msg) => {
                out.push(1);
                put_str(out, msg);
            }
        }
    }
}

/// Decode one [`put_values`] encoding that spans all of `buf`. Strict:
/// truncation, trailing bytes and unknown tags are errors.
pub fn read_values(buf: &[u8]) -> Result<PointResults, String> {
    let mut r = Reader::new(buf);
    let n = r.len_prefix(RESULT_MIN_LEN)?;
    let mut values = PointResults::with_capacity(n);
    for _ in 0..n {
        values.push(match r.u8()? {
            0 => Ok((r.f64()?, r.f64()?)),
            1 => Err(r.str()?),
            t => return Err(format!("unknown point-result tag {t}")),
        });
    }
    if !r.done() {
        return Err(format!(
            "{} trailing bytes after point results",
            r.remaining()
        ));
    }
    Ok(values)
}

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight table lookups consume eight input bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        b += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes` —
/// the per-record checksum the journal uses to detect torn or corrupt
/// records on replay. Slicing-by-8 over `CRC_TABLES`, built at compile
/// time: the journal checksums every chunk's results (~17 MB on a
/// million-point sweep) on the recorder thread, where a bitwise CRC
/// was most of the journal's time. The values are the bitwise CRC's,
/// so journals written by either form replay under the other.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// FNV-1a 64 over a byte slice (the spec fingerprint hash).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The table-free bitwise CRC-32: the oracle the table form must
    /// reproduce value for value.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
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

    /// Every length 0..=300 at every start offset 0..8, so each split
    /// between the 8-byte words and the byte-wise tail is exercised at
    /// every alignment.
    #[test]
    fn table_crc32_equals_bitwise_crc32() {
        let mut rng = twocs_testkit::Rng::new(0x0c3c_3c32);
        for len in 0..=300 {
            let buf: Vec<u8> = (0..len + 8).map(|_| rng.next_u64() as u8).collect();
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    bitwise_crc32(bytes),
                    "start {start} len {len}"
                );
            }
        }
        let zeros = [0u8; 300];
        let ones = [0xffu8; 300];
        assert_eq!(crc32(&zeros), bitwise_crc32(&zeros));
        assert_eq!(crc32(&ones), bitwise_crc32(&ones));
    }

    #[test]
    fn values_round_trip_bit_exact() {
        let values: PointResults = vec![
            Ok((42.125, -0.0)),
            Err("point exploded".to_owned()),
            Ok((f64::NAN, 1.0)),
        ];
        let mut buf = Vec::new();
        put_values(&mut buf, &values);
        let back = read_values(&buf).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            match (a, b) {
                (Ok((s1, o1)), Ok((s2, o2))) => {
                    assert_eq!(s1.to_bits(), s2.to_bits());
                    assert_eq!(o1.to_bits(), o2.to_bits());
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                _ => panic!("variant changed in round trip"),
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The journal and the dist wire both carry these exact bytes. Any
    /// change to them must bump the journal's `VERSION` and the wire's
    /// `PROTOCOL_VERSION` together: an old journal or an old worker
    /// would otherwise read a different grid or different values.
    #[test]
    fn shared_codec_bytes_are_pinned() {
        use twocs_core::serialized::Method;
        use twocs_core::sweep::{GridSweep, Workload};
        let spec = crate::SweepSpec {
            sweep: GridSweep {
                hs: vec![4096],
                sls: vec![2048],
                tps: vec![16],
                flop_vs_bw: vec![1.5],
                experts: vec![1],
                top_ks: vec![1],
                stages: vec![1],
                micro_batches: vec![1],
                sps: vec![1],
                batch: 1,
                method: Method::Projection,
                workload: Workload::Decode,
            },
            chunk_size: 4,
            device_name: "MI210".to_owned(),
            device_fingerprint: 0x0123_4567_89ab_cdef,
        };
        let one = "010000000100000000000000";
        assert_eq!(
            hex(&spec.encode()),
            [
                "010000000010000000000000", // hs
                "010000000008000000000000", // sls
                "010000001000000000000000", // tps
                "01000000000000000000f83f", // flop_vs_bw (1.5 by bit pattern)
                one,                        // experts
                one,                        // top_ks
                one,                        // stages
                one,                        // micro_batches
                one,                        // sps
                "0100000000000000",         // batch
                "01",                       // method: projection
                "02",                       // workload: decode
                "04000000",                 // chunk_size
                "050000004d49323130",       // device name "MI210"
                "efcdab8967452301",         // device fingerprint
            ]
            .concat()
        );
        let values: PointResults = vec![
            Ok((1.5, -0.0)),
            Err("boom".to_owned()),
            Ok((f64::from_bits(0x7ff8_0000_0000_0001), 2.0)),
        ];
        let mut buf = Vec::new();
        put_values(&mut buf, &values);
        assert_eq!(
            hex(&buf),
            [
                "03000000",                           // count
                "00000000000000f83f0000000000000080", // Ok(1.5, -0.0)
                "0104000000626f6f6d",                 // Err("boom")
                "00010000000000f87f0000000000000040", // Ok(NaN payload 1, 2.0)
            ]
            .concat()
        );
        let back = read_values(&buf).unwrap();
        let Ok((nan, _)) = back[2] else {
            panic!("variant changed in round trip")
        };
        assert_eq!(nan.to_bits(), 0x7ff8_0000_0000_0001);
    }

    /// A result count is bounded by the 5-byte minimum encoded result
    /// (an `Err` tag and an empty message), not by one byte per result.
    #[test]
    fn result_counts_are_bounded_by_the_smallest_encoded_result() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 5);
        buf.extend_from_slice(&[1, 0, 0, 0, 0].repeat(4));
        let err = read_values(&buf).unwrap_err();
        assert!(err.contains("exceeds payload"), "{err}");
        buf[0] = 4;
        assert_eq!(read_values(&buf).unwrap().len(), 4);
    }

    #[test]
    fn corrupt_length_prefixes_error_out() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Reader::new(&buf).u64_list().is_err());
        assert!(read_values(&buf).is_err());
        assert!(Reader::new(&[0, 0]).u32().is_err());
    }
}
