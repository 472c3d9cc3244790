//! Lazy, random-access indexing over a [`GridSweep`]'s pruned point
//! space — the seam that lets million-point grids flow through the sweep
//! fabric without ever materializing `Vec<GridPoint>` for the whole
//! grid.
//!
//! [`GridIndex`] owns the pruning rules and factors the pruned cross
//! product into the surviving `(H, SL, TP)` triples (pruning only ever
//! inspects those three axes plus the batch) and the filtered inner
//! axis lists. A point's grid-order rank is then a mixed-radix number
//! over those lists, so a chunk is just a rank range,
//! [`GridIndex::chunk_ranks`] of `(chunk index, chunk size)` — the unit
//! the journal and the distributed fabric identify work by.
//!
//! [`GridCursor`] is the sweep's one enumerator: an odometer that
//! decodes its starting rank once and then steps by carrying digits.
//! Executors evaluate, and the sink renders, each chunk off one cursor;
//! [`GridIndex::iter_range`], [`GridIndex::chunk_points`] and
//! [`GridSweep::points`] are the same cursor collected, so chunked
//! streaming output stays byte-identical to the in-memory path.
//! [`GridIndex::point`] decodes a single rank for random access. The
//! tests below check the index against an independent nested-loop
//! enumerator, and the cursor against random access from every rank.

use std::ops::Range;
use std::str::FromStr;

use crate::axes::{Values, AXES};
use crate::serialized::{check_point_work, realistic_tp, sweep_hyper, Method};
use crate::sweep::{GridPoint, GridSweep, Workload};
use twocs_hw::evolution::MAX_FLOP_VS_BW;

/// Random-access view of a [`GridSweep`]'s pruned point space.
///
/// Memory is O(surviving triples + axis values) — independent of the
/// point count, which is `triples × ratios × axis tuples`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridIndex {
    /// Surviving `(H, SL, TP)` triples, in grid order.
    triples: Vec<(u64, u64, u64)>,
    /// Flop-vs-bw ratios (never pruned, duplicates preserved).
    ratios: Vec<f64>,
    /// Valid `(experts, top_k)` pairs, in nested list order.
    pairs: Vec<(u64, u64)>,
    /// Non-zero pipeline stage counts, in list order.
    stages: Vec<u64>,
    /// Non-zero micro-batch counts, in list order.
    micros: Vec<u64>,
    /// Non-zero sequence-parallel degrees, in list order.
    sps: Vec<u64>,
}

impl GridIndex {
    /// Build the index for `sweep`: the one place the grid's pruning
    /// rules live. Hidden sizes that are zero or not multiples of the
    /// fixed 256-way head sharding, a zero batch, zero SL/TP, unrealistic
    /// `(H, TP)` pairs ([`realistic_tp`]) and TP above the head count are
    /// pruned, as are zero extended-axis values and `top_k > experts`.
    #[must_use]
    pub fn new(sweep: &GridSweep) -> Self {
        let mut triples = Vec::new();
        for &h in &sweep.hs {
            if h == 0 || h % 256 != 0 || sweep.batch == 0 {
                continue;
            }
            for &sl in &sweep.sls {
                if sl == 0 {
                    continue;
                }
                for &tp in &sweep.tps {
                    if tp == 0
                        || !realistic_tp(h, tp)
                        || tp > sweep_hyper(h, sl, sweep.batch).heads()
                    {
                        continue;
                    }
                    triples.push((h, sl, tp));
                }
            }
        }
        let mut pairs = Vec::new();
        for &experts in &sweep.experts {
            for &top_k in &sweep.top_ks {
                if experts == 0 || top_k == 0 || top_k > experts {
                    continue;
                }
                pairs.push((experts, top_k));
            }
        }
        Self {
            triples,
            ratios: sweep.flop_vs_bw.clone(),
            pairs,
            stages: sweep.stages.iter().copied().filter(|&s| s != 0).collect(),
            micros: sweep
                .micro_batches
                .iter()
                .copied()
                .filter(|&m| m != 0)
                .collect(),
            sps: sweep.sps.iter().copied().filter(|&s| s != 0).collect(),
        }
    }

    /// Points per surviving `(H, SL, TP)` triple: the full inner cross
    /// product of ratio and extended-axis values.
    fn inner(&self) -> usize {
        self.ratios.len() * self.axis_count()
    }

    /// Total surviving points — `sweep.points().len()` without building
    /// the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.triples.len() * self.inner()
    }

    /// Whether the grid has no surviving points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The surviving `(H, SL, TP)` triples, in grid order.
    #[must_use]
    pub fn triples(&self) -> &[(u64, u64, u64)] {
        &self.triples
    }

    /// The ratio axis (unpruned, duplicates preserved).
    #[must_use]
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }

    /// Distinct extended-axis tuples in grid order — the inner cross
    /// product of `(experts, top_k) × stages × micro_batches × sp`.
    pub fn axis_tuples(&self) -> impl Iterator<Item = (u64, u64, u64, u64, u64)> + '_ {
        self.pairs.iter().flat_map(move |&(e, k)| {
            self.stages.iter().flat_map(move |&s| {
                self.micros
                    .iter()
                    .flat_map(move |&m| self.sps.iter().map(move |&sp| (e, k, s, m, sp)))
            })
        })
    }

    /// Whether any surviving point departs from the neutral extended
    /// axes — equivalently, whether
    /// `sweep.points().iter().any(|p| !p.axes_default())`. This decides
    /// the CSV header shape up front, which is what lets streaming
    /// renderers emit the legacy 6-column artifact byte-for-byte
    /// without seeing the whole grid.
    #[must_use]
    pub fn extended(&self) -> bool {
        !self.is_empty()
            && (self.pairs.iter().any(|&(e, k)| e > 1 || k > 1)
                || self.stages.iter().any(|&s| s > 1)
                || self.micros.iter().any(|&m| m > 1)
                || self.sps.iter().any(|&s| s > 1))
    }

    /// The point at grid-order rank `i` — equal to `sweep.points()[i]`.
    /// Random access: one mixed-radix decode per call. Consecutive ranks
    /// are cheaper through a [`GridCursor`].
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn point(&self, i: usize) -> GridPoint {
        assert!(i < self.len(), "point rank {i} out of range {}", self.len());
        self.cursor(i).point()
    }

    /// A cursor at grid-order rank `rank` (`rank == len()` is the end).
    /// The rank is decoded into its mixed-radix digits once; each
    /// [`GridCursor::advance`] then carries digits instead of decoding.
    ///
    /// # Panics
    /// Panics if `rank > self.len()`.
    #[must_use]
    pub fn cursor(&self, rank: usize) -> GridCursor<'_> {
        assert!(
            rank <= self.len(),
            "cursor rank {rank} out of range {}",
            self.len()
        );
        let mut cursor = GridCursor {
            index: self,
            rank,
            triple: self.triples.len(),
            ratio: 0,
            axis: 0,
            pair: 0,
            stage: 0,
            micro: 0,
            sp: 0,
            point: GridPoint::new(0, 0, 0, 0.0),
        };
        if rank == self.len() {
            return cursor;
        }
        let axes = self.axis_count();
        let (pair_stride, stage_stride) = (
            self.stages.len() * self.micros.len() * self.sps.len(),
            self.micros.len() * self.sps.len(),
        );
        cursor.triple = rank / self.inner();
        let rem = rank % self.inner();
        cursor.ratio = rem / axes;
        cursor.axis = rem % axes;
        cursor.pair = cursor.axis / pair_stride;
        cursor.stage = cursor.axis % pair_stride / stage_stride;
        cursor.micro = cursor.axis % stage_stride / self.sps.len();
        cursor.sp = cursor.axis % self.sps.len();
        let (h, sl, tp) = self.triples[cursor.triple];
        let (experts, top_k) = self.pairs[cursor.pair];
        cursor.point = GridPoint {
            h,
            sl,
            tp,
            ratio: self.ratios[cursor.ratio],
            experts,
            top_k,
            stages: self.stages[cursor.stage],
            micro_batches: self.micros[cursor.micro],
            sp: self.sps[cursor.sp],
        };
        cursor
    }

    /// Number of extended-axis tuples: the length of
    /// [`Self::axis_tuples`].
    pub(crate) fn axis_count(&self) -> usize {
        self.pairs.len() * self.stages.len() * self.micros.len() * self.sps.len()
    }

    /// Iterate the points of `ranks` (clamped to the grid) lazily in
    /// grid order, off one cursor.
    #[must_use]
    pub fn iter_range(&self, ranks: Range<usize>) -> GridPointsIter<'_> {
        let end = ranks.end.min(self.len());
        GridPointsIter {
            cursor: self.cursor(ranks.start.min(end)),
            end,
        }
    }

    /// Materialize the points of ranks `start..end` (clamped to the
    /// grid), in grid order — the unit a chunk lease or a streaming
    /// renderer needs, O(end − start) memory.
    #[must_use]
    pub fn range(&self, start: usize, end: usize) -> Vec<GridPoint> {
        self.iter_range(start..end).collect()
    }

    /// Iterate every point lazily in grid order.
    #[must_use]
    pub fn iter(&self) -> GridPointsIter<'_> {
        self.iter_range(0..self.len())
    }

    /// Number of `chunk_size`-point chunks covering the grid.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    #[must_use]
    pub fn chunk_count(&self, chunk_size: usize) -> usize {
        assert!(chunk_size > 0, "chunk_size must be non-zero");
        self.len().div_ceil(chunk_size)
    }

    /// The rank range of chunk `chunk` under a `chunk_size` split,
    /// clamped to the grid (empty past its end).
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    #[must_use]
    pub fn chunk_ranks(&self, chunk: usize, chunk_size: usize) -> Range<usize> {
        assert!(chunk_size > 0, "chunk_size must be non-zero");
        let start = chunk.saturating_mul(chunk_size).min(self.len());
        start..start.saturating_add(chunk_size).min(self.len())
    }

    /// The points of chunk `chunk` under a `chunk_size` split — the
    /// `chunk`-th `chunk_size` slice of `sweep.points()` without
    /// materializing the grid.
    #[must_use]
    pub fn chunk_points(&self, chunk: usize, chunk_size: usize) -> Vec<GridPoint> {
        let ranks = self.chunk_ranks(chunk, chunk_size);
        self.range(ranks.start, ranks.end)
    }
}

/// An odometer over a [`GridIndex`]: a rank held as its mixed-radix
/// digits, plus the point they name. [`GridIndex::cursor`] decodes the
/// starting rank once; [`Self::advance`] steps to the next rank by
/// carrying digits, touching only the point fields whose digit moved.
/// The digits double as table coordinates: [`Self::cell`] is the
/// `(triple, ratio, axis tuple)` position a factored plan prices.
#[derive(Debug, Clone)]
pub struct GridCursor<'a> {
    index: &'a GridIndex,
    rank: usize,
    /// Position in [`GridIndex::triples`].
    triple: usize,
    /// Position in [`GridIndex::ratios`].
    ratio: usize,
    /// Position in [`GridIndex::axis_tuples`]; the four digits below
    /// are its own mixed-radix split.
    axis: usize,
    pair: usize,
    stage: usize,
    micro: usize,
    sp: usize,
    point: GridPoint,
}

impl GridCursor<'_> {
    /// The cursor's grid-order rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The point at [`Self::rank`] — `index.point(self.rank())`.
    /// Unspecified once the cursor has reached the end of the grid.
    #[must_use]
    pub fn point(&self) -> GridPoint {
        self.point
    }

    /// The point's `(triple, ratio, axis tuple)` digits: its positions
    /// in [`GridIndex::triples`], [`GridIndex::ratios`] and
    /// [`GridIndex::axis_tuples`].
    #[must_use]
    pub fn cell(&self) -> (usize, usize, usize) {
        (self.triple, self.ratio, self.axis)
    }

    /// Step to the next rank. The extended axes vary fastest, then the
    /// ratio, then the triple; past the last point the cursor sits at
    /// the end (`rank() == len()`).
    #[inline]
    pub fn advance(&mut self) {
        let ix = self.index;
        self.rank += 1;
        self.axis += 1;
        self.sp += 1;
        if let Some(&sp) = ix.sps.get(self.sp) {
            self.point.sp = sp;
            return;
        }
        self.sp = 0;
        self.point.sp = ix.sps[0];
        self.micro += 1;
        if let Some(&m) = ix.micros.get(self.micro) {
            self.point.micro_batches = m;
            return;
        }
        self.micro = 0;
        self.point.micro_batches = ix.micros[0];
        self.stage += 1;
        if let Some(&s) = ix.stages.get(self.stage) {
            self.point.stages = s;
            return;
        }
        self.stage = 0;
        self.point.stages = ix.stages[0];
        self.pair += 1;
        if let Some(&(e, k)) = ix.pairs.get(self.pair) {
            (self.point.experts, self.point.top_k) = (e, k);
            return;
        }
        self.pair = 0;
        (self.point.experts, self.point.top_k) = ix.pairs[0];
        self.axis = 0;
        self.ratio += 1;
        if let Some(&r) = ix.ratios.get(self.ratio) {
            self.point.ratio = r;
            return;
        }
        self.ratio = 0;
        self.point.ratio = ix.ratios[0];
        self.triple += 1;
        if let Some(&(h, sl, tp)) = ix.triples.get(self.triple) {
            (self.point.h, self.point.sl, self.point.tp) = (h, sl, tp);
        }
    }
}

/// Lazy grid-order point iterator over one [`GridCursor`] (see
/// [`GridIndex::iter_range`]).
#[derive(Debug, Clone)]
pub struct GridPointsIter<'a> {
    cursor: GridCursor<'a>,
    end: usize,
}

impl Iterator for GridPointsIter<'_> {
    type Item = GridPoint;

    fn next(&mut self) -> Option<GridPoint> {
        if self.cursor.rank >= self.end {
            return None;
        }
        let p = self.cursor.point;
        self.cursor.advance();
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.cursor.rank;
        (left, Some(left))
    }
}

impl ExactSizeIterator for GridPointsIter<'_> {}

impl GridSweep {
    /// Build the lazy random-access index over this sweep's pruned point
    /// space — O(axes) memory however many points the grid has.
    #[must_use]
    pub fn index(&self) -> GridIndex {
        GridIndex::new(self)
    }

    /// Number of surviving grid points, without materializing them.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.index().len()
    }

    /// Read a sweep request and [`validate`](Self::validate) it: the one
    /// parser behind `twocs sweep` and `GET /v1/sweep`.
    ///
    /// `get(name)` is the request's raw value of the parameter whose
    /// query name is `name`: each [`Axis::query`](crate::Axis::query),
    /// then `workload`, `b` and `method`. An omitted parameter keeps its
    /// [`GridSweep::default`]; axis values are comma-separated lists.
    /// This only parses, and every range and finiteness rule is
    /// `validate`'s. A value that does not parse is named by
    /// `spell(name)`, the front end's own spelling of the parameter, so
    /// the front ends word every error alike apart from that name.
    ///
    /// # Errors
    /// The first value that does not parse, else `validate`'s message.
    pub fn parse_request<'a>(
        get: impl Fn(&str) -> Option<&'a str>,
        spell: impl Fn(&str) -> String,
    ) -> Result<Self, String> {
        let mut grid = Self::default();
        for axis in &AXES {
            let Some(raw) = get(axis.query) else {
                continue;
            };
            let invalid = |v: &str, expected: &str| {
                let name = spell(axis.query);
                format!("invalid value `{v}` in `{name}` (expected {expected})")
            };
            match axis.values {
                Values::U64 { list_mut, .. } => {
                    *list_mut(&mut grid) = parse_list(raw, |v| invalid(v, "integers"))?;
                }
                Values::F64 { list_mut, .. } => {
                    *list_mut(&mut grid) = parse_list(raw, |v| invalid(v, "numbers"))?;
                }
            }
        }
        if let Some(raw) = get("workload") {
            grid.workload = raw.parse()?;
        }
        if let Some(raw) = get("b") {
            grid.batch = raw.parse().map_err(|_| {
                format!(
                    "invalid value `{raw}` for `{}` (expected an integer)",
                    spell("b")
                )
            })?;
        }
        if let Some(raw) = get("method") {
            grid.method = raw.parse()?;
        }
        grid.validate()?;
        Ok(grid)
    }

    /// Reject axes that describe no model, with the one message every
    /// front end (`twocs sweep`, `GET /v1/sweep`, `/v1/evolve`) reports.
    /// Without this check a bad axis value would be silently pruned to a
    /// smaller grid, and a ratio below 1 would run as today's hardware
    /// while its rows carry the input value.
    ///
    /// # Errors
    /// The first problem found, phrased with the query-parameter names.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(h) = self.hs.iter().find(|&&h| h == 0 || h % 256 != 0) {
            return Err(format!(
                "h={h}: hidden sizes must be non-zero multiples of 256 (the sweep fixes 256-way head sharding)"
            ));
        }
        if self.sls.contains(&0) || self.tps.contains(&0) || self.batch == 0 {
            return Err("sl, tp, and b values must be non-zero".to_owned());
        }
        check_flop_vs_bw(&self.flop_vs_bw)?;
        crate::axes::check_extended_non_zero(self)?;
        for (axis, values) in [
            ("experts", &self.experts),
            ("stages", &self.stages),
            ("sp", &self.sps),
        ] {
            if let Some(v) = values.iter().find(|&&v| v > MAX_GROUP) {
                return Err(format!(
                    "{axis}={v}: experts, stages and sp count the devices of one group, \
                     at most {MAX_GROUP} (the sweep's largest TP)"
                ));
            }
        }
        // A micro-batch holds at least one token of every point's batch;
        // past SL·B the pipeline's boundary transfer of an empty slot is
        // all a stage does, and every row would read 100%.
        if let Some(tokens) = self
            .sls
            .iter()
            .min()
            .map(|&sl| sl.saturating_mul(self.batch))
        {
            if let Some(m) = self.micro_batches.iter().find(|&&m| m > tokens) {
                return Err(format!(
                    "micro_batches={m}: at most sl*b = {tokens} (the shortest sequence's tokens), \
                     so each micro-batch holds at least one token"
                ));
            }
        }
        // The index prunes top_k > experts pairs; if *no* pair survives
        // the request is contradictory rather than merely smaller.
        if !self
            .experts
            .iter()
            .any(|&e| self.top_ks.iter().any(|&k| k <= e))
        {
            return Err("top_k exceeds experts for every requested combination".to_owned());
        }
        // The discrete-event simulation models the dense TP training
        // iteration only.
        if self.method == Method::Simulation {
            if self.workload != Workload::Training {
                return Err(format!(
                    "workload={} requires method=proj (the simulation engine models training only)",
                    self.workload
                ));
            }
            if [&self.experts, &self.stages, &self.micro_batches, &self.sps]
                .iter()
                .any(|axis| axis.iter().any(|&v| v > 1))
            {
                return Err(
                    "experts/stages/sp above 1 require method=proj, as do micro_batches above 1 \
                     (the simulation engine models the dense TP iteration only)"
                        .to_owned(),
                );
            }
        }
        if let Some(tp) = self.tps.iter().find(|&&tp| 256 % tp != 0) {
            return Err(format!(
                "tp={tp}: tensor-parallel degrees must divide 256 (the sweep fixes 256-way head sharding)"
            ));
        }
        // Work grows with H, SL and B and shrinks with TP, so the longest
        // sequence bounds every realistic (H, TP) pair.
        let sl = self.sls.iter().copied().max().unwrap_or(0);
        for &h in &self.hs {
            for &tp in self.tps.iter().filter(|&&tp| realistic_tp(h, tp)) {
                check_point_work(h, sl, self.batch, tp)?;
            }
        }
        if self.point_count() == 0 {
            return Err("grid has no realistic points; widen h/tp".to_owned());
        }
        Ok(())
    }
}

/// The most devices an extended axis may count: MoE experts (one per
/// device of the all-to-all), pipeline stages and sequence-parallel
/// ranks. The axes price each group as one flat ring or chain on the
/// node's links, like TP, whose 256-way head sharding caps it at 256;
/// far past that a point describes no machine, and its communication
/// latency terms alone read 100%.
pub const MAX_GROUP: u64 = 256;

/// Refuse flop-vs-bw ratios that are not finite, below 1 or above
/// [`MAX_FLOP_VS_BW`], the rule `twocs sweep`, `/v1/sweep`, `/v1/evolve`
/// and `twocs analyze` share.
///
/// # Errors
/// Names the rule the first offending ratio breaks.
pub fn check_flop_vs_bw(ratios: &[f64]) -> Result<(), String> {
    if ratios.iter().any(|&r| !(r.is_finite() && r >= 1.0)) {
        return Err("flop_vs_bw ratios must be finite and >= 1 (1 = today's hardware)".to_owned());
    }
    if let Some(r) = ratios.iter().find(|&&r| r > MAX_FLOP_VS_BW) {
        return Err(format!(
            "flop_vs_bw={r:e}: ratios above {MAX_FLOP_VS_BW:e} overflow the evolved device's peak FLOPS"
        ));
    }
    Ok(())
}

/// `raw` as a comma-separated list; an entry that does not parse is
/// reported through `invalid`.
fn parse_list<T: FromStr>(raw: &str, invalid: impl Fn(&str) -> String) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|v| v.trim().parse().map_err(|_| invalid(v)))
        .collect()
}

/// A set of chunk ids (in [`GridIndex::chunk_ranks`] numbering) held as
/// one bit per chunk: the chunks a sweep's store has recorded, which its
/// executor skips. A million chunks take 128 KiB.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkSet {
    /// Bit `c % 64` of word `c / 64` is chunk `c`.
    words: Vec<u64>,
    len: usize,
}

impl ChunkSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `chunk`; `false` if it was already present.
    pub fn insert(&mut self, chunk: u32) -> bool {
        let (word, bit) = (chunk as usize / 64, 1u64 << (chunk % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `chunk` is present.
    #[must_use]
    pub fn contains(&self, chunk: u32) -> bool {
        self.words
            .get(chunk as usize / 64)
            .is_some_and(|w| w & (1 << (chunk % 64)) != 0)
    }

    /// Number of chunks present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no chunk is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The present chunks, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.words.len() as u32 * 64).filter(|&c| self.contains(c))
    }

    /// The chunks below `chunks` that are absent, ascending — what is
    /// left to evaluate of a `chunks`-chunk grid — without collecting
    /// them.
    pub fn missing(&self, chunks: u32) -> impl Iterator<Item = u32> + '_ {
        (0..chunks).filter(|&c| !self.contains(c))
    }
}

impl FromIterator<u32> for ChunkSet {
    fn from_iter<I: IntoIterator<Item = u32>>(chunks: I) -> Self {
        let mut set = Self::new();
        for chunk in chunks {
            set.insert(chunk);
        }
        set
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use twocs_testkit::cases;

    /// An independent reference enumerator: the plain nested loops over
    /// every axis, pruning each value where it appears. The index must
    /// reproduce its points, in its order.
    fn reference_points(sweep: &GridSweep) -> Vec<GridPoint> {
        let mut points = Vec::new();
        for &h in &sweep.hs {
            if h == 0 || h % 256 != 0 || sweep.batch == 0 {
                continue;
            }
            for &sl in &sweep.sls {
                if sl == 0 {
                    continue;
                }
                for &tp in &sweep.tps {
                    if tp == 0
                        || !realistic_tp(h, tp)
                        || tp > sweep_hyper(h, sl, sweep.batch).heads()
                    {
                        continue;
                    }
                    for &ratio in &sweep.flop_vs_bw {
                        for &experts in &sweep.experts {
                            for &top_k in &sweep.top_ks {
                                if experts == 0 || top_k == 0 || top_k > experts {
                                    continue;
                                }
                                for &stages in sweep.stages.iter().filter(|&&s| s != 0) {
                                    for &micro_batches in
                                        sweep.micro_batches.iter().filter(|&&m| m != 0)
                                    {
                                        for &sp in sweep.sps.iter().filter(|&&s| s != 0) {
                                            points.push(GridPoint {
                                                h,
                                                sl,
                                                tp,
                                                ratio,
                                                experts,
                                                top_k,
                                                stages,
                                                micro_batches,
                                                sp,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// A small random grid over axis values that exercise every pruning
    /// rule, with duplicated ratios (which the CLI accepts) and, often,
    /// single-value axes.
    pub(crate) fn arbitrary_sweep(rng: &mut twocs_testkit::Rng) -> GridSweep {
        let pick = |rng: &mut twocs_testkit::Rng, candidates: &[u64], max: usize| -> Vec<u64> {
            let n = rng.usize_in(1..max + 1);
            (0..n).map(|_| *rng.choose(candidates)).collect()
        };
        GridSweep {
            hs: pick(rng, &[0, 100, 2048, 4096, 16_384, 65_536], 3),
            sls: pick(rng, &[0, 512, 2048, 4096], 2),
            tps: pick(rng, &[0, 1, 4, 16, 64, 256, 1024], 3),
            flop_vs_bw: (0..rng.usize_in(1..4))
                .map(|_| *rng.choose(&[1.0, 2.0, 4.0]))
                .collect(),
            experts: pick(rng, &[0, 1, 2, 8], 2),
            top_ks: pick(rng, &[0, 1, 2, 4], 2),
            stages: pick(rng, &[0, 1, 4], 2),
            micro_batches: pick(rng, &[0, 1, 8], 2),
            sps: pick(rng, &[0, 1, 2], 2),
            batch: rng.u64_in(0..3),
            method: Method::Projection,
            workload: Workload::Training,
        }
    }

    #[test]
    fn index_matches_materialized_points_everywhere() {
        cases(60, |rng| {
            let sweep = arbitrary_sweep(rng);
            let points = reference_points(&sweep);
            let index = sweep.index();
            assert_eq!(sweep.points(), points, "{sweep:?}");
            assert_eq!(index.len(), points.len(), "{sweep:?}");
            assert_eq!(sweep.point_count(), points.len());
            for (i, p) in points.iter().enumerate() {
                assert_eq!(index.point(i), *p, "rank {i} of {sweep:?}");
            }
            let collected: Vec<GridPoint> = index.iter().collect();
            assert_eq!(collected, points);
            assert_eq!(
                index.extended(),
                points.iter().any(|p| !p.axes_default()),
                "{sweep:?}"
            );
        });
    }

    #[test]
    fn chunk_points_match_materialized_chunks() {
        cases(30, |rng| {
            let sweep = arbitrary_sweep(rng);
            let index = sweep.index();
            if index.is_empty() {
                return;
            }
            let chunk_size = rng.usize_in(1..index.len() + 3);
            let points = reference_points(&sweep);
            let chunks: Vec<&[GridPoint]> = points.chunks(chunk_size).collect();
            assert_eq!(index.chunk_count(chunk_size), chunks.len());
            for (c, chunk) in chunks.iter().enumerate() {
                assert_eq!(
                    index.chunk_points(c, chunk_size),
                    *chunk,
                    "chunk {c} of {sweep:?}"
                );
            }
        });
    }

    /// Walk a cursor from every rank of `index` across at least one
    /// triple boundary, checking each point and digit against random
    /// access and a from-scratch decode.
    fn check_cursor_from_every_rank(index: &GridIndex, what: &str) {
        let (inner, axes) = (index.inner(), index.axis_count());
        let tuples: Vec<_> = index.axis_tuples().collect();
        for start in 0..=index.len() {
            let mut cursor = index.cursor(start);
            for rank in start..index.len().min(start + 2 * inner + 1) {
                assert_eq!(cursor.rank(), rank, "{what}");
                let p = cursor.point();
                assert_eq!(p, index.point(rank), "rank {rank} from {start} of {what}");
                let (t, r, a) = cursor.cell();
                assert_eq!((t, r, a), (rank / inner, rank % inner / axes, rank % axes));
                assert_eq!(index.triples()[t], (p.h, p.sl, p.tp), "{what}");
                assert_eq!(index.ratios()[r].to_bits(), p.ratio.to_bits(), "{what}");
                assert_eq!(
                    tuples[a],
                    (p.experts, p.top_k, p.stages, p.micro_batches, p.sp),
                    "{what}"
                );
                cursor.advance();
            }
        }
        assert_eq!(index.cursor(index.len()).rank(), index.len());
    }

    #[test]
    fn cursor_equals_random_access_from_every_rank() {
        cases(40, |rng| {
            let sweep = arbitrary_sweep(rng);
            check_cursor_from_every_rank(&sweep.index(), &format!("{sweep:?}"));
        });
        // Every awkward axis at once: a duplicated ratio, pairs filtered
        // by `top_k > experts`, triples pruned by `realistic_tp`, and
        // single-value stage/micro-batch/SP axes.
        let sweep = GridSweep {
            hs: vec![1024, 16_384],
            sls: vec![2048],
            tps: vec![1, 4, 256],
            flop_vs_bw: vec![2.0, 1.0, 2.0],
            experts: vec![1, 2],
            top_ks: vec![1, 2, 4],
            stages: vec![4],
            micro_batches: vec![1],
            sps: vec![2],
            batch: 1,
            method: Method::Projection,
            workload: Workload::Training,
        };
        let index = sweep.index();
        assert!(index.triples().len() < 6, "some triple is pruned");
        assert_eq!(
            index.axis_tuples().count(),
            3,
            "(1, 2) and (*, 4) are filtered"
        );
        assert_eq!(index.len(), index.triples().len() * 3 * 3);
        assert_eq!(sweep.points(), reference_points(&sweep));
        check_cursor_from_every_rank(&index, "the awkward grid");
    }

    #[test]
    fn default_grid_indexes_exactly() {
        let sweep = GridSweep::default();
        assert_eq!(sweep.points(), reference_points(&sweep));
        assert!(!sweep.index().extended());
    }

    #[test]
    fn empty_grid_index_is_well_behaved() {
        let sweep = GridSweep {
            hs: vec![100],
            ..GridSweep::default()
        };
        let index = sweep.index();
        assert!(index.is_empty());
        assert!(!index.extended());
        assert_eq!(index.range(0, 10), Vec::new());
        assert_eq!(index.iter_range(3..10).len(), 0);
        assert_eq!(index.cursor(0).rank(), 0);
        assert_eq!(index.chunk_count(4), 0);
        assert_eq!(index.chunk_ranks(2, 4), 0..0);
    }

    /// The bit set against `BTreeSet`: inserts (duplicates included)
    /// report freshness, and membership, length, ascending iteration and
    /// the missing ids below a bound agree, across word boundaries.
    #[test]
    fn chunk_set_matches_a_btree_set() {
        use std::collections::BTreeSet;
        cases(40, |rng| {
            let bound = rng.u32_in(1..300);
            let (mut set, mut reference) = (ChunkSet::new(), BTreeSet::new());
            for _ in 0..rng.usize_in(0..200) {
                let chunk = rng.u32_in(0..bound);
                assert_eq!(set.insert(chunk), reference.insert(chunk), "{chunk}");
            }
            assert_eq!(set.len(), reference.len());
            assert_eq!(set.is_empty(), reference.is_empty());
            assert!(set.iter().eq(reference.iter().copied()));
            assert_eq!(ChunkSet::from_iter(reference.iter().copied()), set);
            for chunk in 0..bound + 70 {
                assert_eq!(set.contains(chunk), reference.contains(&chunk), "{chunk}");
            }
            let below = rng.u32_in(0..bound + 70);
            let missing = (0..below).filter(|c| !reference.contains(c));
            assert!(set.missing(below).eq(missing));
        });
    }
}
