//! Lazy, random-access indexing over a [`GridSweep`]'s pruned point
//! space — the seam that lets million-point grids flow through the sweep
//! fabric without ever materializing `Vec<GridPoint>` for the whole
//! grid.
//!
//! [`GridIndex`] is the sweep's only enumerator: it owns the pruning
//! rules and factors the pruned cross product into the surviving
//! `(H, SL, TP)` triples (pruning only ever inspects those three axes
//! plus the batch) and the filtered inner axis lists. Every point is
//! then addressable in O(1) by its grid-order rank via mixed-radix
//! decoding, so a chunk's points can be regenerated on demand from
//! `(chunk index, chunk size)` — the unit the journal and the
//! distributed fabric identify work by. [`GridSweep::points`] is just
//! this index materialized, so chunked streaming output stays
//! byte-identical to the in-memory path; the tests below check the
//! index against an independent nested-loop enumerator.

use crate::serialized::{realistic_tp, sweep_hyper, Method};
use crate::sweep::{GridPoint, GridSweep, Workload};

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
        self.ratios.len()
            * self.pairs.len()
            * self.stages.len()
            * self.micros.len()
            * self.sps.len()
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
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn point(&self, i: usize) -> GridPoint {
        assert!(i < self.len(), "point rank {i} out of range {}", self.len());
        let inner = self.inner();
        let (h, sl, tp) = self.triples[i / inner];
        let mut rem = i % inner;
        let strides = [
            self.pairs.len() * self.stages.len() * self.micros.len() * self.sps.len(),
            self.stages.len() * self.micros.len() * self.sps.len(),
            self.micros.len() * self.sps.len(),
            self.sps.len(),
        ];
        let ri = rem / strides[0];
        rem %= strides[0];
        let pi = rem / strides[1];
        rem %= strides[1];
        let si = rem / strides[2];
        rem %= strides[2];
        let mi = rem / strides[3];
        let spi = rem % strides[3];
        let (experts, top_k) = self.pairs[pi];
        GridPoint {
            h,
            sl,
            tp,
            ratio: self.ratios[ri],
            experts,
            top_k,
            stages: self.stages[si],
            micro_batches: self.micros[mi],
            sp: self.sps[spi],
        }
    }

    /// Materialize the points of ranks `start..end` (clamped to the
    /// grid), in grid order — the unit a chunk lease or a streaming
    /// renderer needs, O(end − start) memory.
    #[must_use]
    pub fn range(&self, start: usize, end: usize) -> Vec<GridPoint> {
        let end = end.min(self.len());
        (start..end.max(start)).map(|i| self.point(i)).collect()
    }

    /// Iterate every point lazily in grid order.
    #[must_use]
    pub fn iter(&self) -> GridPointsIter<'_> {
        GridPointsIter { index: self, at: 0 }
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

    /// The points of chunk `chunk` under a `chunk_size` split — the
    /// `chunk`-th `chunk_size` slice of `sweep.points()` without
    /// materializing the grid.
    #[must_use]
    pub fn chunk_points(&self, chunk: usize, chunk_size: usize) -> Vec<GridPoint> {
        assert!(chunk_size > 0, "chunk_size must be non-zero");
        let start = chunk * chunk_size;
        self.range(start, start.saturating_add(chunk_size))
    }
}

/// Lazy grid-order point iterator (see [`GridIndex::iter`]).
#[derive(Debug, Clone)]
pub struct GridPointsIter<'a> {
    index: &'a GridIndex,
    at: usize,
}

impl Iterator for GridPointsIter<'_> {
    type Item = GridPoint;

    fn next(&mut self) -> Option<GridPoint> {
        if self.at >= self.index.len() {
            return None;
        }
        let p = self.index.point(self.at);
        self.at += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.index.len() - self.at;
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

    /// Reject axes that describe no model, with the one message every
    /// front end (`twocs sweep`, `GET /v1/sweep`) reports. Without this
    /// check a bad axis value would be silently pruned to a smaller grid,
    /// and a ratio below 1 would run as today's hardware while its rows
    /// carry the input value.
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
        if self
            .flop_vs_bw
            .iter()
            .any(|&r| !(r.is_finite() && r >= 1.0))
        {
            return Err(
                "flop_vs_bw ratios must be finite and >= 1 (1 = today's hardware)".to_owned(),
            );
        }
        crate::axes::check_extended_non_zero(self)?;
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
            if [&self.experts, &self.stages, &self.sps]
                .iter()
                .any(|axis| axis.iter().any(|&v| v > 1))
            {
                return Err(
                    "experts/stages/sp above 1 require method=proj (the simulation engine models \
                     the dense TP iteration only)"
                        .to_owned(),
                );
            }
        }
        if self.point_count() == 0 {
            return Err("grid has no realistic points; widen h/tp".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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

    fn arbitrary_sweep(rng: &mut twocs_testkit::Rng) -> GridSweep {
        let pick = |rng: &mut twocs_testkit::Rng, candidates: &[u64], max: usize| -> Vec<u64> {
            let n = rng.usize_in(1..max + 1);
            (0..n).map(|_| *rng.choose(candidates)).collect()
        };
        GridSweep {
            hs: pick(rng, &[0, 100, 2048, 4096, 16_384, 65_536], 3),
            sls: pick(rng, &[0, 512, 2048, 4096], 2),
            tps: pick(rng, &[0, 1, 4, 16, 64, 256, 1024], 3),
            flop_vs_bw: vec![1.0, 2.0, 4.0][..rng.usize_in(1..4)].to_vec(),
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
        assert_eq!(index.chunk_count(4), 0);
    }
}
