//! Seeded inputs: every workload's inputs derive from `--seed` alone, so
//! the same seed gives byte-identical grids, query universes and arrival
//! schedules. The program under test only ever sees the generated
//! command lines and query strings.

use std::collections::HashSet;

use twocs::analysis::serialized::Method;
use twocs::analysis::sweep::{GridSweep, Workload};

/// Seed used when `--seed` is omitted.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for confirming a claimed gain on inputs nobody tuned on.
pub const HELD_OUT_SEED: u64 = 2;

/// The scale recipe's axes (EXPERIMENTS.md "scale"): 80 surviving
/// `(H, SL, TP)` triples and 64 extended-axis tuples.
pub const HS: &[u64] = &[1024, 2048, 4096, 8192, 16_384, 32_768];
pub const SLS: &[u64] = &[1024, 2048, 4096, 8192];
pub const TPS: &[u64] = &[4, 8, 16, 32, 64];
pub const EXPERTS: &[u64] = &[8, 16, 32, 64];
pub const TOP_KS: &[u64] = &[1, 2];
pub const STAGES: &[u64] = &[1, 4];
pub const MICRO_BATCHES: &[u64] = &[1, 8];
pub const SPS: &[u64] = &[1, 2];

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of one seed; distinct `stream`s of
    /// the same seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct values from {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// `k` distinct members of `values`, sorted.
    fn pick(&mut self, values: &[u64], k: usize) -> Vec<u64> {
        let mut picked: Vec<u64> = self
            .distinct(values.len(), k)
            .into_iter()
            .map(|i| values[i])
            .collect();
        picked.sort_unstable();
        picked
    }
}

/// Stream ids, one per kind of input.
const RATIOS: u64 = 1;
const UNIVERSE: u64 = 2;
const ARRIVALS: u64 = 3;
const SAMPLES: u64 = 4;

/// `n` distinct flop-vs-bw ratios in `[1.00, 11.00]` at 0.01 steps,
/// ascending. Ratios below 1 are avoided on purpose: the CLI labels
/// them with the input value but evaluates them as 1x.
pub fn ratios(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, RATIOS);
    let mut hundredths = rng.distinct(1001, n);
    hundredths.sort_unstable();
    hundredths
        .into_iter()
        .map(|i| (100 + i) as f64 / 100.0)
        .collect()
}

/// The scale-recipe grid over `ratios`: projection method, training.
pub fn recipe_grid(ratios: Vec<f64>) -> GridSweep {
    GridSweep {
        hs: HS.to_vec(),
        sls: SLS.to_vec(),
        tps: TPS.to_vec(),
        flop_vs_bw: ratios,
        experts: EXPERTS.to_vec(),
        top_ks: TOP_KS.to_vec(),
        stages: STAGES.to_vec(),
        micro_batches: MICRO_BATCHES.to_vec(),
        sps: SPS.to_vec(),
        method: Method::Projection,
        ..GridSweep::default()
    }
}

/// The same grid with every extended axis collapsed to 1: what is left
/// of the plan build is the triple-cell pricing.
pub fn collapsed(grid: &GridSweep) -> GridSweep {
    GridSweep {
        experts: vec![1],
        top_ks: vec![1],
        stages: vec![1],
        micro_batches: vec![1],
        sps: vec![1],
        ..grid.clone()
    }
}

fn join<T: ToString>(values: &[T]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn join_ratios(ratios: &[f64]) -> String {
    ratios
        .iter()
        .map(|r| format!("{r:.2}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// `twocs sweep` arguments selecting `grid` (projection method, CSV).
pub fn sweep_args(grid: &GridSweep) -> Vec<String> {
    let mut args = vec!["sweep".to_owned()];
    for (flag, value) in [
        ("--h", join(&grid.hs)),
        ("--sl", join(&grid.sls)),
        ("--tp", join(&grid.tps)),
        ("--flop-vs-bw", join_ratios(&grid.flop_vs_bw)),
        ("--experts", join(&grid.experts)),
        ("--top-k", join(&grid.top_ks)),
        ("--stages", join(&grid.stages)),
        ("--micro-batches", join(&grid.micro_batches)),
        ("--sp", join(&grid.sps)),
    ] {
        args.push(flag.to_owned());
        args.push(value);
    }
    args.extend(["--method", "proj", "--csv"].map(str::to_owned));
    args
}

/// One `/v1/sweep` query of the serve universe.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Raw query string, as sent (no leading `?`).
    pub raw: String,
    /// The grid the server builds from `raw`.
    pub grid: GridSweep,
}

/// Model families whose every `(H, TP)` pair survives the grid's realism
/// pruning, so a query's point count does not depend on its draw.
const FAMILIES: &[(&[u64], &[u64])] = &[
    (&[1024, 2048, 4096, 8192], &[4, 8]),
    (&[4096, 8192], &[4, 8, 16, 32]),
    (&[16_384, 32_768], &[16, 32, 64]),
];

/// Points in every universe query: 2 H x 2 SL x 2 TP x 1 ratio x 2
/// extended-axis tuples.
pub const QUERY_POINTS: usize = 16;

/// One random small projection grid of [`QUERY_POINTS`] points. Axis
/// values are sorted and an axis is either omitted or carries a
/// non-default list, so distinct strings are distinct grids.
fn random_query(rng: &mut Rng) -> Query {
    let (hs, tps) = FAMILIES[rng.below(FAMILIES.len())];
    let mut grid = GridSweep {
        hs: rng.pick(hs, 2),
        sls: rng.pick(SLS, 2),
        tps: rng.pick(tps, 2),
        flop_vs_bw: vec![(100 + rng.below(1001)) as f64 / 100.0],
        method: Method::Projection,
        ..GridSweep::default()
    };
    let mut raw = format!(
        "h={}&sl={}&tp={}&flop_vs_bw={}",
        join(&grid.hs),
        join(&grid.sls),
        join(&grid.tps),
        join_ratios(&grid.flop_vs_bw)
    );
    // Exactly two extended-axis tuples: an MoE pair, a pipeline with two
    // micro-batch counts, or sequence parallelism on and off.
    match rng.below(3) {
        0 => {
            grid.experts = rng.pick(EXPERTS, 2);
            grid.top_ks = rng.pick(TOP_KS, 1);
            raw += &format!(
                "&experts={}&top_k={}",
                join(&grid.experts),
                join(&grid.top_ks)
            );
        }
        1 => {
            grid.stages = vec![4];
            grid.micro_batches = MICRO_BATCHES.to_vec();
            raw += &format!("&stages=4&micro_batches={}", join(MICRO_BATCHES));
        }
        _ => {
            grid.sps = SPS.to_vec();
            raw += &format!("&sp={}", join(SPS));
        }
    }
    grid.workload = match rng.below(5) {
        0 => Workload::Prefill,
        1 => Workload::Decode,
        _ => Workload::Training,
    };
    if grid.workload != Workload::Training {
        raw += &format!("&workload={}", grid.workload);
    }
    raw += "&method=proj";
    Query { raw, grid }
}

/// `n` distinct queries of [`QUERY_POINTS`] points each.
pub fn query_universe(seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, UNIVERSE);
    let mut seen = HashSet::with_capacity(n);
    let mut universe = Vec::with_capacity(n);
    while universe.len() < n {
        let q = random_query(&mut rng);
        if q.grid.point_count() == QUERY_POINTS && seen.insert(q.raw.clone()) {
            universe.push(q);
        }
    }
    universe
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One scheduled request: due offset from the phase start, in seconds,
/// and the universe index it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub query: usize,
}

/// The seeded request stream: Zipf-popular queries, optionally with
/// Poisson arrival times. Phases draw from one stream in order, so the
/// long tail of first-seen queries keeps arriving across all of them.
#[derive(Debug, Clone)]
pub struct Traffic {
    zipf: Zipf,
    rng: Rng,
}

impl Traffic {
    pub fn new(seed: u64, universe: usize, zipf_s: f64) -> Self {
        Self {
            zipf: Zipf::new(universe, zipf_s),
            rng: Rng::new(seed, ARRIVALS),
        }
    }

    fn next_query(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }

    /// The next `n` queries of the stream, without arrival times.
    pub fn queries(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.next_query()).collect()
    }

    /// Poisson arrivals at `rate` per second for `seconds`.
    pub fn poisson(&mut self, rate: f64, seconds: f64) -> Vec<Arrival> {
        let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
        let mut t = 0.0;
        loop {
            t += -self.rng.unit().ln() / rate;
            if t >= seconds {
                return out;
            }
            let query = self.next_query();
            out.push(Arrival { due_s: t, query });
        }
    }
}

/// Seeded sample of `k` distinct indices below `n`, ascending: which rows
/// (or queries) get checked against the library.
pub fn check_sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx = Rng::new(seed, SAMPLES).distinct(n, k.min(n));
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_identical_inputs() {
        assert_eq!(ratios(7, 200), ratios(7, 200));
        assert_eq!(query_universe(7, 500), query_universe(7, 500));
        let mut a = Traffic::new(7, 500, 1.1);
        let mut b = Traffic::new(7, 500, 1.1);
        assert_eq!(a.poisson(1000.0, 1.0), b.poisson(1000.0, 1.0));
        assert_eq!(a.queries(100), b.queries(100));
        assert_eq!(check_sample(7, 10_000, 50), check_sample(7, 10_000, 50));
        assert_ne!(ratios(DEFAULT_SEED, 200), ratios(HELD_OUT_SEED, 200));
    }

    #[test]
    fn ratios_are_distinct_hundredths_from_one_to_eleven() {
        let r = ratios(3, 200);
        assert_eq!(r.len(), 200);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
        assert!(r.iter().all(|&x| (1.0..=11.0).contains(&x)));
        assert!(r.iter().all(|&x| format!("{x:.2}").parse::<f64>() == Ok(x)));
    }

    #[test]
    fn the_recipe_grid_has_a_million_points() {
        assert_eq!(recipe_grid(ratios(1, 200)).point_count(), 1_024_000);
        assert_eq!(recipe_grid(ratios(1, 10)).point_count(), 51_200);
    }

    #[test]
    fn universe_queries_are_distinct_and_non_empty() {
        let u = query_universe(5, 2000);
        let raws: HashSet<_> = u.iter().map(|q| q.raw.as_str()).collect();
        assert_eq!(raws.len(), u.len());
        assert!(u.iter().all(|q| q.grid.point_count() == QUERY_POINTS));
        assert!(u
            .iter()
            .all(|q| !q.raw.contains("planner") && !q.raw.contains("jobs")));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(1, 9);
        let top = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(top > 3000, "{top}");
    }
}
