//! Endpoint implementations over the `twocs-core` generators and
//! `twocs-opmodel` projections.
//!
//! Every handler validates its query aggressively (see
//! [`crate::query`]) before touching a cost model: the models clamp or
//! panic on out-of-range inputs (behavior pinned by tests in
//! `twocs-core::overlapped`), and a query service must turn those cases
//! into `400`s, not misleading numbers or `500`s.
//!
//! Each request is answered in two steps: `prepare` routes, parses and
//! validates it and builds its cache key, touching no model; then
//! `Prepared::respond` computes the body. The server runs the first
//! step on its event loop, so a cached body never leaves it, and the
//! second on a worker; [`handle`] runs both, for callers that want one
//! call.
//!
//! `/v1/sweep` reads its parameters through `GridSweep::parse_request`,
//! the parser `twocs sweep` uses, and `/v1/evolve` is a one-point sweep
//! evaluated by `eval_grid_point`: both run `GridSweep::validate`, so
//! they reject what the CLI rejects, with its message. No model-side
//! state outlives a request. A caching server's `ResponseCache`
//! memoizes entire rendered bodies keyed by canonicalized queries, so a
//! repeated *request* skips the model entirely. Canonical keys are built
//! **after** validation from the fully-resolved parameters (defaults
//! folded in, the body-neutral `jobs` param excluded), which also
//! guarantees only infallible `200` paths are ever cached;
//! executor-backed sweeps (`twocs serve --listen`) bypass the cache
//! because their `500`s must never be replayed, and journaled ones
//! (`journal=<name>`) because the journal is their durable artifact.
//!
//! `/v1/sweep` has one path whatever its parameters: the request's
//! executor (the server's configured one, or a local pool of `jobs`
//! threads) streams chunks through `twocs_store::run` into a store over
//! an in-memory body — journaled and resumed under `--journal-dir` when
//! `journal=` names one — and `format=json|ascii` are views over the
//! CSV bytes the store wrote.

use crate::cache::{KeyBuilder, ResponseCache};
use crate::http::{Request, Response};
use crate::query::Query;
use crate::router::{Route, ENDPOINTS};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use twocs_core::axes::AXES;
use twocs_core::overlapped::{overlap_pct, roi_hyper, MAX_DP};
use twocs_core::serialized::{check_point_work, Method};
use twocs_core::sweep::{eval_grid_point, GridExecutor, GridPoint, GridSweep, LocalPool, Workload};
use twocs_hw::{DeviceSpec, HwEvolution};
use twocs_obs::chrome::escape_json;
use twocs_store::{encode_grid, Buffer, SweepSpec, SweepStore};

/// Handler-level limits and switches, set by the server configuration.
#[derive(Clone, Debug)]
pub struct HandlerConfig {
    /// Maximum grid points one sweep request may evaluate (`400` beyond).
    pub max_grid_points: usize,
    /// Cap on the per-request `jobs` fan-out through the sweep pool.
    pub max_request_jobs: usize,
    /// Whether `/v1/debug/sleep` is enabled (tests and backpressure
    /// drills only).
    pub enable_debug: bool,
    /// Pluggable sweep evaluation substrate for `/v1/sweep` and
    /// `/v1/serialized` (e.g. the distributed coordinator behind
    /// `twocs serve --listen`). `None` evaluates in-process with the
    /// request's `jobs`. Either way the CSV body is byte-identical —
    /// that is the executor contract.
    pub executor: Option<Arc<dyn GridExecutor>>,
    /// Directory for `/v1/sweep?journal=<name>` journals (`twocs serve
    /// --journal-dir`). `None` rejects journaled requests with a `400`.
    pub journal_dir: Option<std::path::PathBuf>,
}

impl Default for HandlerConfig {
    fn default() -> Self {
        Self {
            max_grid_points: 4096,
            max_request_jobs: 8,
            enable_debug: false,
            executor: None,
            journal_dir: None,
        }
    }
}

/// Dispatch one parsed request to its handler and build the response:
/// prepare it, then compute it, without a response cache.
///
/// Infallible by construction: parse/validation failures become `400`s,
/// unknown paths `404`s, non-`GET`/`HEAD` methods `405`s with the
/// RFC-required `Allow` header. (Handler panics are caught one level
/// up, in the server.)
///
/// `HEAD` runs the same handler as `GET` — the wire layer drops the
/// body at serialization time but keeps the full-body `Content-Length`,
/// so a `HEAD` probe sees exactly the headers the `GET` would carry.
#[must_use]
pub fn handle(req: &Request, cfg: &HandlerConfig) -> Response {
    prepare(req, cfg).respond(cfg, None)
}

/// The compute step of a prepared request. `Err` is a `400` from a
/// request whose body is not cached, else a `500`.
type Compute = Box<dyn FnOnce(&HandlerConfig) -> Result<Response, String> + Send>;

/// A request routed, parsed and validated, with its response-cache key
/// built: everything [`handle`] does before it touches a model. A
/// caching server prepares each request on its event loop, answers it
/// there when [`Prepared::cached`] finds the body, and hands the rest to
/// a worker, which finishes it with [`Prepared::respond`].
pub(crate) struct Prepared {
    /// The response-cache key: set when the request's body may be cached.
    key: Option<Vec<u8>>,
    compute: Compute,
}

/// Route, parse and validate `req` and build its cache key, computing
/// nothing: a request [`handle`] would answer `400`, `404` or `405` is
/// prepared with that answer.
pub(crate) fn prepare(req: &Request, cfg: &HandlerConfig) -> Prepared {
    let Some(route) = Route::parse(&req.path) else {
        return Prepared::answer(Response::error(
            404,
            &format!(
                "no such endpoint `{}`; try {}",
                req.path,
                ENDPOINTS.join(", ")
            ),
        ));
    };
    if req.method != "GET" && req.method != "HEAD" {
        return Prepared::answer(
            Response::error(
                405,
                &format!("{} is not supported; use GET or HEAD", req.method),
            )
            .with_allow("GET, HEAD"),
        );
    }
    Query::parse(&req.raw_query)
        .and_then(|query| match route {
            Route::Serialized | Route::Sweep => sweep_request(&query, cfg),
            Route::Overlapped => overlapped_request(&query),
            Route::Evolve => evolve_request(&query),
            Route::Healthz => Ok(Prepared::answer(Response::json(200, "{\"status\":\"ok\"}"))),
            Route::Metrics => metrics_request(&query),
            Route::DebugSleep => debug_sleep_request(&query, cfg),
        })
        .unwrap_or_else(|e| Prepared::answer(Response::error(400, &e)))
}

impl Prepared {
    fn new(
        key: Option<Vec<u8>>,
        compute: impl FnOnce(&HandlerConfig) -> Result<Response, String> + Send + 'static,
    ) -> Self {
        Self {
            key,
            compute: Box::new(compute),
        }
    }

    /// A request whose answer is already known.
    pub(crate) fn answer(response: Response) -> Self {
        Self::new(None, |_| Ok(response))
    }

    /// The response cache's finished body for this request, if it holds
    /// one (counted as a cache hit). `None` for a body never computed,
    /// still being computed, or not cacheable.
    pub(crate) fn cached(&self, cache: &ResponseCache) -> Option<Response> {
        cache.peek(self.key.as_ref()?)
    }

    /// Compute the response, through `cache` when there is one and the
    /// request has a key: a concurrent miss on the same key waits for
    /// the one in flight instead of computing again.
    pub(crate) fn respond(self, cfg: &HandlerConfig, cache: Option<&ResponseCache>) -> Response {
        let Self { key, compute } = self;
        match (key, cache) {
            // Only infallible 200 paths get a key, so an error here is
            // the server's.
            (Some(key), Some(cache)) => cache.get_or_compute(key, || {
                compute(cfg).unwrap_or_else(|e| Response::error(500, &e))
            }),
            _ => compute(cfg).unwrap_or_else(|e| Response::error(400, &e)),
        }
    }
}

/// Output encodings shared by the projection endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Csv,
    Json,
    Ascii,
}

fn parse_format(q: &Query, default: Format) -> Result<Format, String> {
    match q.get("format") {
        None => Ok(default),
        Some("csv") => Ok(Format::Csv),
        Some("json") => Ok(Format::Json),
        Some("ascii") => Ok(Format::Ascii),
        Some(other) => Err(format!("unknown format `{other}` (csv|json|ascii)")),
    }
}

/// `/v1/serialized` and `/v1/sweep`: the `(H, SL, TP, flop-vs-bw)` grid
/// sweep, evaluated through the same executor-into-store driver as
/// `twocs sweep`.
///
/// The default CSV body is **byte-identical to the stdout of the
/// equivalent CLI invocation** (`twocs sweep ... --csv`), which is what
/// the CI smoke test diffs, whatever the executor and with or without
/// `journal=<name>` (which journals chunks under the server's
/// `--journal-dir`, resuming the named journal if it exists).
fn sweep_request(q: &Query, cfg: &HandlerConfig) -> Result<Prepared, String> {
    let params: Vec<&str> = AXES
        .iter()
        .map(|a| a.query)
        .chain(["workload", "b", "method", "jobs", "format", "journal"])
        .collect();
    q.reject_unknown(&params)?;
    let format = parse_format(q, Format::Csv)?;
    // The CLI's parser and validator: a bad axis answers 400 instead of
    // being silently pruned to a smaller grid, and every omitted parameter
    // takes the default the CLI uses, so pre-axis query strings and cached
    // keys keep producing byte-identical bodies.
    let grid = GridSweep::parse_request(|name| q.get(name), str::to_owned)?;
    let points = grid.point_count();
    if points > cfg.max_grid_points {
        return Err(format!(
            "grid has {points} points, above this server's per-request cap of {} — split the query",
            cfg.max_grid_points
        ));
    }
    let jobs = q
        .u64("jobs")?
        .unwrap_or(1)
        .max(1)
        .min(cfg.max_request_jobs as u64) as usize;
    let journal = q
        .get("journal")
        .map(|name| journal_path(cfg, name))
        .transpose()?;
    // Past validation a local, unjournaled sweep cannot fail, so its
    // whole rendered body is cacheable. Executor-backed bodies are not
    // (a coordinator's 500 must never be replayed), nor are journaled
    // ones (the journal on disk is the durable artifact). The grid's
    // spec bytes fold omitted params and alternate float spellings into
    // one key; `jobs` cannot change the body.
    let cacheable = cfg.executor.is_none() && journal.is_none();
    let key = cacheable.then(|| {
        let mut key = KeyBuilder::new("sweep")
            .field("fmt", format_token(format))
            .finish();
        encode_grid(&mut key, &grid);
        key
    });
    Ok(Prepared::new(key, move |cfg| {
        let local = LocalPool { jobs };
        let executor = cfg.executor.as_deref().unwrap_or(&local);
        let body = Buffer::default();
        let store = open_store(&grid, executor, journal.as_deref(), Box::new(body.clone()))?;
        Ok(
            match twocs_store::run(executor, &DeviceSpec::mi210(), store) {
                Ok(_) => render_sweep(body.take(), format),
                // An executor failure is the server's problem, not the
                // client's: answer 500, unlike the validation 400s above.
                Err(e) => Response::error(
                    500,
                    &format!("sweep executor `{}` failed: {e}", executor.describe()),
                ),
            },
        )
    }))
}

/// The journal file `journal=<name>` names under the server's
/// `--journal-dir`.
fn journal_path(cfg: &HandlerConfig, name: &str) -> Result<PathBuf, String> {
    let dir = cfg
        .journal_dir
        .as_ref()
        .ok_or("journal= requires the server to run with --journal-dir")?;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(format!(
            "journal name `{name}` must be a plain [A-Za-z0-9_-] token \
             (it names a file under the server's journal dir)"
        ));
    }
    Ok(dir.join(format!("{name}.journal")))
}

/// The store a sweep request records into: a resume of an existing
/// journal at `journal` — after checking it describes the same grid —
/// or a fresh store at the front ends' default chunk size.
fn open_store(
    grid: &GridSweep,
    executor: &dyn GridExecutor,
    journal: Option<&Path>,
    out: Box<dyn std::io::Write + Send>,
) -> Result<SweepStore, String> {
    if let Some(path) = journal.filter(|p| p.exists()) {
        let store = SweepStore::resume(path, out)?;
        // Both grids passed `validate`, so their ratios are finite and
        // >= 1, and `!=` on them is a bit-pattern comparison.
        if store.spec().sweep != *grid {
            return Err(format!(
                "journal `{}` was created for a different grid; delete it or use \
                 another journal name",
                path.display()
            ));
        }
        return Ok(store);
    }
    let device = DeviceSpec::mi210();
    let spec = SweepSpec {
        sweep: grid.clone(),
        chunk_size: twocs_store::default_chunk_size(executor, grid, journal.is_some()) as u32,
        device_name: device.name().to_owned(),
        device_fingerprint: device.fingerprint(),
    };
    SweepStore::create(spec, out, journal)
}

fn format_token(format: Format) -> &'static str {
    match format {
        Format::Csv => "csv",
        Format::Json => "json",
        Format::Ascii => "ascii",
    }
}

/// Render a sweep's CSV bytes under the requested format: the CSV body
/// is the byte-identity surface CI diffs against the CLI, and ascii and
/// JSON are views of the table it spells.
fn render_sweep(csv: Vec<u8>, format: Format) -> Response {
    let mut csv = String::from_utf8(csv).expect("sweep rows are ASCII");
    if format == Format::Csv {
        // `println!` on the CLI appends one newline after the CSV.
        csv.push('\n');
        return Response::csv(200, csv);
    }
    let table = GridSweep::csv_table(&csv);
    if format == Format::Ascii {
        return Response::text(200, table.to_ascii());
    }
    let quote = |cells: &[String]| {
        cells
            .iter()
            .map(|c| format!("\"{}\"", escape_json(c)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let rows: Vec<String> = table
        .rows
        .iter()
        .map(|row| format!("[{}]", quote(row)))
        .collect();
    Response::json(
        200,
        format!(
            "{{\"id\":\"{}\",\"headers\":[{}],\"rows\":[{}]}}",
            escape_json(&table.id),
            quote(&table.headers),
            rows.join(",")
        ),
    )
}

/// `/v1/overlapped`: the §4.3.5 slack-ROI metric for one configuration.
///
/// `overlap_pct` silently clamps TP to the model's head count, so this
/// handler rejects out-of-range TP explicitly — the service must never
/// label a clamped result with the TP the client asked for. It refuses
/// what `twocs analyze` and `/v1/sweep` refuse: a DP above
/// [`MAX_DP`] and a point past [`check_point_work`]'s bound.
fn overlapped_request(q: &Query) -> Result<Prepared, String> {
    q.reject_unknown(&["h", "slb", "sl", "b", "tp", "dp", "format"])?;
    let format = parse_format(q, Format::Json)?;
    let h = q.u64("h")?.ok_or("`h` (hidden size) is required")?;
    if h == 0 || h % 64 != 0 {
        return Err(format!(
            "h={h}: hidden size must be a non-zero multiple of 64 (head width)"
        ));
    }
    let slb = match (q.u64("slb")?, q.u64("sl")?, q.u64("b")?) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
            return Err("give either `slb` or `sl`(+`b`), not both".to_owned())
        }
        (Some(slb), None, None) => slb,
        (None, Some(sl), b) => {
            let b = b.unwrap_or(1);
            sl.checked_mul(b)
                .ok_or_else(|| format!("sl={sl} times b={b} overflows the token count"))?
        }
        (None, None, _) => return Err("`slb` (or `sl` and `b`) is required".to_owned()),
    };
    if slb == 0 {
        return Err("slb must be non-zero".to_owned());
    }
    let tp = q.u64("tp")?.unwrap_or(16);
    let dp = q.u64("dp")?.unwrap_or(4);
    if tp == 0 || dp == 0 || dp > MAX_DP {
        return Err(format!(
            "tp and dp must be non-zero, and dp at most {MAX_DP}"
        ));
    }
    check_point_work(h, slb, 1, tp)?;
    let heads = roi_hyper(h, slb).heads();
    if tp > heads {
        return Err(format!(
            "tp={tp} exceeds the {heads} attention heads of h={h}; the model cannot shard further"
        ));
    }
    if !heads.is_multiple_of(tp) {
        return Err(format!(
            "tp={tp} must divide the {heads} attention heads of h={h}"
        ));
    }
    // Fully validated; the compute below cannot fail, so it is
    // cacheable. Note `sl`+`b` fold into `slb` before the key: both
    // spellings share one entry.
    let key = KeyBuilder::new("overlapped")
        .field("fmt", format_token(format))
        .field("h", h)
        .field("slb", slb)
        .field("tp", tp)
        .field("dp", dp)
        .finish();
    Ok(Prepared::new(Some(key), move |_| {
        let pct = overlap_pct(&DeviceSpec::mi210(), h, slb, tp, dp);
        Ok(match format {
            Format::Json => Response::json(
                200,
                format!(
                    "{{\"h\":{h},\"slb\":{slb},\"tp\":{tp},\"dp\":{dp},\"overlap_pct\":{pct:.2}}}"
                ),
            ),
            Format::Csv => Response::csv(
                200,
                format!("h,slb,tp,dp,overlap_pct\n{h},{slb},{tp},{dp},{pct:.2}\n"),
            ),
            Format::Ascii => Response::text(
                200,
                format!("overlapped communication at H={h} SL*B={slb} TP={tp} DP={dp}: {pct:.2}% of compute\n"),
            ),
        })
    }))
}

/// `/v1/evolve`: both communication metrics for one configuration on
/// hardware evolved by the given flop-vs-bw ratio (§4.3.6).
fn evolve_request(q: &Query) -> Result<Prepared, String> {
    q.reject_unknown(&["flop_vs_bw", "h", "sl", "b", "tp", "method", "format"])?;
    let format = parse_format(q, Format::Json)?;
    let ratio = q
        .f64("flop_vs_bw")?
        .ok_or("`flop_vs_bw` (evolution ratio, 1 = today) is required")?;
    let h = q.u64("h")?.unwrap_or(16_384);
    let sl = q.u64("sl")?.unwrap_or(2048);
    let b = q.u64("b")?.unwrap_or(1);
    let tp = q.u64("tp")?.unwrap_or(64);
    let method = q.get("method").map_or(Ok(Method::default()), str::parse)?;
    // The one-point sweep at this configuration: `/v1/sweep`'s rules and
    // evaluator answer it.
    let grid = GridSweep {
        hs: vec![h],
        sls: vec![sl],
        tps: vec![tp],
        flop_vs_bw: vec![ratio],
        batch: b,
        method,
        ..GridSweep::default()
    };
    grid.validate()?;
    let mut key = KeyBuilder::new("evolve")
        .field("fmt", format_token(format))
        .finish();
    encode_grid(&mut key, &grid);
    Ok(Prepared::new(Some(key), move |_| {
        let base = DeviceSpec::mi210();
        let point = GridPoint::new(h, sl, tp, ratio);
        let (serialized, overlap) = eval_grid_point(&base, point, b, method, Workload::Training);
        let device = if ratio > 1.0 {
            HwEvolution::flop_vs_bw(ratio).apply(&base)
        } else {
            base
        };
        Ok(match format {
            Format::Json => Response::json(
                200,
                format!(
                    "{{\"flop_vs_bw\":{ratio},\"device\":\"{}\",\"h\":{h},\"sl\":{sl},\"b\":{b},\"tp\":{tp},\"method\":\"{method}\",\"serialized_pct\":{serialized:.2},\"overlap_pct\":{overlap:.2}}}",
                    escape_json(device.name()),
                ),
            ),
            Format::Csv => Response::csv(
                200,
                format!(
                    "flop_vs_bw,h,sl,b,tp,method,serialized_pct,overlap_pct\n{ratio},{h},{sl},{b},{tp},{method},{serialized:.2},{overlap:.2}\n"
                ),
            ),
            Format::Ascii => Response::text(
                200,
                format!(
                    "on {} (flop-vs-bw x{ratio}): serialized {serialized:.2}% of training, overlapped {overlap:.2}% of compute\n",
                    device.name()
                ),
            ),
        })
    }))
}

/// `/v1/metrics`: the process-wide `twocs-obs` registry — request
/// counters, latency histograms, queue depths, and the response cache's
/// hit rate.
fn metrics_request(q: &Query) -> Result<Prepared, String> {
    q.reject_unknown(&["format"])?;
    let format = parse_format(q, Format::Ascii)?;
    Ok(Prepared::new(None, move |_| {
        Ok(match format {
            Format::Json => Response::json(200, twocs_obs::metrics::global().to_json()),
            _ => Response::text(200, format!("{}\n", twocs_obs::metrics::global().summary())),
        })
    }))
}

/// `/v1/debug/sleep?ms=N`: hold a worker busy for `ms` (capped at 10 s).
/// Only available when the server enables debug endpoints; exists so
/// tests can fill the accept queue deterministically and observe `503`s.
fn debug_sleep_request(q: &Query, cfg: &HandlerConfig) -> Result<Prepared, String> {
    if !cfg.enable_debug {
        return Ok(Prepared::answer(Response::error(
            404,
            &format!(
                "no such endpoint `/v1/debug/sleep`; try {}",
                ENDPOINTS.join(", ")
            ),
        )));
    }
    q.reject_unknown(&["ms"])?;
    let ms = q.u64("ms")?.unwrap_or(100).min(10_000);
    Ok(Prepared::new(None, move |_| {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        Ok(Response::json(200, format!("{{\"slept_ms\":{ms}}}")))
    }))
}

/// Sanity hook used by tests: every status this module emits has a
/// reason phrase.
#[cfg(test)]
fn emitted_statuses() -> [u16; 5] {
    [200, 400, 404, 405, 503]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::reason;

    fn get(path: &str, raw_query: &str) -> Request {
        Request::get(path, raw_query)
    }

    fn cfg() -> HandlerConfig {
        HandlerConfig::default()
    }

    /// [`handle`] through `cache`, a detached one (not the global
    /// registry), so cache assertions are isolated per test.
    fn handle_cached(req: &Request, cfg: &HandlerConfig, cache: &ResponseCache) -> Response {
        prepare(req, cfg).respond(cfg, Some(cache))
    }

    #[test]
    fn healthz_is_static_json() {
        let r = handle(&get("/v1/healthz", ""), &cfg());
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"status\":\"ok\"}");
    }

    #[test]
    fn unknown_path_is_404_with_endpoint_list() {
        let r = handle(&get("/v1/nope", ""), &cfg());
        assert_eq!(r.status, 404);
        assert!(r.body.contains("/v1/serialized"), "{}", r.body);
        assert!(twocs_obs::json::validate(&r.body).is_ok());
    }

    #[test]
    fn non_get_is_405_with_allow_header() {
        let mut req = get("/v1/healthz", "");
        req.method = "POST".to_owned();
        let r = handle(&req, &cfg());
        assert_eq!(r.status, 405);
        assert_eq!(r.allow, Some("GET, HEAD"));
        assert!(r.body.contains("use GET or HEAD"), "{}", r.body);
    }

    #[test]
    fn head_runs_the_get_handler() {
        let mut req = get("/v1/healthz", "");
        req.method = "HEAD".to_owned();
        let r = handle(&req, &cfg());
        assert_eq!(r.status, 200);
        // The handler produces the full body; the wire layer is what
        // drops it while keeping the GET-identical Content-Length.
        assert_eq!(r.body, "{\"status\":\"ok\"}");
    }

    #[test]
    fn cache_key_canonicalization_folds_query_spellings() {
        // Two spellings of the same sweep — omitted axis params vs.
        // explicit defaults, `1` vs. `1.0` floats — must share one
        // cache entry, while a genuinely different grid must not.
        let cache = ResponseCache::detached();
        let a = handle_cached(
            &get("/v1/sweep", "h=4096&tp=16,32&flop_vs_bw=1,2&method=proj"),
            &cfg(),
            &cache,
        );
        assert_eq!(a.status, 200, "{}", a.body);
        let b = handle_cached(
            &get(
                "/v1/sweep",
                "h=4096&tp=16,32&flop_vs_bw=1.0,2.000&method=proj&experts=1&top_k=1&stages=1&micro_batches=1&sp=1&workload=training&b=1&jobs=4",
            ),
            &cfg(),
            &cache,
        );
        assert_eq!(a.body, b.body);
        assert_eq!(
            cache.stats(),
            (1, 1, 1),
            "same canonical query must compute once and hit once"
        );
        let c = handle_cached(
            &get("/v1/sweep", "h=4096&tp=32,16&flop_vs_bw=1,2&method=proj"),
            &cfg(),
            &cache,
        );
        assert_eq!(c.status, 200, "{}", c.body);
        assert_ne!(c.body, a.body, "axis order changes row order");
        assert_eq!(cache.stats().2, 2);
    }

    #[test]
    fn overlapped_cache_folds_sl_b_into_slb() {
        let cache = ResponseCache::detached();
        let a = handle_cached(
            &get("/v1/overlapped", "h=4096&slb=2048&tp=16&dp=4"),
            &cfg(),
            &cache,
        );
        let b = handle_cached(
            &get("/v1/overlapped", "h=4096&sl=1024&b=2&tp=16&dp=4"),
            &cfg(),
            &cache,
        );
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(a.body, b.body);
        assert_eq!(cache.stats(), (1, 1, 1));
    }

    #[test]
    fn cached_and_uncached_bodies_are_identical() {
        for q in [
            ("/v1/sweep", "h=4096&tp=16&flop_vs_bw=1,4&method=proj"),
            ("/v1/overlapped", "h=4096&slb=2048&tp=16&dp=4"),
            ("/v1/evolve", "flop_vs_bw=4&h=4096&tp=16&method=proj"),
        ] {
            let cold = handle(&get(q.0, q.1), &cfg());
            let cache = ResponseCache::detached();
            let first = handle_cached(&get(q.0, q.1), &cfg(), &cache);
            let warm = handle_cached(&get(q.0, q.1), &cfg(), &cache);
            assert_eq!(cold.body, first.body, "{}", q.0);
            assert_eq!(cold.body, warm.body, "{}", q.0);
            assert_eq!(cold.content_type, warm.content_type, "{}", q.0);
        }
    }

    #[test]
    fn validation_errors_never_reach_the_cache() {
        let cache = ResponseCache::detached();
        for q in ["h=1000", "tp=0", "flop_vs_bw=0.5"] {
            assert_eq!(
                handle_cached(&get("/v1/sweep", q), &cfg(), &cache).status,
                400
            );
        }
        assert_eq!(cache.stats(), (0, 0, 0), "400s are not cached");
    }

    #[test]
    fn sweep_csv_matches_the_grid_sweep_engine() {
        let r = handle(
            &get(
                "/v1/serialized",
                "h=4096&tp=16,32&flop_vs_bw=1,2&method=proj",
            ),
            &cfg(),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let grid = GridSweep {
            hs: vec![4096],
            tps: vec![16, 32],
            flop_vs_bw: vec![1.0, 2.0],
            batch: 1,
            method: Method::Projection,
            ..GridSweep::default()
        };
        let expected = format!("{}\n", grid.run(&DeviceSpec::mi210(), 1).0.to_csv());
        assert_eq!(r.body, expected);
        // The alias endpoint answers identically.
        let alias = handle(
            &get("/v1/sweep", "h=4096&tp=16,32&flop_vs_bw=1,2&method=proj"),
            &cfg(),
        );
        assert_eq!(alias.body, r.body);
    }

    #[test]
    fn sweep_rejects_bad_axes_with_400() {
        for q in [
            "h=1000",                   // not a multiple of 256
            "h=0",                      // zero
            "tp=0",                     // zero axis value
            "flop_vs_bw=0.5",           // sub-1 ratio
            "method=magic",             // unknown method
            "planner=naive",            // unknown parameter (no planner knob)
            "hs=4096",                  // unknown parameter (typo)
            "h=4096&h=8192",            // duplicate key
            "h=65536&tp=4&method=proj", // unrealistic grid -> empty
        ] {
            let r = handle(&get("/v1/sweep", q), &cfg());
            assert_eq!(r.status, 400, "query `{q}` body {}", r.body);
            assert!(twocs_obs::json::validate(&r.body).is_ok(), "query `{q}`");
        }
    }

    #[test]
    fn sweep_rejects_contradictory_axis_params_with_400() {
        for (q, needle) in [
            ("stages=0&method=proj", "must be non-zero"),
            ("experts=0&method=proj", "must be non-zero"),
            ("sp=0&method=proj", "must be non-zero"),
            (
                "experts=2&top_k=4&method=proj",
                "top_k exceeds experts for every requested combination",
            ),
            // Default method is sim — training-only — so an inference
            // workload without method=proj is contradictory.
            ("workload=decode", "requires method=proj"),
            ("workload=prefill&method=sim", "requires method=proj"),
            ("experts=8&top_k=2&method=sim", "require method=proj"),
            ("stages=4", "require method=proj"),
            ("sp=2&method=sim", "require method=proj"),
            ("workload=banana&method=proj", "unknown workload"),
        ] {
            let r = handle(&get("/v1/sweep", q), &cfg());
            assert_eq!(r.status, 400, "query `{q}` body {}", r.body);
            assert!(r.body.contains(needle), "query `{q}` body {}", r.body);
        }
    }

    /// Regression: omitting the new axis/workload params must answer the
    /// exact bytes a pre-axis query string produced — omitted params fold
    /// to their defaults, not to a differently-shaped grid.
    #[test]
    fn omitted_axis_params_canonicalize_to_defaults() {
        let legacy = handle(
            &get("/v1/sweep", "h=4096&tp=16,32&flop_vs_bw=1,2&method=proj"),
            &cfg(),
        );
        let explicit = handle(
            &get(
                "/v1/sweep",
                "h=4096&tp=16,32&flop_vs_bw=1,2&method=proj&experts=1&top_k=1&stages=1&micro_batches=1&sp=1&workload=training",
            ),
            &cfg(),
        );
        assert_eq!(legacy.status, 200, "{}", legacy.body);
        assert_eq!(explicit.status, 200, "{}", explicit.body);
        assert_eq!(legacy.body, explicit.body);
        // And the legacy body keeps the pre-axis 6-column header.
        assert!(
            legacy
                .body
                .starts_with("H,SL,TP,flop_vs_bw,serialized_pct,overlap_pct"),
            "{}",
            legacy.body
        );
    }

    #[test]
    fn sweep_with_extended_axes_matches_the_engine() {
        let r = handle(
            &get(
                "/v1/sweep",
                "h=4096&tp=16&flop_vs_bw=1,4&experts=1,8&top_k=1&stages=1,2&workload=prefill&method=proj",
            ),
            &cfg(),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let grid = GridSweep {
            hs: vec![4096],
            tps: vec![16],
            flop_vs_bw: vec![1.0, 4.0],
            experts: vec![1, 8],
            top_ks: vec![1],
            stages: vec![1, 2],
            workload: Workload::Prefill,
            batch: 1,
            method: Method::Projection,
            ..GridSweep::default()
        };
        let expected = format!("{}\n", grid.run(&DeviceSpec::mi210(), 1).0.to_csv());
        assert_eq!(r.body, expected);
        assert!(r.body.contains("experts"), "{}", r.body);
    }

    /// `stream=` was retired with the second sweep path: it is an
    /// unknown parameter now, and the 400 names it.
    #[test]
    fn stream_parameter_is_retired() {
        for q in ["h=4096&tp=16&method=proj&stream=1", "stream=true"] {
            let r = handle(&get("/v1/sweep", q), &cfg());
            assert_eq!(r.status, 400, "query `{q}` body {}", r.body);
            assert!(
                r.body.contains("unknown query parameter `stream`"),
                "query `{q}` body {}",
                r.body
            );
        }
    }

    #[test]
    fn journaled_sweeps_match_unjournaled_bodies_and_replay() {
        let dir = std::env::temp_dir().join(format!("twocs-serve-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journaled = HandlerConfig {
            journal_dir: Some(dir.clone()),
            ..cfg()
        };
        let cache = ResponseCache::detached();
        let query = "h=4096&tp=16,32&flop_vs_bw=1,2&experts=1,8&top_k=1&method=proj";
        let plain = handle(&get("/v1/sweep", query), &cfg());
        assert_eq!(plain.status, 200, "{}", plain.body);
        for format in ["csv", "json", "ascii"] {
            let plain = handle(
                &get("/v1/sweep", &format!("{query}&format={format}")),
                &cfg(),
            );
            let target = format!("{query}&format={format}&journal=run-{format}");
            // A fresh run journals; the second request replays the
            // complete journal. Both bodies equal the unjournaled one.
            for attempt in ["fresh", "replayed"] {
                let r = handle_cached(&get("/v1/sweep", &target), &journaled, &cache);
                assert_eq!(r.status, 200, "{format} {attempt}: {}", r.body);
                assert_eq!(r.body, plain.body, "{format} {attempt}");
            }
            assert!(dir.join(format!("run-{format}.journal")).exists());
        }
        assert_eq!(
            cache.stats().2,
            0,
            "journaled bodies bypass the response cache"
        );

        let other = handle(
            &get("/v1/sweep", "h=8192&tp=16&method=proj&journal=run-csv"),
            &journaled,
        );
        assert_eq!(other.status, 400, "{}", other.body);
        assert!(other.body.contains("different grid"), "{}", other.body);
        let no_dir = handle(&get("/v1/sweep", &format!("{query}&journal=run")), &cfg());
        assert_eq!(no_dir.status, 400, "{}", no_dir.body);
        assert!(no_dir.body.contains("--journal-dir"), "{}", no_dir.body);
        for name in ["", "..%2Fescape", ".hidden", "a%2Fb", "sp%20ace"] {
            let r = handle(
                &get("/v1/sweep", &format!("{query}&journal={name}")),
                &journaled,
            );
            assert_eq!(r.status, 400, "journal name `{name}`: {}", r.body);
            assert!(r.body.contains("plain [A-Za-z0-9_-] token"), "{}", r.body);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_enforces_the_grid_point_cap() {
        let small = HandlerConfig {
            max_grid_points: 2,
            ..HandlerConfig::default()
        };
        let r = handle(&get("/v1/sweep", "h=4096&tp=16,32&method=proj"), &small);
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("per-request cap"), "{}", r.body);
    }

    #[test]
    fn overlapped_answers_json_with_validated_tp() {
        let r = handle(&get("/v1/overlapped", "h=4096&slb=2048&tp=16&dp=4"), &cfg());
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(twocs_obs::json::validate(&r.body).is_ok());
        let expected = overlap_pct(&DeviceSpec::mi210(), 4096, 2048, 16, 4);
        assert!(
            r.body.contains(&format!("\"overlap_pct\":{expected:.2}")),
            "{}",
            r.body
        );
    }

    #[test]
    fn overlapped_rejects_an_overflowing_sl_times_b() {
        let r = handle(
            &get("/v1/overlapped", "h=4096&sl=4294967296&b=4294967296&tp=16"),
            &cfg(),
        );
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("overflows the token count"), "{}", r.body);
    }

    #[test]
    fn overlapped_rejects_out_of_range_tp_instead_of_clamping() {
        // H=1024 has 16 heads; the library would silently clamp TP=256.
        let r = handle(&get("/v1/overlapped", "h=1024&slb=2048&tp=256"), &cfg());
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("cannot shard further"), "{}", r.body);
        // And SL*B = 0 is a 400, not a panic-500.
        let r = handle(&get("/v1/overlapped", "h=4096&slb=0"), &cfg());
        assert_eq!(r.status, 400, "{}", r.body);
    }

    /// Each probe used to answer 200 with a meaningless percentage (or
    /// 500 from a panic); the shared front-end bounds refuse it.
    #[test]
    fn overlapped_refuses_what_analyze_and_sweep_refuse() {
        for (query, message) in [
            (
                "h=4096&slb=2048&tp=16&dp=18446744073709551615",
                "dp at most 1048576",
            ),
            ("h=4096&slb=2048&tp=16&dp=1048577", "dp at most 1048576"),
            ("h=4096&slb=18446744073709551615&tp=16", "exceeds 2^58"),
            ("h=1099511627776&slb=2048&tp=16", "exceeds 2^58"),
        ] {
            let r = handle(&get("/v1/overlapped", query), &cfg());
            assert_eq!(r.status, 400, "{query}: {}", r.body);
            assert!(r.body.contains(message), "{query}: {}", r.body);
        }
        let edge = handle(
            &get("/v1/overlapped", "h=4096&slb=2048&tp=16&dp=1048576"),
            &cfg(),
        );
        assert_eq!(edge.status, 200, "{}", edge.body);
    }

    #[test]
    fn evolve_reports_both_metrics_on_evolved_hardware() {
        let r = handle(
            &get("/v1/evolve", "flop_vs_bw=4&h=4096&tp=16&method=proj"),
            &cfg(),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(twocs_obs::json::validate(&r.body).is_ok());
        assert!(r.body.contains("\"serialized_pct\":"), "{}", r.body);
        assert!(r.body.contains("\"overlap_pct\":"), "{}", r.body);
        let bad = handle(&get("/v1/evolve", "flop_vs_bw=0.25"), &cfg());
        assert_eq!(bad.status, 400);
    }

    /// `/v1/evolve` is the one-point sweep: its two metrics are the
    /// matching `/v1/sweep` row's, for both methods, today and at 4x.
    #[test]
    fn evolve_matches_the_sweep_row_at_the_same_point() {
        let last_two = |body: &str| {
            let row = body.lines().nth(1).unwrap_or_else(|| panic!("{body}"));
            let cells: Vec<&str> = row.split(',').collect();
            cells[cells.len() - 2..].join(",")
        };
        for method in ["sim", "proj"] {
            for ratio in ["1", "4"] {
                let at = format!("h=4096&sl=2048&tp=16&flop_vs_bw={ratio}&method={method}");
                let evolve = handle(&get("/v1/evolve", &format!("{at}&format=csv")), &cfg());
                let sweep = handle(&get("/v1/sweep", &at), &cfg());
                assert_eq!(evolve.status, 200, "{at}: {}", evolve.body);
                assert_eq!(sweep.status, 200, "{at}: {}", sweep.body);
                assert_eq!(last_two(&evolve.body), last_two(&sweep.body), "{at}");
            }
        }
    }

    /// `/v1/evolve` runs the sweep's validator, so it rejects what
    /// `/v1/sweep` rejects at the same point, with the same message.
    #[test]
    fn evolve_rejects_what_the_sweep_rejects() {
        for (at, needle) in [
            ("h=4096&tp=3&flop_vs_bw=1", "must divide 256"),
            ("h=65536&tp=4&flop_vs_bw=1", "no realistic points"),
            ("h=1000&flop_vs_bw=1", "multiples of 256"),
            ("h=4096&tp=16&flop_vs_bw=nan", "finite and >= 1"),
            ("h=4096&tp=16&flop_vs_bw=0.25", "finite and >= 1"),
            ("h=4096&tp=16&sl=0&flop_vs_bw=1", "must be non-zero"),
        ] {
            let at = format!("{at}&method=proj");
            let evolve = handle(&get("/v1/evolve", &at), &cfg());
            let sweep = handle(&get("/v1/sweep", &at), &cfg());
            assert_eq!(evolve.status, 400, "{at}: {}", evolve.body);
            assert_eq!(evolve.body, sweep.body, "{at}");
            assert!(evolve.body.contains(needle), "{at}: {}", evolve.body);
        }
    }

    /// A journal records its own chunk size: one written at 256-point
    /// chunks, the size serve once used, replays under today's default.
    #[test]
    fn a_journal_written_at_256_point_chunks_still_replays() {
        let dir = std::env::temp_dir().join(format!("twocs-serve-chunk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let query =
            "h=4096&sl=1024,2048,4096,8192&tp=4,8,16,32&flop_vs_bw=1,2,3,4&experts=1,2,4,8&stages=1,2&method=proj";
        let plain = handle(&get("/v1/sweep", query), &cfg());
        assert_eq!(plain.status, 200, "{}", plain.body);
        let q = Query::parse(query).unwrap();
        let grid = GridSweep::parse_request(|name| q.get(name), str::to_owned).unwrap();
        assert_eq!(grid.point_count(), 512);
        let path = dir.join("old.journal");
        let device = DeviceSpec::mi210();
        let spec = SweepSpec {
            sweep: grid,
            chunk_size: 256,
            device_name: device.name().to_owned(),
            device_fingerprint: device.fingerprint(),
        };
        let store = SweepStore::create(spec, Box::new(Buffer::default()), Some(&path)).unwrap();
        twocs_store::run(&LocalPool { jobs: 1 }, &device, store).unwrap();
        let written = std::fs::read(&path).unwrap();

        let journaled = HandlerConfig {
            journal_dir: Some(dir.clone()),
            ..cfg()
        };
        let r = handle(
            &get("/v1/sweep", &format!("{query}&journal=old")),
            &journaled,
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, plain.body);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            written,
            "replayed, not rewritten"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_renders_text_and_json() {
        let text = handle(&get("/v1/metrics", ""), &cfg());
        assert_eq!(text.status, 200);
        assert!(text.body.starts_with("metrics:"));
        let json = handle(&get("/v1/metrics", "format=json"), &cfg());
        assert!(twocs_obs::json::validate(&json.body).is_ok());
    }

    #[test]
    fn debug_sleep_is_gated() {
        let off = handle(&get("/v1/debug/sleep", "ms=1"), &cfg());
        assert_eq!(off.status, 404);
        let on = HandlerConfig {
            enable_debug: true,
            ..HandlerConfig::default()
        };
        let r = handle(&get("/v1/debug/sleep", "ms=1"), &on);
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"slept_ms\":1}");
    }

    #[test]
    fn every_emitted_status_has_a_reason_phrase() {
        for s in emitted_statuses() {
            assert_ne!(reason(s), "Unknown", "status {s}");
        }
    }
}
