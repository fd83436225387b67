//! In-process half of the repo benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-tracer info
//! perfbench-tracer regen  --out DIR --jobs N [--quick] --spans FILE
//! perfbench-tracer serve  --requests FILE --cache-dir DIR --conns N --spans FILE
//! perfbench-tracer verify --points FILE
//! ```
//!
//! `regen` and `serve` are the traced runs: they call the crates' public
//! functions from outside, record a span around each call (name, start,
//! end, parent), keep the spans in memory, write them to `--spans` as
//! JSON lines at the end, and print the per-layer metrics derived from
//! them. `verify` recomputes sweep points with `Simulation::run` so
//! `run.py` can check a server's answers. Every mode prints one JSON
//! object as its last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use blitzcoin_exp::{run_experiment, Ctx, ALL_EXPERIMENTS};
use blitzcoin_serve::SweepRequest;
use blitzcoin_sim::cache::{key_of, Fetch};
use blitzcoin_sim::json::{FromJson, Json, ToJson};
use blitzcoin_sim::{Cache, CacheMode, CacheStats};
use blitzcoin_soc::{
    floorplan, workload, ManagerKind, SimConfig, SimReport, Simulation, SocConfig,
};

/// One timed call: nanoseconds since the run's epoch.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Per-thread span recorder. Ids carry the thread number in their high
/// bits so spans from several threads merge without clashing; 0 is the
/// parent of top-level spans.
struct Tracer {
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            next: (thread << 40) | 1,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self) -> (u64, u64) {
        let id = self.next;
        self.next += 1;
        (id, self.now())
    }

    fn end(&mut self, (id, start_ns): (u64, u64), parent: u64, name: impl Into<String>) {
        let end_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        });
    }

    fn span<T>(&mut self, parent: u64, name: &str, f: impl FnOnce(&mut Tracer, u64) -> T) -> T {
        let open = self.begin();
        let out = f(self, open.0);
        self.end(open, parent, name);
        out
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => Ok(info()),
        Some("regen") => regen(&Flags::parse(&args[1..])),
        Some("serve") => serve(&Flags::parse(&args[1..])),
        Some("verify") => verify(&Flags::parse(&args[1..])),
        _ => Err("usage: perfbench-tracer info|regen|serve|verify [flags]".to_string()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs plus bare `--switch`es.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let name = args[i].trim_start_matches("--").to_string();
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    map.insert(name, v.clone());
                    i += 2;
                }
                None => {
                    map.insert(name, String::new());
                    i += 1;
                }
            }
        }
        Flags(map)
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.get(name).map(PathBuf::from)
    }

    fn num(&self, name: &str) -> Result<usize, String> {
        self.get(name)?
            .parse()
            .map_err(|e| format!("--{name}: {e}"))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

fn info() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"oracle\": {}, \"nproc\": {nproc}}}",
        blitzcoin_sim::oracle::enabled()
    )
}

/// Runs every experiment in-process on a `Ctx` with the CLI's settings,
/// one `exp.<id>` span each, writes `manifest.json` as the CLI does,
/// then probes the cache layer with every entry the run left in its
/// store.
fn regen(flags: &Flags) -> Result<String, String> {
    let out = flags.path("out")?;
    let ctx = Ctx {
        out_dir: out.clone(),
        quick: flags.has("quick"),
        jobs: flags.num("jobs")?,
        cache_mode: CacheMode::On,
        ..Ctx::default()
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);
    let before = ctx.cache().stats();
    let mut figs = Vec::new();
    t.span(0, "regen", |t, root| {
        for id in ALL_EXPERIMENTS {
            figs.push(t.span(root, &format!("exp.{id}"), |_, _| run_experiment(id, &ctx)));
        }
    });
    let manifest = out.join("manifest.json");
    std::fs::write(&manifest, figs.to_json().to_string_pretty())
        .map_err(|e| format!("write {}: {e}", manifest.display()))?;
    let traced_s = t.spans.last().map_or(0.0, |s| s.us() / 1e6);
    let stats = ctx.cache().stats().delta(&before);
    let store = out.join(".cache");
    let disk_mb = dir_bytes(&store) as f64 / 1e6;
    probe_store(&mut t, &store, &out.join(".probe"))?;

    let mut m = Metrics::default();
    for id in ALL_EXPERIMENTS {
        m.put(
            &format!("exp.{id}.ms"),
            span_ms(&t.spans, &format!("exp.{id}")),
        );
    }
    m.cache(&t.spans, &stats, disk_mb);
    m.put("soc.setup_us", 0.0);
    m.put("soc.run_us", 0.0);
    m.put("soc.events", 0.0);
    for kind in MANAGERS {
        m.put(&format!("soc.{kind}.loop_ns_per_event"), 0.0);
    }
    m.put("cache.key_us", 0.0);
    write_spans(&flags.path("spans")?, &t.spans)?;
    Ok(format!(
        "{{\"traced_s\": {traced_s}, \"metrics\": {}}}",
        m.render()
    ))
}

/// Cache-layer probes over a finished store: each entry is decoded,
/// re-encoded, and written through a second disk-backed cache
/// (`fetch` miss, then `complete`); a third cache then reads every entry
/// back from disk (`fetch` hit).
fn probe_store(t: &mut Tracer, store: &Path, probe_dir: &Path) -> Result<(), String> {
    let mut values = Vec::new();
    for shard in read_dir_sorted(store) {
        for entry in read_dir_sorted(&shard) {
            if entry.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&entry)
                    .map_err(|e| format!("read {}: {e}", entry.display()))?;
                let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", entry.display()))?;
                let value = doc
                    .get("value")
                    .cloned()
                    .ok_or("store entry without value")?;
                let compute_ms = doc.get("compute_ms").and_then(Json::as_f64).unwrap_or(0.0);
                values.push((value, compute_ms));
            }
        }
    }
    let keys: Vec<_> = (0..values.len())
        .map(|i| key_of(&Json::Str(format!("perfbench-probe-{i}")), 0))
        .collect();
    let writer = Cache::new(Some(probe_dir.to_path_buf()), CacheMode::On);
    t.span(0, "probe.store", |t, root| -> Result<(), String> {
        for ((value, compute_ms), key) in values.iter().zip(&keys) {
            let open = t.begin();
            let Fetch::Miss(guard) = writer.fetch(*key) else {
                return Err("probe key unexpectedly present".into());
            };
            t.end(open, root, "cache.fetch_miss");
            let report = t.span(root, "cache.decode", |_, _| SimReport::from_json(value));
            let report = report.map_err(|e| format!("store entry does not decode: {e}"))?;
            let json = t.span(root, "cache.encode", |_, _| report.to_json());
            t.span(root, "cache.store", |_, _| {
                guard.complete(json, *compute_ms)
            });
        }
        let reader = Cache::new(Some(probe_dir.to_path_buf()), CacheMode::On);
        for key in &keys {
            let open = t.begin();
            let hit = matches!(reader.fetch(*key), Fetch::Hit(..));
            t.end(open, root, "cache.fetch_hit");
            if !hit {
                return Err("probe entry did not read back from disk".into());
            }
        }
        Ok(())
    })?;
    let _ = std::fs::remove_dir_all(probe_dir);
    Ok(())
}

const MANAGERS: [&str; 6] = ["BC", "BC-C", "C-RR", "TS", "PT", "Static"];

/// One replayed grid point, echoed so `run.py` can compare it with the
/// server's answer to the same request.
struct PointOut {
    exec_time_us: f64,
    mean_response_us: Option<f64>,
}

/// A miss point's engine timings.
struct MissTiming {
    manager: String,
    setup_ns: u64,
    run_ns: u64,
    events: u64,
}

/// Replays a request stream in-process through the calls `run_sweep`
/// makes, on `--conns` threads pulling requests in order (the closed
/// loop `run.py`'s client runs), against one fresh disk-backed cache.
fn serve(flags: &Flags) -> Result<String, String> {
    let text = std::fs::read_to_string(flags.path("requests")?)
        .map_err(|e| format!("read requests: {e}"))?;
    let reqs: Vec<SweepRequest> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            Json::parse(l)
                .map_err(|e| e.to_string())
                .and_then(|j| SweepRequest::from_json(&j).map_err(|e| e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    let cache_dir = flags.path("cache-dir")?;
    let cache = Cache::new(Some(cache_dir.clone()), CacheMode::On);
    let conns = flags.num("conns")?.max(1);
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    type Answer = (usize, Result<Vec<PointOut>, String>);
    let per_thread: Vec<(Tracer, Vec<Answer>, Vec<MissTiming>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let (cache, reqs, next) = (&cache, &reqs, &next);
                s.spawn(move || {
                    let mut t = Tracer::new(epoch, c as u64 + 1);
                    let (mut answers, mut misses) = (Vec::new(), Vec::new());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let answer = t.span(0, "serve.request", |t, rid| {
                            replay(t, rid, cache, req, &mut misses)
                        });
                        answers.push((i, answer));
                    }
                    (t, answers, misses)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let traced_s = epoch.elapsed().as_secs_f64();

    let mut spans = Vec::new();
    let mut answers = Vec::new();
    let mut misses = Vec::new();
    for (t, a, m) in per_thread {
        spans.extend(t.spans);
        answers.extend(a);
        misses.extend(m);
    }
    answers.sort_by_key(|(i, _)| *i);
    spans.sort_by_key(|s| (s.start_ns, s.id));

    let mut m = Metrics::default();
    m.put("soc.setup_us", median(durations(&spans, "soc.setup")));
    m.put("soc.run_us", median(durations(&spans, "soc.run")));
    m.put(
        "soc.events",
        median(misses.iter().map(|x| x.events as f64).collect()),
    );
    for kind in MANAGERS {
        let per_event = misses
            .iter()
            .filter(|x| x.manager == kind && x.events > 0)
            .map(|x| x.run_ns.saturating_sub(x.setup_ns) as f64 / x.events as f64)
            .collect();
        m.put(&format!("soc.{kind}.loop_ns_per_event"), median(per_event));
    }
    m.put("cache.key_us", median(durations(&spans, "cache.key")));
    m.cache(&spans, &cache.stats(), dir_bytes(&cache_dir) as f64 / 1e6);
    for id in ALL_EXPERIMENTS {
        m.put(&format!("exp.{id}.ms"), 0.0);
    }
    write_spans(&flags.path("spans")?, &spans)?;

    let mut out = String::from("[");
    for (n, (_, answer)) in answers.iter().enumerate() {
        if n > 0 {
            out.push_str(", ");
        }
        match answer {
            Ok(points) => {
                out.push('[');
                for (k, p) in points.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "[{}, {}]",
                        Json::Num(p.exec_time_us),
                        p.mean_response_us.to_json()
                    );
                }
                out.push(']');
            }
            Err(e) => out.push_str(&Json::Str(e.clone()).to_string()),
        }
    }
    out.push(']');
    Ok(format!(
        "{{\"traced_s\": {traced_s}, \"answers\": {out}, \"metrics\": {}}}",
        m.render()
    ))
}

/// `run_sweep`'s grid expansion and `run_cached`'s lookup, one span per
/// public call.
fn replay(
    t: &mut Tracer,
    parent: u64,
    cache: &Cache,
    req: &SweepRequest,
    misses: &mut Vec<MissTiming>,
) -> Result<Vec<PointOut>, String> {
    let soc = soc_preset(&req.soc)?;
    let wl = workload::av_parallel(&soc, req.frames);
    let mut points = Vec::new();
    for name in &req.managers {
        let kind: ManagerKind = name.parse().map_err(|e| format!("manager {name}: {e}"))?;
        for &budget in &req.budgets_mw {
            let cfg = SimConfig::try_new(kind, budget).map_err(|e| e.to_string())?;
            for &seed in &req.seeds {
                let sim = Simulation::new(soc.clone(), wl.clone(), cfg);
                let report = t.span(parent, "point", |t, pid| -> Result<SimReport, String> {
                    let key = t.span(pid, "cache.key", |_, _| sim.cache_key(seed));
                    let open = t.begin();
                    match cache.fetch(key) {
                        Fetch::Hit(value, _) => {
                            t.end(open, pid, "cache.fetch_hit");
                            t.span(pid, "cache.decode", |_, _| SimReport::from_json(&value))
                                .map_err(|e| format!("cached report does not decode: {e}"))
                        }
                        Fetch::Miss(guard) => {
                            t.end(open, pid, "cache.fetch_miss");
                            let setup = t.begin();
                            std::hint::black_box(sim.structure_lens());
                            t.end(setup, pid, "soc.setup");
                            let run = t.begin();
                            let report = sim.run(seed);
                            t.end(run, pid, "soc.run");
                            let n = t.spans.len();
                            let (setup_span, run_span) = (&t.spans[n - 2], &t.spans[n - 1]);
                            misses.push(MissTiming {
                                manager: name.clone(),
                                setup_ns: setup_span.end_ns - setup_span.start_ns,
                                run_ns: run_span.end_ns - run_span.start_ns,
                                events: report.events,
                            });
                            let run_ms = run_span.us() / 1e3;
                            let json = t.span(pid, "cache.encode", |_, _| report.to_json());
                            t.span(pid, "cache.store", |_, _| guard.complete(json, run_ms));
                            Ok(report)
                        }
                        Fetch::Bypass => Err("cache unexpectedly off".into()),
                    }
                })?;
                points.push(PointOut {
                    exec_time_us: report.exec_time_us(),
                    mean_response_us: report.mean_response_us(),
                });
            }
        }
    }
    Ok(points)
}

/// Recomputes each point of `--points` (JSON lines carrying `soc`,
/// `frames`, `manager`, `budget_mw`, `seed`, `exec_time_us`,
/// `mean_response_us`) with `Simulation::run` and reports the indices
/// whose answer differs.
fn verify(flags: &Flags) -> Result<String, String> {
    let text =
        std::fs::read_to_string(flags.path("points")?).map_err(|e| format!("read points: {e}"))?;
    let mut bad = Vec::new();
    let mut checked = 0usize;
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let p = Json::parse(line).map_err(|e| format!("point {i}: {e}"))?;
        let field = |name: &str| p.get(name).ok_or_else(|| format!("point {i}: no {name}"));
        let soc = soc_preset(field("soc")?.as_str().unwrap_or(""))?;
        let frames: usize = p.field("frames").map_err(|e| e.to_string())?;
        let kind: ManagerKind = p
            .field::<String>("manager")
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e| format!("point {i}: {e}"))?;
        let budget = field("budget_mw")?.as_f64().ok_or("budget_mw")?;
        let seed: u64 = p.field("seed").map_err(|e| e.to_string())?;
        let cfg = SimConfig::try_new(kind, budget).map_err(|e| e.to_string())?;
        let wl = workload::av_parallel(&soc, frames);
        let report = Simulation::new(soc, wl, cfg).run(seed);
        let want_exec = field("exec_time_us")?.as_f64();
        let want_resp = field("mean_response_us")?.as_f64();
        checked += 1;
        if want_exec != Some(report.exec_time_us()) || want_resp != report.mean_response_us() {
            bad.push(i);
        }
    }
    Ok(format!("{{\"checked\": {checked}, \"bad\": {bad:?}}}"))
}

fn soc_preset(name: &str) -> Result<SocConfig, String> {
    match name {
        "3x3" => Ok(floorplan::soc_3x3()),
        "4x4" => Ok(floorplan::soc_4x4()),
        "6x6" => Ok(floorplan::soc_6x6()),
        other => Err(format!("unknown soc preset `{other}`")),
    }
}

/// Per-layer metrics in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    /// The cache-layer timings, counters and store size.
    fn cache(&mut self, spans: &[Span], stats: &CacheStats, disk_mb: f64) {
        for (metric, span) in [
            ("cache.fetch_hit_us", "cache.fetch_hit"),
            ("cache.fetch_miss_us", "cache.fetch_miss"),
            ("cache.decode_us", "cache.decode"),
            ("cache.encode_us", "cache.encode"),
            ("cache.store_us", "cache.store"),
        ] {
            self.put(metric, median(durations(spans, span)));
        }
        let lookups = stats.hits + stats.misses;
        self.put("cache.hits", stats.hits as f64);
        self.put("cache.misses", stats.misses as f64);
        self.put(
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                stats.hits as f64 / lookups as f64
            },
        );
        self.put("cache.saved_ms", stats.saved_ms);
        self.put("cache.disk_mb", disk_mb);
    }

    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", Json::Str(k.clone()), Json::Num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

fn span_ms(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum::<f64>() / 1e3
}

/// Median, or 0 for a layer the replay never entered.
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            Json::Str(s.name.clone()),
            s.start_ns,
            s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_dir_sorted(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .collect();
    paths.sort();
    paths
}

fn dir_bytes(dir: &Path) -> u64 {
    read_dir_sorted(dir)
        .iter()
        .map(|p| match p.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(p),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}
