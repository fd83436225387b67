//! A long-lived sweep server in front of the content-addressed result
//! cache.
//!
//! `blitzcoin-serve` accepts sweep submissions over plain HTTP/JSON and
//! answers them from the shared [`Cache`]: every grid point is a
//! [`Simulation`] unit addressed by [`Simulation::cache_key`], so
//! repeated submissions — from one client or many — hit instead of
//! recomputing, and *concurrent* submissions of the same point coalesce
//! on the cache's in-flight claim: exactly one computation runs, every
//! waiter receives its result. Disjoint requests never queue behind each
//! other; each connection is served on its own thread and blocks only on
//! the specific keys it asked for. At most [`MAX_CONNECTIONS`] are served
//! at once; the accept loop answers any connection past that with `503`.
//!
//! The protocol is deliberately minimal and versioned:
//!
//! - `GET /v1/health` → `{"ok": true, "version": 1}`
//! - `POST /v1/sweep` with a [`SweepRequest`] body → an ndjson stream of
//!   `{"type":"progress","done":d,"total":n}` lines followed by one
//!   `{"type":"result","response":{...}}` line carrying the
//!   [`SweepResponse`], which reports per-request cache hits, misses,
//!   and wall time.
//!
//! A [`SweepRequest`] whose `version` does not match
//! [`PROTOCOL_VERSION`] is rejected up front, so struct evolution can
//! never be misread as garbage results.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blitzcoin_sim::json::{FromJson, Json, ToJson};
use blitzcoin_sim::Cache;
use blitzcoin_soc::engine::{SimConfig, Simulation};
use blitzcoin_soc::manager::ManagerKind;
use blitzcoin_soc::{floorplan, workload};

/// Version of the request/response structs. Bump on any incompatible
/// field change; requests carrying another version are rejected.
pub const PROTOCOL_VERSION: u32 = 1;

/// Largest request body accepted; a longer `Content-Length` is answered
/// `413` before anything is read or allocated.
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Largest request head (request line plus headers) accepted.
pub const MAX_HEAD_BYTES: u64 = 16 << 10;
/// Most grid points (`managers × budgets × seeds`) one sweep may ask for.
pub const MAX_GRID_POINTS: usize = 4096;
/// Most workload frames one sweep may ask for.
pub const MAX_FRAMES: usize = 64;
/// Read and write timeout of every accepted connection: a client that
/// stalls this long in one read or write is disconnected, so a slow or
/// silent client cannot hold a connection thread open for good.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Most connections served at once. Past it the accept loop answers
/// `503` with `Retry-After` itself and spawns no handler thread, so a
/// flood of connections cannot grow the thread count without bound.
pub const MAX_CONNECTIONS: usize = 64;

/// A sweep submission: the full grid
/// `managers × budgets_mw × seeds` over one SoC floorplan and workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Must equal [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Floorplan preset: `3x3`, `4x4`, or `6x6`.
    pub soc: String,
    /// Frames of the AV-parallel workload to run.
    pub frames: usize,
    /// Manager kinds, parsed via [`ManagerKind::from_str`]
    /// (the figure short names: `BC`, `BC-C`, `C-RR`, `TS`, `PT`, `Static`).
    pub managers: Vec<String>,
    /// Accelerator power budgets (mW).
    pub budgets_mw: Vec<f64>,
    /// Run seeds.
    pub seeds: Vec<u64>,
}

blitzcoin_sim::json_fields!(SweepRequest {
    version,
    soc,
    frames,
    managers,
    budgets_mw,
    seeds,
});

/// One grid point's summary, in grid order
/// (managers outermost, seeds innermost).
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The manager this point ran.
    pub manager: String,
    /// The budget this point ran at (mW).
    pub budget_mw: f64,
    /// The seed this point ran under.
    pub seed: u64,
    /// Workload makespan (µs).
    pub exec_time_us: f64,
    /// Mean activity-change response time (µs), when any were measured.
    pub mean_response_us: Option<f64>,
    /// Whether the cache served this point without recomputing.
    pub cache_hit: bool,
}

blitzcoin_sim::json_fields!(PointResult {
    manager,
    budget_mw,
    seed,
    exec_time_us,
    mean_response_us,
    cache_hit,
});

/// The answer to a [`SweepRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResponse {
    /// Echoes [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Per-point summaries, in grid order.
    pub points: Vec<PointResult>,
    /// Points this request served from cache (including waits on another
    /// request's in-flight computation).
    pub cache_hits: u64,
    /// Points this request computed itself.
    pub cache_misses: u64,
    /// Wall time spent answering, in milliseconds.
    pub wall_ms: f64,
}

blitzcoin_sim::json_fields!(SweepResponse {
    version,
    points,
    cache_hits,
    cache_misses,
    wall_ms,
});

/// The number of grid points `req` expands to, or why the server refuses
/// it: an empty or over-large grid, an out-of-range frame count, or a
/// budget that is not a positive normal number (a subnormal budget
/// leaves no positive coin value).
pub fn grid_size(req: &SweepRequest) -> Result<usize, String> {
    if let Some(b) = req
        .budgets_mw
        .iter()
        .find(|b| !(b.is_normal() && **b > 0.0))
    {
        return Err(format!("budget {b} mW must be positive"));
    }
    if req.frames == 0 {
        return Err("frames must be positive".into());
    }
    if req.frames > MAX_FRAMES {
        return Err(format!(
            "{} frames exceed the limit of {MAX_FRAMES}",
            req.frames
        ));
    }
    let total = req
        .managers
        .len()
        .checked_mul(req.budgets_mw.len())
        .and_then(|n| n.checked_mul(req.seeds.len()))
        .filter(|&n| n <= MAX_GRID_POINTS)
        .ok_or_else(|| format!("sweep grid exceeds the limit of {MAX_GRID_POINTS} points"))?;
    if total == 0 {
        return Err("empty sweep grid".into());
    }
    Ok(total)
}

/// Expands and runs a sweep against `cache`, invoking
/// `progress(done, total)` after each point. This is the whole of the
/// server's business logic; the HTTP layer only frames it.
pub fn run_sweep(
    cache: &Cache,
    req: &SweepRequest,
    mut progress: impl FnMut(usize, usize),
) -> Result<SweepResponse, String> {
    if req.version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {} (this server speaks {PROTOCOL_VERSION})",
            req.version
        ));
    }
    let soc = match req.soc.as_str() {
        "3x3" => floorplan::soc_3x3(),
        "4x4" => floorplan::soc_4x4(),
        "6x6" => floorplan::soc_6x6(),
        other => return Err(format!("unknown soc preset `{other}`")),
    };
    let total = grid_size(req)?;
    let managers: Vec<ManagerKind> = req
        .managers
        .iter()
        .map(|m| m.parse().map_err(|e| format!("manager `{m}`: {e}")))
        .collect::<Result<_, String>>()?;

    let t0 = Instant::now();
    let wl = workload::av_parallel(&soc, req.frames);
    let mut points = Vec::with_capacity(total);
    let mut hits = 0u64;
    for (mi, &manager) in managers.iter().enumerate() {
        for &budget_mw in &req.budgets_mw {
            let cfg = SimConfig::try_new(manager, budget_mw)
                .map_err(|e| format!("budget {budget_mw}: {e}"))?;
            for &seed in &req.seeds {
                let sim = Simulation::new(soc.clone(), wl.clone(), cfg);
                let (report, hit) = blitzcoin_soc::cached::run_cached(cache, &sim, seed);
                hits += u64::from(hit);
                points.push(PointResult {
                    manager: req.managers[mi].clone(),
                    budget_mw,
                    seed,
                    exec_time_us: report.exec_time_us(),
                    mean_response_us: report.mean_response_us(),
                    cache_hit: hit,
                });
                progress(points.len(), total);
            }
        }
    }
    Ok(SweepResponse {
        version: PROTOCOL_VERSION,
        cache_hits: hits,
        cache_misses: total as u64 - hits,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        points,
    })
}

/// The server: a shared cache plus an accept loop.
#[derive(Debug)]
pub struct Server {
    cache: Arc<Cache>,
}

impl Server {
    /// Creates a server answering sweeps from `cache`.
    pub fn new(cache: Arc<Cache>) -> Server {
        Server { cache }
    }

    /// Serves `listener` forever, one thread per connection, each
    /// stream with [`IO_TIMEOUT`] for reads and writes. At most
    /// [`MAX_CONNECTIONS`] are served at once; a connection past that is
    /// answered `503` from the accept loop and closed. Connection errors
    /// are logged and never take the server down.
    pub fn serve(&self, listener: TcpListener) {
        let active = Arc::new(AtomicUsize::new(0));
        for conn in listener.incoming() {
            match conn {
                Ok(stream) => {
                    // Only this loop increments, so the check cannot race
                    // past the cap; handlers only ever free slots. The
                    // count publishes no other data, hence `Relaxed`.
                    if active.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                        if let Err(e) = respond_busy(stream) {
                            eprintln!("blitzcoin-serve: connection error: {e}");
                        }
                        continue;
                    }
                    active.fetch_add(1, Ordering::Relaxed);
                    let slot = ConnectionSlot(Arc::clone(&active));
                    let cache = Arc::clone(&self.cache);
                    std::thread::spawn(move || {
                        let _slot = slot;
                        let served = stream
                            .set_read_timeout(Some(IO_TIMEOUT))
                            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
                            .and_then(|()| handle(&cache, stream));
                        if let Err(e) = served {
                            eprintln!("blitzcoin-serve: connection error: {e}");
                        }
                    });
                }
                Err(e) => eprintln!("blitzcoin-serve: accept error: {e}"),
            }
        }
    }
}

/// One counted connection; frees its place under [`MAX_CONNECTIONS`]
/// when the handler ends, however it ends.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Reads one HTTP request, routes it, writes the response.
///
/// Every size the client controls is bounded before it is used: the
/// head by [`MAX_HEAD_BYTES`], the body by [`MAX_BODY_BYTES`] (checked
/// against `Content-Length` before the buffer exists), and the sweep
/// itself by [`grid_size`].
fn handle(cache: &Cache, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut head = (&mut reader).take(MAX_HEAD_BYTES);
    let mut line = String::new();
    head.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return respond_error(stream, 400, "malformed request line"),
    };

    let mut content_length = Some(0usize);
    loop {
        let mut header = String::new();
        if head.read_line(&mut header)? == 0 {
            return respond_error(stream, 400, "request head too large or truncated");
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }

    match (method.as_str(), path.as_str()) {
        ("GET", "/v1/health") => respond_json(
            stream,
            &format!("{{\"ok\": true, \"version\": {PROTOCOL_VERSION}}}"),
        ),
        ("POST", "/v1/sweep") => {
            let Some(content_length) = content_length else {
                return respond_error(stream, 400, "bad content-length");
            };
            if content_length > MAX_BODY_BYTES {
                return respond_error(
                    stream,
                    413,
                    &format!("body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
                );
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            let req = match std::str::from_utf8(&body)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
                .and_then(|json| SweepRequest::from_json(&json).map_err(|e| e.to_string()))
            {
                Ok(req) => req,
                Err(e) => return respond_error(stream, 400, &format!("bad sweep request: {e}")),
            };
            if let Err(e) = grid_size(&req) {
                return respond_error(stream, 400, &format!("bad sweep request: {e}"));
            }
            respond_sweep(cache, stream, &req)
        }
        _ => respond_error(stream, 404, "no such endpoint"),
    }
}

/// Streams a sweep answer as ndjson: progress lines, then the result
/// (or an error line if the request fails validation).
fn respond_sweep(cache: &Cache, mut stream: TcpStream, req: &SweepRequest) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    // Progress write failures (client hung up mid-stream) must not poison
    // the sweep itself: keep computing so the cache still fills.
    let result = run_sweep(cache, req, |done, total| {
        let _ = stream.write_all(
            format!("{{\"type\":\"progress\",\"done\":{done},\"total\":{total}}}\n").as_bytes(),
        );
        let _ = stream.flush();
    });
    let last = match result {
        Ok(resp) => {
            let mut line = String::from("{\"type\":\"result\",\"response\":");
            line.push_str(&resp.to_json().to_string());
            line.push('}');
            line
        }
        Err(e) => {
            let mut line = String::from("{\"type\":\"error\",\"error\":");
            line.push_str(&Json::Str(e).to_string());
            line.push('}');
            line
        }
    };
    stream.write_all(last.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

fn respond_json(mut stream: TcpStream, body: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Answers `503` on the accept loop's thread. Whatever of the request
/// has already arrived is drained first (without waiting for more), so
/// closing does not reset the connection before the client reads the
/// answer.
fn respond_busy(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    respond_error(
        stream,
        503,
        &format!("server busy: {MAX_CONNECTIONS} connections in progress"),
    )
}

fn respond_error(mut stream: TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    // A busy server tells the client to retry after a second.
    let (reason, retry) = match status {
        400 => ("Bad Request", ""),
        404 => ("Not Found", ""),
        413 => ("Content Too Large", ""),
        503 => ("Service Unavailable", "Retry-After: 1\r\n"),
        _ => ("Error", ""),
    };
    let body = format!("{{\"error\": {}}}", Json::Str(message.to_string()));
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\n{retry}Content-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// A minimal blocking client for the sweep protocol — used by the
/// integration tests and handy for scripting against a running server.
pub mod client {
    use super::*;
    use std::net::SocketAddr;

    /// Submits `req` to the server at `addr` and returns the final
    /// response plus every `(done, total)` progress pair seen on the
    /// stream.
    pub fn submit(
        addr: SocketAddr,
        req: &SweepRequest,
    ) -> Result<(SweepResponse, Vec<(usize, usize)>), String> {
        let body = req.to_json().to_string();
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        write!(
            stream,
            "POST /v1/sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .map_err(|e| e.to_string())?;
        stream.flush().map_err(|e| e.to_string())?;

        let mut text = String::new();
        BufReader::new(stream)
            .read_to_string(&mut text)
            .map_err(|e| e.to_string())?;
        let (head, payload) = text
            .split_once("\r\n\r\n")
            .ok_or("malformed http response")?;
        let status = head.lines().next().unwrap_or_default();
        if !status.starts_with("HTTP/1.1 200") {
            let error = Json::parse(payload)
                .ok()
                .and_then(|json| json.field::<String>("error").ok())
                .unwrap_or_default();
            return Err(format!("{status}: {error}"));
        }

        let mut progress = Vec::new();
        let mut response = None;
        for line in payload.lines().filter(|l| !l.trim().is_empty()) {
            let json = Json::parse(line).map_err(|e| format!("bad stream line: {e}"))?;
            match json.field::<String>("type").as_deref() {
                Ok("progress") => {
                    progress.push((
                        json.field("done").unwrap_or(0),
                        json.field("total").unwrap_or(0),
                    ));
                }
                Ok("result") => {
                    let inner = json.get("response").ok_or("result line without response")?;
                    response = Some(SweepResponse::from_json(inner).map_err(|e| e.to_string())?);
                }
                Ok("error") => {
                    return Err(json.field::<String>("error").unwrap_or_default());
                }
                _ => return Err(format!("unknown stream line: {line}")),
            }
        }
        response
            .map(|r| (r, progress))
            .ok_or_else(|| "stream ended without a result".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> SweepRequest {
        SweepRequest {
            version: PROTOCOL_VERSION,
            soc: "3x3".into(),
            frames: 1,
            managers: vec!["BC".into(), "Static".into()],
            budgets_mw: vec![120.0],
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn request_and_response_round_trip() {
        let req = request();
        let back =
            SweepRequest::from_json(&Json::parse(&req.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, req);

        let resp = SweepResponse {
            version: PROTOCOL_VERSION,
            points: vec![PointResult {
                manager: "BC".into(),
                budget_mw: 120.0,
                seed: 1,
                exec_time_us: 42.5,
                mean_response_us: None,
                cache_hit: true,
            }],
            cache_hits: 1,
            cache_misses: 0,
            wall_ms: 3.25,
        };
        let back =
            SweepResponse::from_json(&Json::parse(&resp.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn sweep_runs_grid_in_order_and_hits_on_repeat() {
        let cache = Cache::in_memory();
        let req = request();
        let mut seen = Vec::new();
        let first = run_sweep(&cache, &req, |d, t| seen.push((d, t))).unwrap();
        assert_eq!(first.points.len(), 4);
        assert_eq!(seen, vec![(1, 4), (2, 4), (3, 4), (4, 4)]);
        assert_eq!((first.cache_hits, first.cache_misses), (0, 4));
        let order: Vec<(&str, u64)> = first
            .points
            .iter()
            .map(|p| (p.manager.as_str(), p.seed))
            .collect();
        assert_eq!(order, [("BC", 1), ("BC", 2), ("Static", 1), ("Static", 2)]);

        let second = run_sweep(&cache, &req, |_, _| {}).unwrap();
        assert_eq!((second.cache_hits, second.cache_misses), (4, 0));
        for (a, b) in first.points.iter().zip(&second.points) {
            assert_eq!(a.exec_time_us, b.exec_time_us);
            assert_eq!(a.mean_response_us, b.mean_response_us);
        }
    }

    #[test]
    fn sweep_rejects_bad_requests() {
        let cache = Cache::in_memory();
        let wrong_version = SweepRequest {
            version: PROTOCOL_VERSION + 1,
            ..request()
        };
        assert!(run_sweep(&cache, &wrong_version, |_, _| {})
            .unwrap_err()
            .contains("protocol version"));
        let bad_soc = SweepRequest {
            soc: "9x9".into(),
            ..request()
        };
        assert!(run_sweep(&cache, &bad_soc, |_, _| {})
            .unwrap_err()
            .contains("unknown soc"));
        let empty = SweepRequest {
            managers: vec![],
            ..request()
        };
        assert!(run_sweep(&cache, &empty, |_, _| {})
            .unwrap_err()
            .contains("empty sweep grid"));
    }

    #[test]
    fn grid_size_enforces_the_limits() {
        assert_eq!(grid_size(&request()), Ok(4));
        let too_many_frames = SweepRequest {
            frames: MAX_FRAMES + 1,
            ..request()
        };
        assert!(grid_size(&too_many_frames).unwrap_err().contains("frames"));
        let zero_frames = SweepRequest {
            frames: 0,
            ..request()
        };
        assert!(grid_size(&zero_frames).unwrap_err().contains("positive"));
        // 2 managers x 2 budgets x 1025 seeds = 4100 points > 4096
        let too_large = SweepRequest {
            budgets_mw: vec![60.0, 120.0],
            seeds: (0..1025).collect(),
            ..request()
        };
        assert!(grid_size(&too_large).unwrap_err().contains("limit"));
        let at_limit = SweepRequest {
            budgets_mw: vec![60.0, 120.0],
            seeds: (0..1024).collect(),
            ..request()
        };
        assert_eq!(grid_size(&at_limit), Ok(MAX_GRID_POINTS));
        for bad in [0.0, -60.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE / 2.0] {
            let req = SweepRequest {
                budgets_mw: vec![120.0, bad],
                ..request()
            };
            assert!(grid_size(&req).unwrap_err().contains("budget"), "{bad}");
        }
    }
}
