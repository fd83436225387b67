//! End-to-end tests of the sweep server: request coalescing through the
//! shared cache, progress streaming, and independence of disjoint
//! requests.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use blitzcoin_serve::{
    client, Server, SweepRequest, IO_TIMEOUT, MAX_CONNECTIONS, MAX_FRAMES, MAX_GRID_POINTS,
    MAX_HEAD_BYTES, PROTOCOL_VERSION,
};
use blitzcoin_sim::Cache;

fn start_server() -> (Arc<Cache>, SocketAddr) {
    let cache = Arc::new(Cache::in_memory());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = Server::new(Arc::clone(&cache));
    thread::spawn(move || server.serve(listener));
    (cache, addr)
}

fn grid(seeds: Vec<u64>) -> SweepRequest {
    SweepRequest {
        version: PROTOCOL_VERSION,
        soc: "3x3".into(),
        frames: 1,
        managers: vec!["BC".into(), "Static".into()],
        budgets_mw: vec![120.0],
        seeds,
    }
}

#[test]
fn concurrent_identical_sweeps_compute_each_point_once() {
    let (cache, addr) = start_server();
    let req = grid(vec![1, 2]);

    // Two clients race the same 4-point grid. The cache's in-flight
    // claim is the only synchronization: whichever client reaches a key
    // first computes it, the other waits and receives the same value.
    let (a, b) = thread::scope(|s| {
        let ta = s.spawn(|| client::submit(addr, &req).expect("client a"));
        let tb = s.spawn(|| client::submit(addr, &req).expect("client b"));
        (ta.join().expect("join a"), tb.join().expect("join b"))
    });

    // Exactly one computation per unique point across both requests.
    let stats = cache.stats();
    assert_eq!(stats.misses, 4, "each grid point computed exactly once");
    assert_eq!(a.0.cache_misses + b.0.cache_misses, 4);
    assert_eq!(a.0.cache_hits + b.0.cache_hits, 4);

    // Both clients see identical results. `cache_hit` legitimately
    // differs between the racing clients; everything the sweep
    // *measured* must not.
    let strip = |pts: &[blitzcoin_serve::PointResult]| {
        pts.iter()
            .cloned()
            .map(|mut p| {
                p.cache_hit = false;
                p
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(a.0.points.len(), 4);
    assert_eq!(strip(&a.0.points), strip(&b.0.points));

    // Progress streamed all the way to done == total.
    assert_eq!(a.1.last(), Some(&(4, 4)));
    assert_eq!(b.1.last(), Some(&(4, 4)));
}

#[test]
fn warm_resubmission_is_all_hits() {
    let (_cache, addr) = start_server();
    let req = grid(vec![9]);
    let (cold, _) = client::submit(addr, &req).expect("cold submit");
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2));
    let (warm, _) = client::submit(addr, &req).expect("warm submit");
    assert_eq!((warm.cache_hits, warm.cache_misses), (2, 0));
    for (a, b) in cold.points.iter().zip(&warm.points) {
        assert_eq!(a.exec_time_us, b.exec_time_us);
        assert_eq!(a.mean_response_us, b.mean_response_us);
    }
}

#[test]
fn disjoint_request_is_not_blocked_by_a_long_sweep() {
    let (_cache, addr) = start_server();

    // A long-running sweep (many seeds = many distinct computations) ...
    let long = grid((0..12).collect());
    let long_done = Arc::new(AtomicBool::new(false));
    let long_thread = {
        let long_done = Arc::clone(&long_done);
        thread::spawn(move || {
            let r = client::submit(addr, &long).expect("long sweep");
            long_done.store(true, Ordering::SeqCst);
            r
        })
    };

    // ... must not delay a disjoint one-point request on another
    // connection: its key is never claimed by the long sweep, so it only
    // waits for its own computation.
    let small = SweepRequest {
        seeds: vec![777],
        managers: vec!["BC".into()],
        ..grid(vec![])
    };
    let (small_resp, _) = client::submit(addr, &small).expect("small sweep");
    assert_eq!(small_resp.points.len(), 1);
    assert_eq!(small_resp.cache_misses, 1);
    assert!(
        !long_done.load(Ordering::SeqCst),
        "the 1-point request must finish while the 24-point sweep is still running"
    );

    let (long_resp, _) = long_thread.join().expect("join long");
    assert_eq!(long_resp.points.len(), 24);
    assert_eq!(long_resp.cache_misses, 24);
}

#[test]
fn health_and_errors_over_http() {
    use std::io::{Read, Write};
    let (_cache, addr) = start_server();

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200"));
    assert!(text.contains("\"ok\": true"));

    // A version-mismatched submission is answered with a typed error.
    let bad = SweepRequest {
        version: PROTOCOL_VERSION + 1,
        ..grid(vec![1])
    };
    let err = client::submit(addr, &bad).expect_err("must reject");
    assert!(err.contains("protocol version"), "got: {err}");

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 404"));
}

#[test]
fn stalled_client_is_disconnected_while_a_sweep_is_answered() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    let (_cache, addr) = start_server();

    // Half a request head, then silence. The client's own timeout only
    // stops a hung test; the server must hang up well before it.
    let mut stalled = std::net::TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(IO_TIMEOUT + Duration::from_secs(10)))
        .unwrap();
    stalled
        .write_all(b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Le")
        .unwrap();
    let t0 = Instant::now();

    let (resp, _) = client::submit(addr, &grid(vec![31])).expect("concurrent sweep");
    assert_eq!(resp.points.len(), 2);

    let mut reply = Vec::new();
    let closed = stalled.read_to_end(&mut reply);
    let waited = t0.elapsed();
    assert!(
        matches!(closed, Ok(0))
            || matches!(&closed, Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset),
        "the server hangs up: {closed:?}"
    );
    assert!(reply.is_empty(), "nothing is answered to half a head");
    assert!(
        waited >= IO_TIMEOUT - Duration::from_millis(500)
            && waited < IO_TIMEOUT + Duration::from_secs(3),
        "disconnected after {waited:?}, timeout {IO_TIMEOUT:?}"
    );
}

/// Sends raw `request` bytes and returns the whole reply.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(request).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    text
}

#[test]
fn oversized_inputs_are_refused_before_any_work() {
    let (cache, addr) = start_server();

    // A ~100 GB Content-Length is refused from the header alone: the
    // server never allocates the buffer or waits for the body.
    let reply = raw_exchange(
        addr,
        b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 413"), "got: {reply}");
    let reply = raw_exchange(
        addr,
        b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");

    // A head that has not ended after MAX_HEAD_BYTES is refused too. The
    // request is exactly that long, so the server reads all of it and
    // the connection closes cleanly.
    let mut head = b"GET /v1/health HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(MAX_HEAD_BYTES as usize, b'a');
    let reply = raw_exchange(addr, &head);
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");

    // Grids and frame counts over the limits are 400s, and nothing runs.
    let huge_grid = SweepRequest {
        seeds: (0..(MAX_GRID_POINTS as u64 / 2 + 1)).collect(),
        ..grid(vec![])
    };
    let err = client::submit(addr, &huge_grid).expect_err("grid over the limit");
    assert!(
        err.starts_with("HTTP/1.1 400") && err.contains("limit"),
        "got: {err}"
    );
    let long = SweepRequest {
        frames: MAX_FRAMES + 1,
        ..grid(vec![1])
    };
    let err = client::submit(addr, &long).expect_err("frames over the limit");
    assert!(
        err.starts_with("HTTP/1.1 400") && err.contains("frames"),
        "got: {err}"
    );
    // A non-positive budget is refused up front too, even after a valid
    // one that would otherwise have run first.
    let zero_budget = SweepRequest {
        budgets_mw: vec![120.0, 0.0],
        ..grid(vec![1])
    };
    let err = client::submit(addr, &zero_budget).expect_err("zero budget");
    assert!(
        err.starts_with("HTTP/1.1 400") && err.contains("budget"),
        "got: {err}"
    );
    assert_eq!(
        cache.stats().misses,
        0,
        "a refused request computes nothing"
    );

    // The benchmark-sized 24-point grid is far inside every limit.
    let bench = SweepRequest {
        managers: ["BC", "BC-C", "C-RR", "TS", "PT", "Static"]
            .map(String::from)
            .to_vec(),
        budgets_mw: vec![60.0, 120.0],
        frames: 2,
        ..grid(vec![1, 2])
    };
    assert_eq!(blitzcoin_serve::grid_size(&bench), Ok(24));
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_lives_on() {
    let (cache, addr) = start_server();

    // 10 KB of `[`: far under the body cap, but deep enough to overflow
    // a recursive parser's stack and abort the whole process.
    let body = "[".repeat(10_000);
    let mut request = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    let reply = raw_exchange(addr, &request);
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");
    assert!(reply.contains("nesting"), "got: {reply}");

    let reply = raw_exchange(
        addr,
        b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
    assert_eq!(cache.stats().misses, 0);
}

#[test]
fn connections_past_the_cap_get_503_until_the_stalled_ones_time_out() {
    use std::io::{Read, Write};
    use std::time::Duration;
    let (_cache, addr) = start_server();

    // Fill every connection slot with a client that sends half a head and
    // stalls. The accept loop counts each before it accepts the next, so
    // once all of these are connected the cap is reached.
    let stalled: Vec<std::net::TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut s = std::net::TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /v1/health HTTP/1.1\r\nHo").unwrap();
            s
        })
        .collect();

    // One more connection is refused from the accept loop, unprompted
    // and with a retry hint. (It sends nothing, so the server's close
    // can never race unread request bytes into a reset.)
    let mut extra = std::net::TcpStream::connect(addr).expect("connect");
    extra
        .set_read_timeout(Some(IO_TIMEOUT + Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    extra.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 503"), "got: {reply}");
    assert!(reply.contains("Retry-After: "), "got: {reply}");

    // The stalled clients are hung up on after IO_TIMEOUT, which frees
    // their slots, and a sweep is answered again. A handler frees its
    // slot just after its socket closes, so the first try may still
    // meet a full house; a slot that is never freed fails every retry.
    for mut s in stalled {
        s.set_read_timeout(Some(IO_TIMEOUT + Duration::from_secs(10)))
            .unwrap();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "nothing is answered to half a head");
    }
    let mut answer = client::submit(addr, &grid(vec![41]));
    for _ in 0..20 {
        if answer.is_ok() {
            break;
        }
        thread::sleep(Duration::from_millis(50));
        answer = client::submit(addr, &grid(vec![41]));
    }
    let (resp, _) = answer.expect("sweep after the stall");
    assert_eq!(resp.points.len(), 2);
}
