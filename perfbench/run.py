#!/usr/bin/env python3
"""The repo benchmark: what a user of this reproduction waits for.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release binaries
(`blitzcoin-exp`, `blitzcoin-serve`; the `oracle` feature off) and the
in-process tracer once, runs one workload for about S seconds, checks
the program's outputs, and prints one JSON object as its last line:
every end-to-end metric with `--trace 0`, every per-layer metric (from a
separate traced run) with `--trace 1`. See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import reqgen  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("regen_full_cold", "regen_quick_warm", "serve_sweep")
# Pinned worker count: the host this benchmark was defined on has 2 CPUs.
JOBS = 2
# The seed the committed results/*.csv were generated with. The regen
# workloads always run it: their CSVs are checked against that data, and
# at other seeds the claim set does not hold in full (98/99 in quick
# mode at seeds 1 and 7).
REGEN_SEED = 2024
# Requests per serve pass: 100 planned repeats, enough for a p90 of the
# hit latency with 10 samples beyond it from a single pass.
SERVE_REQUESTS = 300
SERVE_CONNS = 2
# Points of each serve run re-computed with Simulation::run.
VERIFY_SAMPLE = 12
# Set-ups timed per run; setup_s is their median. Every set-up ends
# with real work (a quick regen pass, or a warm-up sweep): a bare process
# start takes about 2 ms, and on a shared host its wake-up latency alone
# moves that by a third from one minute to the next.
SETUP_REPS = 8
REGEN_SETUP_REPS = 3
# The serve warm-up: one 24-point grid on seeds no stream request uses
# (stream seeds lie below 2**31), so it warms the server without
# turning any measured miss into a hit.
WARMUP_SWEEP = json.dumps({
    "version": reqgen.PROTOCOL_VERSION, "soc": "6x6", "frames": 1, "managers": reqgen.MANAGERS,
    "budgets_mw": [300.0, 600.0], "seeds": [1 << 32, (1 << 32) + 1],
}, separators=(",", ":")).encode()
# Another pass starts only while the time measured so far plus one mean
# pass stays within this share of --seconds.
OVERRUN = 1.1

ROOT = os.getcwd()
ENV = {k: v for k, v in os.environ.items() if k not in ("BLITZCOIN_CACHE", "BLITZCOIN_JOBS")}
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
ENV["CARGO_TARGET_DIR"] = TARGET
EXP = os.path.join(TARGET, "release", "blitzcoin-exp")
SERVE = os.path.join(TARGET, "release", "blitzcoin-serve")
TRACER = os.path.join(TARGET, "release", "perfbench-tracer")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".bench_work")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a checked
    output being wrong, which counts as a failed operation)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "blitzcoin-exp", "-p", "blitzcoin-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "tracer", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def run_tool(argv):
    """Runs a program to completion: (wall s, peak RSS MB, exit code, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, out.decode(errors="replace")


def tracer(*args):
    proc = subprocess.run([TRACER, *args], cwd=ROOT, env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"tracer {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(workload, args, info):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        rev = "unknown (git not installed)"
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "git_rev": rev, "nproc": info["nproc"], "jobs": JOBS, "profile": "release",
            "oracle": "on" if info["oracle"] else "off"}


def timed_passes(seconds, one_pass, min_passes=1):
    """Calls one_pass(k) until the next pass would overrun `seconds`;
    each returns a dict whose "wall" is the time it measured."""
    done, spent = [], 0.0
    while True:
        done.append(one_pass(len(done)))
        spent += done[-1]["wall"]
        if len(done) >= min_passes and spent + spent / len(done) > seconds * OVERRUN:
            return done


class Run:
    """Operation counts and the metrics of one benchmark run."""

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.report = {}  # every metric, gated or not, printed for people
        self.servers = []

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += min(failed, attempted)

    def path(self, *parts):
        return os.path.join(self.work, *parts)


# --- regen workloads ------------------------------------------------------


def regen_pass(run, out_dir, quick, expected_ids, reference):
    """One `blitzcoin-exp all` into out_dir, checked: CSVs against
    `reference`, every claim holding. Returns the pass record."""
    argv = [EXP, "all", "--jobs", str(JOBS), "--seed", str(REGEN_SEED), "--out", out_dir,
            "--cache", "on"] + (["--quick"] if quick else [])
    wall, rss, code, _ = run_tool(argv)
    manifest = []
    if code == 0:
        try:
            with open(os.path.join(out_dir, "manifest.json")) as f:
                manifest = json.load(f)
        except (OSError, ValueError) as e:
            log(f"unreadable manifest in {out_dir}: {e}")
    return check_regen(run, out_dir, manifest, expected_ids, reference) | {"wall": wall, "rss": rss}


def check_regen(run, out_dir, manifest, expected_ids, reference):
    failed = checks.regen_failures(manifest, expected_ids,
                                   checks.csv_mismatches(out_dir, reference))
    run.count(len(expected_ids), len(failed))
    if failed:
        log(f"check failed in {out_dir}: {', '.join(failed)}")
    held, total = checks.claims(manifest)
    return {"manifest": manifest, "claims": f"{held}/{total}",
            "units": sum(f["cache_hits"] + f["cache_misses"] for f in manifest),
            "misses": sum(f["cache_misses"] for f in manifest)}


def list_experiments():
    _, _, code, out = run_tool([EXP, "list"])
    if code != 0:
        raise BenchError("blitzcoin-exp list failed")
    return out.split()


def regen_full_cold(run, args):
    reference = checks.read_csvs(os.path.join(ROOT, "results"))
    if not reference:
        raise BenchError("no committed results/*.csv to check against")
    ids = list_experiments()
    # Set-up: a cold quick pass, checked and thrown away, so the binary,
    # its libraries and the file system are warm for the first full pass.
    setups = []
    for k in range(REGEN_SETUP_REPS):
        warm = run.path(f"warmup-{k}")
        setups.append(regen_pass(run, warm, True, ids, {})["wall"])
        shutil.rmtree(warm)

    def one_pass(k):
        out = run.path(f"full-{k}")
        rec = regen_pass(run, out, False, ids, reference)
        shutil.rmtree(out)
        return rec

    passes = timed_passes(args.seconds, one_pass)
    regen_metrics(run, setups, passes, len(reference))
    if args.trace:
        traced = run.path("traced")
        res = tracer("regen", "--out", traced, "--jobs", str(JOBS),
                     "--spans", spans_path(args))
        with open(os.path.join(traced, "manifest.json")) as f:
            check_regen(run, traced, json.load(f), ids, reference)
        return res, passes
    return None, passes


def regen_quick_warm(run, args):
    ids = list_experiments()
    setups = []
    for k in range(REGEN_SETUP_REPS):
        store = run.path(f"warm-{k}")
        cold = regen_pass(run, store, True, ids, {})
        setups.append(cold["wall"])
    reference = checks.read_csvs(store)
    run.report["cold_claims"] = cold["claims"]

    def one_pass(k):
        return regen_pass(run, store, True, ids, reference)

    passes = timed_passes(args.seconds, one_pass)
    run.report["warm_misses"] = sum(p["misses"] for p in passes)
    regen_metrics(run, setups, passes, len(reference))
    if args.trace:
        res = tracer("regen", "--out", store, "--quick", "--jobs", str(JOBS),
                     "--spans", spans_path(args))
        with open(os.path.join(store, "manifest.json")) as f:
            check_regen(run, store, json.load(f), ids, reference)
        return res, passes
    return None, passes


def regen_metrics(run, setups, passes, n_csvs):
    run.report.update({
        "setup_s": stats.median(setups),
        "wall_s": stats.median([p["wall"] for p in passes]),
        "peak_rss_mb": stats.median([p["rss"] for p in passes]),
        "points_per_s": stats.median([p["units"] / p["wall"] for p in passes]),
        "pass_walls": [p["wall"] for p in passes],
        "claims": passes[-1]["claims"],
        "csvs_checked": n_csvs,
    })


# --- serve workload -------------------------------------------------------


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http(port, request):
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.sendall(request)
        chunks = []
        while chunk := s.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def sweep(port, body):
    """Sends one sweep request; returns the raw answer."""
    head = (b"POST /v1/sweep HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body))
    return http(port, head + body)


def start_server(run, cache_dir):
    """Starts blitzcoin-serve on a free port and sends it the warm-up
    sweep, whose answer is checked; returns (process, port, seconds until
    the warm-up was answered)."""
    port = free_port()
    t0 = time.perf_counter()
    proc = subprocess.Popen([SERVE, "--addr", f"127.0.0.1:{port}", "--cache-dir", cache_dir,
                             "--cache", "on"], cwd=ROOT, env=ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    run.servers.append(proc)
    while True:
        try:
            if b" 200 " in http(port, b"GET /v1/health HTTP/1.1\r\nHost: bench\r\n\r\n"):
                break
        except OSError:
            pass
        if proc.poll() is not None or time.perf_counter() - t0 > 30:
            raise BenchError("blitzcoin-serve did not come up")
        time.sleep(0.0005)
    try:
        raw = sweep(port, WARMUP_SWEEP)
    except OSError as e:
        raw = repr(e).encode()
    setup = time.perf_counter() - t0
    try:
        checks.check_answer(WARMUP_SWEEP, checks.parse_sweep(raw))
        run.count(1, 0)
    except checks.BadResponse as e:
        log(f"warm-up sweep: {e}")
        run.count(1, 1)
    return proc, port, setup


def stop_server(proc):
    """Stops the server; returns its peak RSS in MB."""
    with open(f"/proc/{proc.pid}/status") as f:
        hwm = next(line for line in f if line.startswith("VmHWM:"))
    proc.terminate()
    proc.wait(timeout=30)
    return int(hwm.split()[1]) / 1024


def closed_loop(port, stream):
    """Sends every request of the stream over SERVE_CONNS connections,
    each sending its next request when the previous answer is complete.
    Returns (stream wall s, [(latency s, raw answer)])."""
    answers = [None] * len(stream)
    order = iter(range(len(stream)))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            t0 = time.perf_counter()
            try:
                raw = sweep(port, stream[i]["body"])
            except OSError as e:
                raw = repr(e).encode()
            answers[i] = (time.perf_counter() - t0, raw)

    t0 = time.perf_counter()
    clients = [threading.Thread(target=client) for _ in range(SERVE_CONNS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    return time.perf_counter() - t0, answers


def serve_pass(run, stream, k):
    cache_dir = run.path(f"serve-{k}")
    proc, port, setup = start_server(run, cache_dir)
    try:
        wall, answers = closed_loop(port, stream)
    finally:
        rss = stop_server(proc)
        run.servers.remove(proc)
    shutil.rmtree(cache_dir, ignore_errors=True)
    responses = []
    for _, raw in answers:
        try:
            responses.append(checks.parse_sweep(raw))
        except checks.BadResponse as e:
            responses.append(str(e))
    return {"wall": wall, "setup": setup, "rss": rss,
            "latency": [lat for lat, _ in answers], "responses": responses}


def check_serve(run, stream, passes, seed):
    """Counts failed requests: a bad answer, a repeat whose points differ
    from its original's, an answer that differs from the first pass's,
    or a sampled point Simulation::run does not reproduce."""
    bad = [set() for _ in passes]
    first = passes[0]["responses"]
    for p, rec in enumerate(passes):
        for i, (req, resp) in enumerate(zip(stream, rec["responses"])):
            try:
                if isinstance(resp, str):
                    raise checks.BadResponse(resp)
                checks.check_answer(req["body"], resp)
                if req["cls"] == "hit":
                    orig = rec["responses"][req["of"]]
                    if isinstance(orig, str) or not checks.same_points(resp["points"], orig["points"]):
                        raise checks.BadResponse("repeat differs from its original")
                if p > 0 and (isinstance(first[i], str)
                              or not checks.same_points(resp["points"], first[i]["points"])):
                    raise checks.BadResponse("answer differs from the first pass")
            except checks.BadResponse as e:
                log(f"request {i} (pass {p}): {e}")
                bad[p].add(i)
    for i in verify_sample(run, stream, first, seed):
        log(f"request {i}: Simulation::run does not reproduce a sampled point")
        bad[0].add(i)
    run.count(len(stream) * len(passes), sum(len(b) for b in bad))


def verify_sample(run, stream, responses, seed):
    """Re-computes VERIFY_SAMPLE seeded-random points of fresh requests;
    returns the indices of requests whose point did not reproduce."""
    rng = reqgen.SplitMix64(seed ^ 0x5EED_CAFE)
    fresh = [i for i, r in enumerate(stream) if r["cls"] == "miss" and not isinstance(responses[i], str)]
    picks = []
    lines = []
    for _ in range(min(VERIFY_SAMPLE, len(fresh))):
        i = fresh[rng.below(len(fresh))]
        req = json.loads(stream[i]["body"])
        point = responses[i]["points"][rng.below(len(responses[i]["points"]))]
        picks.append(i)
        lines.append(json.dumps({"soc": req["soc"], "frames": req["frames"], **point}))
    if not lines:
        return set()
    path = run.path("verify.jsonl")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    res = tracer("verify", "--points", path)
    return {picks[k] for k in res["bad"]}


def serve_sweep(run, args):
    stream = reqgen.stream(args.seed, SERVE_REQUESTS)
    passes = timed_passes(args.seconds, lambda k: serve_pass(run, stream, k), min_passes=2)
    setups = [p["setup"] for p in passes]
    while len(setups) < SETUP_REPS:
        proc, _, setup = start_server(run, run.path(f"setup-{len(setups)}"))
        stop_server(proc)
        run.servers.remove(proc)
        setups.append(setup)
    check_serve(run, stream, passes, args.seed)

    points = [len(reqgen.grid(r["body"])) for r in stream]
    lat = {"hit": [], "miss": []}
    served_from_cache = 0
    for rec in passes:
        for req, latency, resp in zip(stream, rec["latency"], rec["responses"]):
            lat[req["cls"]].append(latency * 1e3)
            served_from_cache += not isinstance(resp, str) and resp["cache_misses"] == 0
    ok = [(lat_s, resp) for rec in passes for lat_s, resp in zip(rec["latency"], rec["responses"])
          if not isinstance(resp, str)]
    run.report.update({
        "setup_s": stats.median(setups),
        "wall_s": stats.median([p["wall"] for p in passes]),
        "peak_rss_mb": stats.median([p["rss"] for p in passes]),
        "points_per_s": stats.median([sum(points) / p["wall"] for p in passes]),
        "pass_walls": [p["wall"] for p in passes],
        "requests": len(stream),
        "req_miss_p50_ms": stats.median(lat["miss"]),
        "req_miss_p90_ms": stats.p90(lat["miss"]),
        "req_miss_n": len(lat["miss"]),
        "req_hit_p50_ms": stats.median(lat["hit"]),
        "req_hit_p90_ms": stats.p90(lat["hit"]),
        "req_hit_n": len(lat["hit"]),
        "repeat_share_planned": reqgen.PLANNED_REPEAT_SHARE,
        "repeat_share_measured": served_from_cache / (len(stream) * len(passes)),
        "sweep_ms": stats.median([r["wall_ms"] for _, r in ok]) if ok else 0.0,
        "http_ms": stats.median([s * 1e3 - r["wall_ms"] for s, r in ok]) if ok else 0.0,
    })
    if args.trace:
        reqs = run.path("requests.jsonl")
        with open(reqs, "wb") as f:
            f.write(b"\n".join(r["body"] for r in stream) + b"\n")
        res = tracer("serve", "--requests", reqs, "--cache-dir", run.path("traced-cache"),
                     "--conns", str(SERVE_CONNS), "--spans", spans_path(args))
        check_replay(run, passes[0]["responses"], res["answers"])
        return res, passes
    return None, passes


def check_replay(run, responses, answers):
    """The traced replay must answer every request as the server did."""
    bad = 0
    for i, (resp, ans) in enumerate(zip(responses, answers)):
        if isinstance(resp, str) or isinstance(ans, str) or [
            [p["exec_time_us"], p["mean_response_us"]] for p in resp["points"]
        ] != ans:
            log(f"request {i}: traced replay differs from the server's answer")
            bad += 1
    run.count(len(answers), bad + abs(len(responses) - len(answers)))


# --- output ---------------------------------------------------------------


def spans_path(args):
    return os.path.join(ROOT, ".bench_traces", f"{args.workload}-seed{args.seed}.jsonl")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def per_layer(run, traced, passes):
    metrics = dict(traced["metrics"])
    serve = run.report.get("req_hit_p50_ms") is not None
    for name in ("sweep_ms", "http_ms", "req_miss_p50_ms", "req_miss_p90_ms", "req_hit_p50_ms",
                 "req_hit_p90_ms", "repeat_share_measured"):
        metrics[f"serve.{name}"] = run.report[name] if serve else 0.0
    untraced = stats.median([p["wall"] for p in passes])
    metrics["trace.overhead_frac"] = traced["traced_s"] / untraced - 1
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "exp"))
            and os.path.isdir(os.path.join(ROOT, "results"))):
        log("run.py: run me from the root of a blitzcoin checkout (no Cargo.toml, crates/ "
            "or results/ here)")
        return 2

    run = Run(os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}"))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        info = tracer("info")
        meta = metadata(args.workload, args, info)
        os.makedirs(run.work)
        traced, passes = {"regen_full_cold": regen_full_cold, "regen_quick_warm": regen_quick_warm,
                          "serve_sweep": serve_sweep}[args.workload](run, args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1
    finally:
        for proc in run.servers:
            proc.kill()
            proc.wait()
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass

    run.report["failed_frac"] = stats.failed_frac(run.failed, run.attempted)
    print("meta: " + json.dumps(meta))
    print("report: " + json.dumps(run.report))
    if args.trace:
        values = per_layer(run, traced, passes)
        units = declared("per_layer")
    else:
        values = {k: run.report[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "points_per_s")}
        units = declared("end_to_end")
    if set(values) != set(units):
        log(f"run.py: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
        return 1
    unreported = sorted(k for k, v in values.items() if v is None)
    if unreported:
        log(f"run.py: too few samples to report {unreported}")
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
