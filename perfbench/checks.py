"""Correctness checks on the program's outputs. Each returns what failed,
so run.py can count every failure against the operations attempted
(one experiment, or one request)."""

import json
import os

import reqgen


def read_csvs(directory):
    """{file name: bytes} of every CSV directly under `directory`."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), "rb") as f:
                out[name] = f.read()
    return out


def csv_mismatches(out_dir, reference):
    """Names of reference CSVs that `out_dir` lacks or holds with other
    bytes."""
    bad = set()
    for name, want in reference.items():
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as f:
                if f.read() != want:
                    bad.add(name)
        except OSError:
            bad.add(name)
    return bad


def regen_failures(manifest, expected_ids, bad_csvs):
    """Experiments of one regen pass that failed: a claim did not hold,
    an output CSV mismatched, or the experiment is missing from the
    manifest. A mismatched CSV no experiment claims as an output fails
    the pass's first experiment, so it is never lost."""
    by_id = {fig["id"]: fig for fig in manifest}
    failed = set()
    owned = set()
    for exp_id in expected_ids:
        fig = by_id.get(exp_id)
        if fig is None:
            failed.add(exp_id)
            continue
        outs = {os.path.basename(o) for o in fig["outputs"] if o.endswith(".csv")}
        owned |= outs
        if not all(c["holds"] for c in fig["claims"]) or outs & bad_csvs:
            failed.add(exp_id)
    if bad_csvs - owned and expected_ids:
        failed.add(expected_ids[0])
    return sorted(failed)


def claims(manifest):
    """(claims held, claims checked) over a manifest."""
    all_claims = [c for fig in manifest for c in fig["claims"]]
    return sum(1 for c in all_claims if c["holds"]), len(all_claims)


class BadResponse(Exception):
    pass


def parse_sweep(raw):
    """The `response` object of a raw HTTP sweep answer (status line,
    headers, ndjson progress lines, one result line)."""
    head, sep, payload = raw.partition(b"\r\n\r\n")
    if not sep or b" 200 " not in head.split(b"\r\n", 1)[0]:
        raise BadResponse("not an HTTP 200 answer")
    lines = [line for line in payload.split(b"\n") if line.strip()]
    if not lines:
        raise BadResponse("empty answer")
    try:
        last = json.loads(lines[-1])
    except ValueError as e:
        raise BadResponse(f"unparseable result line: {e}") from None
    if last.get("type") != "result" or "response" not in last:
        raise BadResponse(f"last line is not a result: {lines[-1][:200]!r}")
    return last["response"]


def check_answer(body, resp):
    """Raises BadResponse unless `resp` answers request `body`: one point
    per grid cell, in grid order, with hits and misses adding up."""
    want = reqgen.grid(body)
    points = resp.get("points")
    if not isinstance(points, list) or len(points) != len(want):
        raise BadResponse("wrong number of points")
    for p, (manager, budget, seed) in zip(points, want):
        if (p.get("manager"), p.get("budget_mw"), p.get("seed")) != (manager, budget, seed):
            raise BadResponse(f"point out of grid order: {p}")
        if not isinstance(p.get("exec_time_us"), (int, float)) or p["exec_time_us"] <= 0:
            raise BadResponse(f"point without an execution time: {p}")
    if resp.get("cache_hits", -1) + resp.get("cache_misses", -1) != len(want):
        raise BadResponse("cache hits and misses do not add up to the grid")


def without_hit_flags(points):
    return [{k: v for k, v in p.items() if k != "cache_hit"} for p in points]


def same_points(a, b):
    """Whether two answers carry the same points apart from `cache_hit`."""
    return without_hit_flags(a) == without_hit_flags(b)
