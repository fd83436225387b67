"""Tests of the benchmark's own helpers: request generator, statistics,
correctness checks, and BENCHMARK.json's shape.

    python3 -m unittest discover -s perfbench
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import tempfile  # noqa: E402
import unittest  # noqa: E402

import checks  # noqa: E402
import reqgen  # noqa: E402
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


class RequestStream(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        a = reqgen.stream(42, 90)
        b = reqgen.stream(42, 90)
        self.assertEqual([r["body"] for r in a], [r["body"] for r in b])
        self.assertEqual([(r["cls"], r["of"]) for r in a], [(r["cls"], r["of"]) for r in b])

    def test_other_seed_gives_other_requests(self):
        a = reqgen.stream(1, 30)
        b = reqgen.stream(2, 30)
        self.assertNotEqual([r["body"] for r in a], [r["body"] for r in b])

    def test_pinned_first_request(self):
        # Guards the generator against silent drift: a change here changes
        # every serve_sweep input, so it must be deliberate.
        self.assertEqual(
            reqgen.stream(7, 1)[0]["body"],
            b'{"version":1,"soc":"6x6","frames":1,"managers":["BC","BC-C","C-RR","TS","PT",'
            b'"Static"],"budgets_mw":[300.0,600.0],"seeds":[837153010,36052587]}',
        )

    def test_shape(self):
        reqs = reqgen.stream(3, 300)
        hits = [r for r in reqs if r["cls"] == "hit"]
        self.assertEqual(len(hits), 100)
        self.assertAlmostEqual(len(hits) / len(reqs), reqgen.PLANNED_REPEAT_SHARE)
        seeds = []
        for i, r in enumerate(reqs):
            self.assertEqual(len(reqgen.grid(r["body"])), 24)
            if r["cls"] == "hit":
                orig = reqs[r["of"]]
                self.assertEqual(orig["cls"], "miss")
                self.assertLess(r["of"], i)
                self.assertEqual(r["body"], orig["body"])
            else:
                seeds += json.loads(r["body"])["seeds"]
        self.assertEqual(len(seeds), len(set(seeds)), "fresh requests must never reuse a seed")

    def test_grid_order_is_managers_then_budgets_then_seeds(self):
        body = reqgen.stream(5, 1)[0]["body"]
        req = json.loads(body)
        g = reqgen.grid(body)
        self.assertEqual(g[0], (req["managers"][0], req["budgets_mw"][0], req["seeds"][0]))
        self.assertEqual(g[1], (req["managers"][0], req["budgets_mw"][0], req["seeds"][1]))
        self.assertEqual(g[-1], (req["managers"][-1], req["budgets_mw"][-1], req["seeds"][-1]))


class Stats(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.p90(list(range(99))))
        self.assertEqual(stats.p90(list(range(100))), 89)
        xs = list(range(200))
        self.assertEqual(stats.p90(xs), 179)
        self.assertEqual(len([x for x in xs if x > stats.p90(xs)]), 20)
        self.assertIsNone(stats.p90([]))

    def test_p90_ignores_input_order(self):
        xs = [float(x) for x in range(150)]
        self.assertEqual(stats.p90(xs), stats.p90(list(reversed(xs))))

    def test_failed_frac(self):
        self.assertEqual(stats.failed_frac(0, 29), 0.0)
        self.assertEqual(stats.failed_frac(3, 12), 0.25)
        for failed, attempted in ((0, 0), (5, 4), (-1, 3)):
            with self.assertRaises(ValueError):
                stats.failed_frac(failed, attempted)


def manifest(figs):
    return [{"id": i, "claims": [{"holds": h} for h in holds], "outputs": outs}
            for i, holds, outs in figs]


class RegenChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.reference = {"a.csv": b"x,y\n1,2\n", "b.csv": b"k\n3\n"}
        for name, data in self.reference.items():
            with open(os.path.join(self.dir, name), "wb") as f:
                f.write(data)
        self.manifest = manifest([("e1", [True], [f"{self.dir}/a.csv"]),
                                  ("e2", [True, True], [f"{self.dir}/b.csv"])])

    def tearDown(self):
        self.tmp.cleanup()

    def failures(self):
        bad = checks.csv_mismatches(self.dir, self.reference)
        return checks.regen_failures(self.manifest, ["e1", "e2"], bad)

    def test_clean_pass(self):
        self.assertEqual(self.failures(), [])
        self.assertEqual(checks.claims(self.manifest), (3, 3))

    def test_altered_csv_fails_its_experiment(self):
        with open(os.path.join(self.dir, "b.csv"), "wb") as f:
            f.write(b"k\n4\n")
        self.assertEqual(self.failures(), ["e2"])

    def test_missing_csv_fails(self):
        os.remove(os.path.join(self.dir, "a.csv"))
        self.assertEqual(self.failures(), ["e1"])

    def test_unowned_mismatch_is_still_counted(self):
        self.reference["c.csv"] = b"nobody writes this\n"
        self.assertEqual(self.failures(), ["e1"])

    def test_failed_claim_fails_its_experiment(self):
        self.manifest[1]["claims"][1]["holds"] = False
        self.assertEqual(self.failures(), ["e2"])
        self.assertEqual(checks.claims(self.manifest), (2, 3))

    def test_missing_experiment_fails(self):
        del self.manifest[0]
        self.assertEqual(self.failures(), ["e1"])


def answer(body, exec_times=None, hits=0):
    points = [
        {"manager": m, "budget_mw": b, "seed": s,
         "exec_time_us": (exec_times or {}).get(k, 100.0 + k), "mean_response_us": 0.5,
         "cache_hit": hits > 0}
        for k, (m, b, s) in enumerate(reqgen.grid(body))
    ]
    resp = {"version": 1, "points": points, "cache_hits": hits,
            "cache_misses": len(points) - hits, "wall_ms": 1.0}
    lines = [json.dumps({"type": "progress", "done": 1, "total": len(points)}),
             json.dumps({"type": "result", "response": resp})]
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n"
            + "\n".join(lines).encode() + b"\n")


class ServeChecks(unittest.TestCase):
    def setUp(self):
        self.body = reqgen.stream(9, 1)[0]["body"]

    def test_good_answer(self):
        resp = checks.parse_sweep(answer(self.body))
        checks.check_answer(self.body, resp)

    def test_http_error_is_rejected(self):
        with self.assertRaises(checks.BadResponse):
            checks.parse_sweep(b"HTTP/1.1 400 Bad Request\r\n\r\n{\"error\": \"x\"}")

    def test_error_line_is_rejected(self):
        raw = b"HTTP/1.1 200 OK\r\n\r\n" + json.dumps({"type": "error", "error": "boom"}).encode()
        with self.assertRaises(checks.BadResponse):
            checks.parse_sweep(raw)

    def test_truncated_answer_is_rejected(self):
        with self.assertRaises(checks.BadResponse):
            checks.parse_sweep(answer(self.body)[:-40])

    def test_reordered_points_are_rejected(self):
        resp = checks.parse_sweep(answer(self.body))
        resp["points"][0], resp["points"][1] = resp["points"][1], resp["points"][0]
        with self.assertRaises(checks.BadResponse):
            checks.check_answer(self.body, resp)

    def test_missing_point_is_rejected(self):
        resp = checks.parse_sweep(answer(self.body))
        resp["points"].pop()
        with self.assertRaises(checks.BadResponse):
            checks.check_answer(self.body, resp)

    def test_hit_miss_counts_must_add_up(self):
        resp = checks.parse_sweep(answer(self.body))
        resp["cache_hits"] = 1
        with self.assertRaises(checks.BadResponse):
            checks.check_answer(self.body, resp)

    def test_repeat_comparison_ignores_only_the_hit_flag(self):
        orig = checks.parse_sweep(answer(self.body))["points"]
        repeat = checks.parse_sweep(answer(self.body, hits=24))["points"]
        self.assertTrue(checks.same_points(orig, repeat))
        altered = checks.parse_sweep(answer(self.body, exec_times={5: 99.0}, hits=24))["points"]
        self.assertFalse(checks.same_points(orig, altered))


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json stays inside the limits its consumers accept."""

    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in b["workloads"]]
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in b["end_to_end"] + b["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_workloads_match_run_py(self):
        import run

        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
