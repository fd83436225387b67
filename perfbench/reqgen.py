"""Seeded request stream for the `serve_sweep` workload.

Every request is one sweep grid of 24 points: all six managers x two
budgets x two seeds, on the 3x3 floorplan (2 frames) or the 6x6
floorplan (1 frame). Every third request repeats one of the last few
fresh grids verbatim (a planned cache hit; with two connections in a
closed loop some repeats land while the original is still in flight,
which exercises the server's coalescing). The rest carry seeds never
used before in the stream (planned misses).

The shape of the stream is fixed, so runs under different seeds do the
same amount of work: exactly one request in three is a repeat, and
fresh grids cycle 6x6, 6x6, 3x3. A 3x3 miss costs about twice a 6x6
miss, so this mix keeps the miss median inside the 6x6 mode instead of
letting it jump between the two modes from seed to seed. The seed picks
the run seeds and which recent grid each repeat copies.

The stream is a pure function of the seed: the generator uses its own
splitmix64, so the bytes never depend on the Python version.
"""

import json

PROTOCOL_VERSION = 1
MANAGERS = ["BC", "BC-C", "C-RR", "TS", "PT", "Static"]
# (floorplan preset, frames, budgets in mW), cycled over fresh grids.
GRIDS = [("6x6", 1, [300.0, 600.0]), ("6x6", 1, [300.0, 600.0]), ("3x3", 2, [60.0, 120.0])]
# Request i repeats an earlier grid when i % REPEAT_EVERY == REPEAT_EVERY - 1.
REPEAT_EVERY = 3
PLANNED_REPEAT_SHARE = 1 / REPEAT_EVERY
# Repeats pick among this many most recent fresh grids.
RECENT = 4

MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator (Steele, Lea and Flood 2014)."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n


def stream(seed, n):
    """Returns `n` requests as dicts with keys `cls` ("miss" or "hit"),
    `of` (for a hit, the index of the fresh request it repeats, else
    None) and `body` (the exact request bytes)."""
    rng = SplitMix64(seed)
    used = set()
    fresh = []
    out = []
    for i in range(n):
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            of = fresh[-1 - rng.below(min(RECENT, len(fresh)))]
            out.append({"cls": "hit", "of": of, "body": out[of]["body"]})
            continue
        soc, frames, budgets = GRIDS[len(fresh) % len(GRIDS)]
        seeds = []
        while len(seeds) < 2:
            s = rng.next() >> 33
            if s not in used:
                used.add(s)
                seeds.append(s)
        req = {
            "version": PROTOCOL_VERSION,
            "soc": soc,
            "frames": frames,
            "managers": MANAGERS,
            "budgets_mw": budgets,
            "seeds": seeds,
        }
        body = json.dumps(req, separators=(",", ":")).encode()
        fresh.append(i)
        out.append({"cls": "miss", "of": None, "body": body})
    return out


def grid(body):
    """The (manager, budget, seed) triples a request asks for, in the
    server's grid order (managers outermost, seeds innermost)."""
    req = json.loads(body)
    return [
        (m, b, s)
        for m in req["managers"]
        for b in req["budgets_mw"]
        for s in req["seeds"]
    ]
