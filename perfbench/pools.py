"""Fixed pools of generated inputs whose answers are recorded.

Random face pairings and random splittings have no closed-form answer,
so the benchmark draws them from pools generated from fixed string seeds
and compares each answer with the one recorded from the seed commit in
``data/expected.json`` (written by ``record.py``).  The workload seed only
chooses which pool entries a run uses.
"""

import json
import os
import random

import gen

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "expected.json")

PAIRING_POOL = {4: 200, 5: 120}
SPLITTING_POOL = 96
CROSS_BOUND = 5
# Library triangulations whose scaled surfaces make the scaled workload.
SCALED_BASES = ("pentachoron", "rp3", "lens-l41", "doubled")


def pairing(n, i):
    return gen.random_pairing(random.Random(f"pairing-{n}-{i}"), n)


def splitting(i):
    return gen.random_splitting(random.Random(f"splitting-{i}"))


def load():
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)


def windows(entries, slots, width=3):
    """``slots`` groups of ``width`` entries of neighbouring recorded cost.

    Slot j takes, of the runs of ``width`` neighbours that start at most
    ``width`` places below quantile (j + 1/2) / slots of the recorded CPU
    times, the run whose costs differ least in ratio.  So every seed
    draws inputs of about the same difficulty for each slot, and the
    run's cost profile, its median and its tail do not depend on the seed.
    """
    ranked = sorted(entries, key=lambda e: (e["cost"], e["index"]))
    out = []
    for j in range(slots):
        centre = int((j + 0.5) * len(ranked) / slots)
        starts = range(max(0, centre - width),
                       min(len(ranked) - width, centre) + 1)
        low = min(starts, key=lambda s: ranked[s + width - 1]["cost"]
                  / ranked[s]["cost"])
        out.append(ranked[low:low + width])
    return out
