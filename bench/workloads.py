"""The benchmark's workloads: seeded point sets, the library call made on
each, and the check of its result against the paper's closed forms or
stored tables.

Library functions are always called through their modules
(``vres.pair_vres``, not a name bound here) so that the traced run, which
replaces module attributes, sees every call the workloads make.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "vreslab" / "__init__.py").is_file():
    raise SystemExit(f"bench: vreslab sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from vreslab import betti, points, vres  # noqa: E402

# trial counts below are sized for runs of this many seconds on a 2-core
# Xeon; other run lengths scale every count, never the N values
REFERENCE_SECONDS = 30


@dataclass(frozen=True)
class Config:
    """``trials`` sets of N points in P^n x P^m run through one experiment."""

    experiment: str
    n: int
    m: int
    N: int
    trials: int

    @property
    def label(self) -> str:
        return f"{self.experiment}/{self.n},{self.m}/N={self.N}"


def _mix(experiment, n, m, trials_by_N):
    return [Config(experiment, n, m, N, t) for N, t in trials_by_N.items()]


def _each(lo, hi, trials):
    return {N: trials for N in range(lo, hi + 1)}


WORKLOADS = {
    # the two point-pipeline experiments on disjoint seeds: generator
    # prediction (criterion 4) and trimmed shapes (criteria 2 and 3)
    "points": (_mix("mrc", 1, 2, _each(2, 25, 3))
               + _mix("pair", 1, 2, _each(12, 40, 2))
               + [Config("trim31", 1, 2, 31, 1)]),
    # the few large strands dominate the wall time; the counts of the
    # cheap configurations put the median and p75 sets inside clusters of
    # similar cost ((1,1) N=6 with (1,2) N=3; the N=4 sets), not in a gap
    "intersect": (_mix("intersect", 1, 1, {2: 2, 3: 2, 4: 2, 5: 2, 6: 13, 7: 2, 8: 2})
                  + _mix("intersect", 1, 2, {2: 5, 3: 13, 4: 3, 5: 2, 6: 2, 7: 1, 8: 1})
                  + _mix("intersect", 2, 1, {2: 5, 3: 5, 4: 3, 5: 2, 6: 1, 7: 1})
                  + _mix("intersect", 2, 2, {4: 2, 5: 1, 6: 1})),
    "decomp": _mix("decomp", 1, 2, {3: 12, 4: 5, 5: 2, 6: 1}),
}

# one configuration of each experiment at its smallest sizes, for the
# smoke test
TINY = {
    "points": (_mix("mrc", 1, 2, _each(2, 6, 1))
               + _mix("pair", 1, 2, _each(12, 13, 1))
               + [Config("trim31", 1, 2, 31, 1)]),
    "intersect": (_mix("intersect", 1, 1, _each(2, 4, 1))
                  + _mix("intersect", 1, 2, _each(2, 4, 1))
                  + _mix("intersect", 2, 1, _each(2, 4, 1))
                  + _mix("intersect", 2, 2, _each(4, 4, 1))),
    "decomp": _mix("decomp", 1, 2, _each(3, 4, 1)),
}

# the set every start verifies before timing begins
WARMUP = {
    "points": Config("mrc", 1, 2, 3, 1),
    "intersect": Config("intersect", 1, 2, 3, 1),
    "decomp": Config("decomp", 1, 2, 3, 1),
}


def set_seed(master: int, *parts) -> int:
    """Independent 64-bit seed for one set, derived from the run's seed."""
    text = "/".join(str(x) for x in (master,) + parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def plan(workload: str, seed: int, seconds: int, tiny: bool = False):
    """The run's sets in order, as (config, seed) pairs.

    Configurations take turns, one trial each, so that the sets of one
    configuration spread over the whole run instead of sharing one stretch
    of the machine's speed.
    """
    configs = TINY[workload] if tiny else WORKLOADS[workload]
    scale = 1.0 if tiny else seconds / REFERENCE_SECONDS
    trials = [max(1, round(cfg.trials * scale)) for cfg in configs]
    return [(cfg, set_seed(seed, workload, cfg.label, trial))
            for trial in range(max(trials))
            for cfg, count in zip(configs, trials) if trial < count]


def _cells(table: dict) -> list:
    return sorted([i, j, int(v)] for (i, j), v in table.items())


def run_set(cfg: Config, seed: int, p: int) -> tuple[bool, str]:
    """Sample one generic set, run the experiment, check it.

    Returns whether the result matches its reference, and the sampled set
    with the result as canonical JSON.
    """
    ps = points.random_points(cfg.n, cfg.m, cfg.N, seed=seed, p=p, require_generic=True)
    ok, result = _experiment(cfg, ps)
    return ok, ps.to_json() + "|" + result


def _experiment(cfg: Config, ps) -> tuple[bool, str]:
    N = cfg.N
    if cfg.experiment == "mrc":
        rep = betti.mrc_check(ps)
        out = {"generic": rep.generic, "beta1": _cells(rep.beta1),
               "predicted": _cells(rep.predicted)}
        return rep.passed, json.dumps(out, sort_keys=True)
    if cfg.experiment == "pair":
        shape = vres.pair_vres(ps, (N - 1, 0))
        ok = (shape == vres.predicted_pair_shape(N)
              and vres.euler_quadrant_check(shape, N, cfg.n, cfg.m))
        return ok, shape.to_json()
    if cfg.experiment == "trim31":
        shape = vres.pair_vres(ps, (2, 4))
        ok = (shape == vres.REFERENCE_TRIM_31
              and vres.euler_quadrant_check(shape, N, cfg.n, cfg.m))
        return ok, shape.to_json()
    if cfg.experiment == "intersect":
        t = points.pi1_fibers(ps).ell - 1
        window = (N + 3, 4) if (cfg.n, cfg.m) == (2, 2) else None
        bt, length = vres.intersect_vres(ps, t, window=window)
        out = {"length": length, "table": json.loads(bt.to_json())}
        return length == cfg.n + cfg.m, json.dumps(out, sort_keys=True)
    if cfg.experiment == "decomp":
        ok = points.decomposition_check(ps, N - 1, (N + 3, 5))
        return ok, json.dumps(ok)
    raise ValueError(f"unknown experiment {cfg.experiment!r}")
