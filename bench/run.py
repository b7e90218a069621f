#!/usr/bin/env python3
"""The vreslab benchmark: one workload, one process.

    python3 bench/run.py --workload points --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  Every set is sampled, computed and checked inside the timed
section.  Output: an ``# env`` line, a ``# detail`` line, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
sets twice, untraced and then traced, and reports the per-layer metrics
and the tracing overhead; its spans are written under ``.bench_out/``.
"""

import os

# single-threaded BLAS, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import SRC, WARMUP, WORKLOADS, plan, run_set, set_seed  # noqa: E402

import numpy as np  # noqa: E402
import vreslab  # noqa: E402
from tracing import Tracer, metric_names  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_STARTS = 5
# Interpreter speed on a shared host drifts by up to a fifth between runs a
# few minutes apart, while one run sees one speed.  Set times are therefore
# rescaled to the speed at which speed_probe() takes this long; the detail
# line keeps the measured values.
NOMINAL_PROBE_S = 0.0024

END_TO_END_UNITS = {
    "wall_s": "s",
    "set_p50_s": "s",
    "set_tail_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
    "setup_s": "s",
}


@dataclass
class Pass:
    """One pass over a run's sets, with measured times."""

    times: list
    failures: list
    digest: str
    probe_s: float

    @property
    def wall_s(self) -> float:
        return sum(self.times)

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at the nominal speed."""
        return NOMINAL_PROBE_S / self.probe_s


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work that uses no library code."""
    start = time.perf_counter()
    table = {}
    for k in range(3000):
        table[(k, k % 7)] = tuple(range(k % 5))
    sum(len(v) for v in table.values())
    return time.perf_counter() - start


def _checked(cfg, seed, prime):
    # an exception is a failed verification of that set, not a crash
    try:
        return run_set(cfg, seed, prime)
    except Exception as exc:  # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        return False, f"error:{type(exc).__name__}"


def run_sets(sets, prime, tracer=None) -> Pass:
    times, failures, probes = [], [], []
    digest = hashlib.sha256()
    for cfg, seed in sets:
        probes.append(speed_probe())
        t0 = time.perf_counter()
        with tracer.span("bench.set") if tracer else nullcontext():
            ok, canonical = _checked(cfg, seed, prime)
        times.append(time.perf_counter() - t0)
        digest.update(f"{cfg.label}|{canonical}\n".encode())
        if not ok:
            failures.append(cfg.label)
    return Pass(times, failures, digest.hexdigest(), statistics.fmean(probes))


def measure_setup(workload: str, seed: int, prime: int) -> list:
    """Seconds from a fresh interpreter to one verified warm-up set."""
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(prime)]
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed with code {done.returncode}")
    return times


def tail_percentile(count: int) -> int:
    """p90 when it leaves ten sets beyond it, else p75.

    p75 leaves ten sets beyond it from 40 sets on; for smaller runs the
    detail line shows how few lie beyond it.
    """
    return 90 if count >= 100 else 75


def percentile(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment(args) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "vreslab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "vreslab": vreslab.__version__,
        "prime": args.prime,
        "seed": args.seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def timed_run(args, sets) -> tuple[dict, dict, int, int]:
    setup = measure_setup(args.workload, args.seed, args.prime)
    run = run_sets(sets, args.prime)
    pct = tail_percentile(len(run.times))
    tail = percentile(run.times, pct)
    measured = {
        "wall_s": run.wall_s,
        "set_p50_s": statistics.median(run.times),
        "set_tail_s": tail,
    }
    values = {
        **{name: value * run.scale for name, value in measured.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "verified_frac": 1 - len(run.failures) / len(sets),
        "setup_s": statistics.median(setup),
    }
    detail = {
        "sets": len(sets),
        "tail_percentile": pct,
        "sets_beyond_tail": sum(t > tail for t in run.times),
        "setup_starts_s": setup,
        "measured": measured,
        "probe_s": run.probe_s,
        "out_digest": run.digest,
        "failures": run.failures,
    }
    return _metrics(values, END_TO_END_UNITS), detail, len(sets), len(run.failures)


def traced_run(args, sets) -> tuple[dict, dict, int, int]:
    plain = run_sets(sets, args.prime)
    tracer = Tracer()
    bindings = tracer.install()
    traced = run_sets(sets, args.prime, tracer)
    path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    values = tracer.metrics()
    traced_wall, plain_wall = traced.wall_s * traced.scale, plain.wall_s * plain.scale
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    units = dict(metric_names())
    units.update({"trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
    detail = {
        "sets": len(sets),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "measured": {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s},
        "bindings_traced": bindings,
        "spans": len(tracer.spans),
        "span_file": str(path.relative_to(ROOT)),
        "out_digest": traced.digest,
        "digest_matches_untraced": traced.digest == plain.digest,
        "failures": plain.failures + traced.failures,
    }
    failed = len(plain.failures) + len(traced.failures) + (traced.digest != plain.digest)
    return _metrics(values, units), detail, 2 * len(sets), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prime", type=int, default=vreslab.DEFAULT_PRIME)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes of every experiment, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    try:
        vreslab.FieldPrime(args.prime)
    except ValueError as exc:
        ap.error(f"--prime: {exc}")

    print("# env " + json.dumps(environment(args), sort_keys=True), flush=True)
    warm = WARMUP[args.workload]
    ok, _ = _checked(warm, set_seed(args.seed, args.workload, "warmup"), args.prime)
    if not ok:
        raise SystemExit("bench: the warm-up set failed its check")
    sets = plan(args.workload, args.seed, args.seconds, args.tiny)
    run = traced_run if args.trace else timed_run
    metrics, detail, attempted, failed = run(args, sets)
    detail = {"workload": args.workload, "seconds": args.seconds, "tiny": args.tiny, **detail}
    print("# detail " + json.dumps(detail, sort_keys=True), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
