"""Smoke test of the benchmark at its smallest sizes.

    python3 bench/smoke.py

For each workload, two ``--tiny`` runs with one seed must verify every
set, report every end-to-end metric of BENCHMARK.json with its unit, and
agree on ``out_digest``; one traced ``--tiny`` run must report every
per-layer metric.  Tracing a function the library lacks must fail with
the function's name.  Exits nonzero at the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def fail(message: str) -> None:
    raise SystemExit(f"smoke: FAIL {message}")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    detail = json.loads(lines[-2].removeprefix("# detail "))
    return detail, json.loads(lines[-1])


def check_result(result: dict, specs: list, where: str) -> None:
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: not every set verified: {result}")
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"{where}: metric {spec['name']} [{spec['unit']}] missing or mis-united: {got}")


def check_missing_target() -> None:
    import workloads  # noqa: F401  (puts the library sources on the path)
    from tracing import MissingTarget, Tracer

    try:
        Tracer().install([("fp", "no_such_function", (), None, None)])
    except MissingTarget as exc:
        if "vreslab.fp.no_such_function" not in str(exc):
            fail(f"missing-target error does not name the function: {exc}")
    else:
        fail("tracing a missing function did not fail")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        first, result = run(workload, 0)
        check_result(result, spec["end_to_end"], workload)
        if result["metrics"]["verified_frac"]["value"] != 1:
            fail(f"{workload}: fail_frac is not 0")
        second, _ = run(workload, 0)
        if first["out_digest"] != second["out_digest"]:
            fail(f"{workload}: out_digest differs between two runs of one seed")
        traced, result = run(workload, 1)
        check_result(result, spec["per_layer"], f"{workload} traced")
        if traced["out_digest"] != first["out_digest"]:
            fail(f"{workload}: tracing changed the outputs")
        print(f"smoke: ok {workload} ({first['sets']} sets, digest {first['out_digest'][:12]})")
    check_missing_target()
    print("smoke: ok missing traced function fails by name")
    return 0


if __name__ == "__main__":
    sys.exit(main())
