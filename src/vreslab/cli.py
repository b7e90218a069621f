"""Command-line experiment harness.

Every randomized command requires an explicit --seed; identical
(command, seed, prime) always produce byte-identical primary output.
Timestamps and runtimes appear only in the JSONL log (--log), never in
the primary output, so outputs stay diffable.  Exit codes: 0 success, 1
asserted property failed (a JSON failure report is emitted), 2 usage.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .betti import (
    DirtyBoundary,
    betti_numbers,
    betti_window,
    mrc_check,
    point_presentation,
)
from .diffcalc import alternating_betti_from_hilbert
from .fp import DEFAULT_PRIME, FieldPrime
from .points import WindowTooSmall, hilbert_matrix, hilbert_window, random_points
from .vres import (
    REFERENCE_TRIM_31,
    NotInRegularity,
    euler_quadrant_check,
    intersect_vres,
    intersect_window,
    pair_vres,
    predicted_pair_shape,
)


def derive_seed(master: int, *parts) -> int:
    """Split a master seed into an independent, replayable stream."""
    text = "/".join(str(x) for x in (master,) + parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(),
                          "big")


def bidegree(text: str):
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected i,j") from None
    if i < 0 or j < 0:
        raise argparse.ArgumentTypeError("expected i,j >= 0")
    return (i, j)


def _resolve_prime(parser, args) -> int:
    """The working prime: --prime, else VRES_PRIME, else the default."""
    if args.prime is not None:
        value = args.prime
    else:
        value = os.environ.get("VRES_PRIME") or DEFAULT_PRIME
    try:
        return FieldPrime(int(value)).p
    except ValueError as exc:
        parser.error(f"invalid prime {value!r}: {exc}")


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _append_log(path, record):
    if not path:
        return
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _log_record(args, command, verdicts, started, **extra):
    rec = {"timestamp": time.time(),
           "runtime_ms": int((time.perf_counter() - started) * 1000),
           "command": command,
           "seed": getattr(args, "seed", None),
           "n": getattr(args, "n", None),
           "m": getattr(args, "m", None),
           "N": getattr(args, "N", None),
           "p": args.prime,
           "verdicts": verdicts,
           "artifacts": [p for p in (args.out,) if p]}
    rec.update(extra)
    return rec


def _fail(args, report) -> int:
    _emit(json.dumps({"failures": report}, sort_keys=True), args.out)
    return 1


def cmd_points(args) -> int:
    started = time.perf_counter()
    ps = random_points(args.n, args.m, args.N, seed=args.seed, p=args.prime,
                       require_generic=True)
    _emit(ps.to_json(), args.out)
    _append_log(args.log, _log_record(args, "points", {"generated": True},
                                      started, rejections=ps.rejections))
    return 0


def cmd_hilbert(args) -> int:
    started = time.perf_counter()
    ps = random_points(args.n, args.m, args.N, seed=args.seed, p=args.prime,
                       require_generic=True)
    win = args.window or hilbert_window(args.N, args.n, args.m)
    _emit(hilbert_matrix(ps, win).to_csv().rstrip("\n"), args.out)
    _append_log(args.log, _log_record(args, "hilbert", {"computed": True},
                                      started, window=list(win)))
    return 0


def cmd_dh(args) -> int:
    started = time.perf_counter()
    ps = random_points(args.n, args.m, args.N, seed=args.seed, p=args.prime,
                       require_generic=True)
    win = args.window or hilbert_window(args.N, args.n, args.m)
    dh = alternating_betti_from_hilbert(hilbert_matrix(ps, win), args.n, args.m)
    _emit(dh.to_csv().rstrip("\n"), args.out)
    _append_log(args.log, _log_record(args, "dh", {"computed": True},
                                      started, window=list(win)))
    return 0


def cmd_betti(args) -> int:
    started = time.perf_counter()
    ps = random_points(args.n, args.m, args.N, seed=args.seed, p=args.prime,
                       require_generic=True)
    win = args.window or betti_window(args.N, args.n, args.m)
    bt = betti_numbers(point_presentation(ps, win))
    _emit(bt.to_json(), args.out)
    _append_log(args.log, _log_record(args, "betti",
                                      {"boundary_clean": bt.boundary_clean},
                                      started, window=list(win)))
    return 0


def _mrc_trial(spec):
    N, trial, master, p = spec
    seed = derive_seed(master, N, trial)
    ps = random_points(1, 2, N, seed=seed, p=p, require_generic=True)
    rep = mrc_check(ps)
    return {"N": N, "trial": trial, "seed": seed, "passed": rep.passed,
            "rejections": ps.rejections,
            "mismatches": [list(d) for d in rep.mismatches]}


def cmd_mrc(args) -> int:
    started = time.perf_counter()
    specs = [(N, t, args.seed, args.prime)
             for N in range(args.nmin, args.nmax + 1)
             for t in range(args.trials)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_mrc_trial, specs))
    else:
        records = [_mrc_trial(s) for s in specs]
    for rec in records:
        _append_log(args.log, _log_record(args, "mrc", {"passed": rec["passed"]},
                                          started, **rec))
    failures = [r for r in records if not r["passed"]]
    summary = {"nmin": args.nmin, "nmax": args.nmax, "trials": args.trials,
               "total": len(records), "passed": len(records) - len(failures),
               "failed": failures}
    if failures:
        return _fail(args, summary)
    _emit(json.dumps(summary, sort_keys=True), args.out)
    return 0


def cmd_vres_intersect(args) -> int:
    started = time.perf_counter()
    ps = random_points(args.n, args.m, args.N, seed=args.seed, p=args.prime,
                       require_generic=True)
    window = args.window or intersect_window(args.N, args.t, args.n, args.m)
    try:
        try:
            bt, length = intersect_vres(ps, args.t, window=window)
        except DirtyBoundary:
            # one deterministic retry on a doubled window
            window = (2 * window[0], 2 * window[1])
            bt, length = intersect_vres(ps, args.t, window=window)
    except (DirtyBoundary, AssertionError) as exc:
        return _fail(args, [{"error": type(exc).__name__, "detail": str(exc)}])
    payload = {"length": length, "table": json.loads(bt.to_json())}
    _emit(json.dumps(payload, sort_keys=True), args.out)
    _append_log(args.log, _log_record(args, "vres-intersect",
                                      {"length_ok": length == args.n + args.m},
                                      started, t=args.t))
    return 0


def cmd_vres_pair(args) -> int:
    started = time.perf_counter()
    ps = random_points(args.n, args.m, args.N, seed=args.seed, p=args.prime,
                       require_generic=True)
    try:
        shape = pair_vres(ps, args.d, window=args.window)
    except NotInRegularity as exc:
        return _fail(args, [{"error": "NotInRegularity", "detail": str(exc)}])
    euler = euler_quadrant_check(shape, args.N, args.n, args.m)
    if not euler:
        return _fail(args, [{"error": "EulerQuadrant",
                             "detail": "alternating piece count misses N"}])
    _emit(shape.to_json(), args.out)
    _append_log(args.log, _log_record(args, "vres-pair",
                                      {"euler_quadrant": euler},
                                      started, d=list(args.d)))
    return 0


def cmd_regress(args) -> int:
    started = time.perf_counter()
    mismatches = []
    checks = 0
    if args.suite in ("appendix", "all"):
        for N in range(2, 12):
            seed = derive_seed(args.seed, "appendix", N)
            ps = random_points(1, 2, N, seed=seed, p=args.prime,
                               require_generic=True)
            shape = pair_vres(ps, (N - 1, 0))
            want = predicted_pair_shape(N)
            checks += 1
            if shape != want:
                mismatches.append({"suite": "appendix", "N": N,
                                   "got": json.loads(shape.to_json()),
                                   "want": json.loads(want.to_json())})
            checks += 1
            if not euler_quadrant_check(shape, N, 1, 2):
                mismatches.append({"suite": "appendix", "N": N,
                                   "error": "EulerQuadrant"})
    if args.suite in ("final", "all"):
        seed = derive_seed(args.seed, "final", 31)
        ps = random_points(1, 2, 31, seed=seed, p=args.prime,
                           require_generic=True)
        shape = pair_vres(ps, (2, 4))
        checks += 1
        if shape != REFERENCE_TRIM_31:
            mismatches.append({"suite": "final", "N": 31,
                               "got": json.loads(shape.to_json()),
                               "want": json.loads(REFERENCE_TRIM_31.to_json())})
    summary = {"suite": args.suite, "checks": checks, "mismatches": mismatches}
    _append_log(args.log, _log_record(args, "regress",
                                      {"clean": not mismatches}, started,
                                      suite=args.suite, checks=checks))
    if mismatches:
        return _fail(args, summary)
    _emit(json.dumps(summary, sort_keys=True), args.out)
    return 0


def _add_common(sp, *, window=False, points=True):
    if points:
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--m", type=int, default=2)
        sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--prime", type=int, default=None)
    if window:
        sp.add_argument("--window", type=bidegree, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--log", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vres-lab",
        description="Seeded experiments on point sets in a product of two "
                    "projective spaces: Hilbert matrices, Betti tables, and "
                    "short virtual resolutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("points", help="generate and print a seeded point set")
    _add_common(sp)
    sp.set_defaults(func=cmd_points)

    sp = sub.add_parser("hilbert", help="dimension matrix of the quotient (CSV)")
    _add_common(sp, window=True)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("dh", help="alternating difference transform (CSV)")
    _add_common(sp, window=True)
    sp.set_defaults(func=cmd_dh)

    sp = sub.add_parser("betti", help="bigraded Betti table (JSON)")
    _add_common(sp, window=True)
    sp.set_defaults(func=cmd_betti)

    sp = sub.add_parser("mrc", help="generator-layer prediction trials over a range of N")
    sp.add_argument("--nmin", type=int, default=2)
    sp.add_argument("--nmax", type=int, default=25)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--jobs", type=int, default=1)
    _add_common(sp, points=False)
    sp.set_defaults(func=cmd_mrc)

    sp = sub.add_parser("vres-intersect",
                        help="resolve the quotient by the intersected ideal")
    _add_common(sp, window=True)
    sp.add_argument("--t", type=int, required=True)
    sp.set_defaults(func=cmd_vres_intersect)

    sp = sub.add_parser("vres-pair", help="trimmed short complex at a degree")
    _add_common(sp, window=True)
    sp.add_argument("--d", type=bidegree, required=True)
    sp.set_defaults(func=cmd_vres_pair)

    sp = sub.add_parser("regress", help="stored-table regression suites")
    sp.add_argument("suite", choices=["appendix", "final", "all"])
    _add_common(sp, points=False)
    sp.set_defaults(func=cmd_regress)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.prime = _resolve_prime(parser, args)
    for flag in ("N", "nmin", "nmax"):  # point counts
        if hasattr(args, flag) and not 1 <= getattr(args, flag) < args.prime:
            parser.error(f"--{flag} must satisfy 1 <= {flag} < p = {args.prime}")
    for flag in ("n", "m"):  # projective dimensions
        if hasattr(args, flag) and getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1")
    if hasattr(args, "t") and args.t < 1:
        parser.error("--t must be >= 1")
    try:
        return args.func(args)
    except WindowTooSmall as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
