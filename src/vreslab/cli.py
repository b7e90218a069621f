"""Command-line experiment harness.

Every randomized command requires an explicit --seed; identical
(command, seed, prime) always produce byte-identical primary output.
Timestamps and runtimes appear only in the JSONL log (--log), never in
the primary output, so outputs stay diffable; every run that exits 0 or
1 appends its records there.  Exit codes: 0 success, 1 asserted property
failed (a JSON failure report is emitted), 2 usage.

Each ``cmd_*`` takes the parsed arguments and the point set that ``main``
sampled (None for the commands without --N) and returns (passed, payload,
records): the payload, or the failure report when it did not pass, is
text or a JSON value, and each record is a (verdicts, extra fields) pair.
``main`` alone samples, times, emits and logs.
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
from .points import (
    GenericityExhausted,
    WindowTooSmall,
    hilbert_matrix,
    hilbert_window,
    random_points,
)
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


def _csv(table) -> str:
    """An integer table as CSV: a header of column indices, then one row per i."""
    lines = ["i\\j," + ",".join(str(j) for j in range(table.shape[1]))]
    lines += [f"{i}," + ",".join(str(int(v)) for v in row)
              for i, row in enumerate(table)]
    return "\n".join(lines)


def cmd_points(args, ps):
    return True, ps.to_json(), [({"generated": True},
                                 {"rejections": ps.rejections})]


def cmd_hilbert(args, ps):
    win = args.window or hilbert_window(args.N, args.n, args.m)
    return True, _csv(hilbert_matrix(ps, win)), [({"computed": True},
                                                   {"window": list(win)})]


def cmd_dh(args, ps):
    win = args.window or hilbert_window(args.N, args.n, args.m)
    dh = alternating_betti_from_hilbert(hilbert_matrix(ps, win), args.n, args.m)
    return True, _csv(dh), [({"computed": True}, {"window": list(win)})]


def cmd_betti(args, ps):
    win = args.window or betti_window(args.N, args.n, args.m)
    bt = betti_numbers(point_presentation(ps, win))
    return True, bt.to_json(), [({"boundary_clean": bt.boundary_clean},
                                 {"window": list(win)})]


def _mrc_trial(spec):
    N, trial, master, p = spec
    seed = derive_seed(master, N, trial)
    ps = random_points(1, 2, N, seed=seed, p=p, require_generic=True)
    rep = mrc_check(ps)
    return {"N": N, "trial": trial, "seed": seed, "passed": rep.passed,
            "rejections": ps.rejections,
            "mismatches": [list(d) for d in rep.mismatches]}


def cmd_mrc(args, ps):
    specs = [(N, t, args.seed, args.prime)
             for N in range(args.nmin, args.nmax + 1)
             for t in range(args.trials)]
    # the pool starts all its workers at once, so never more than can run
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(_mrc_trial, specs))
    else:
        trials = [_mrc_trial(s) for s in specs]
    failures = [r for r in trials if not r["passed"]]
    summary = {"nmin": args.nmin, "nmax": args.nmax, "trials": args.trials,
               "total": len(trials), "passed": len(trials) - len(failures),
               "failed": failures}
    return not failures, summary, [({"passed": r["passed"]}, r) for r in trials]


def cmd_vres_intersect(args, ps):
    window = args.window or intersect_window(args.N, args.t, args.n, args.m)
    try:
        try:
            bt, length = intersect_vres(ps, args.t, window=window)
        except DirtyBoundary:
            # one deterministic retry on a doubled window
            window = (2 * window[0], 2 * window[1])
            bt, length = intersect_vres(ps, args.t, window=window)
    except (DirtyBoundary, AssertionError) as exc:
        check = "boundary_clean" if isinstance(exc, DirtyBoundary) else "length_ok"
        return (False, [{"error": type(exc).__name__, "detail": str(exc)}],
                [({check: False}, {"t": args.t})])
    payload = {"length": length, "table": json.loads(bt.to_json())}
    return True, payload, [({"length_ok": length == args.n + args.m},
                             {"t": args.t})]


def cmd_vres_pair(args, ps):
    extra = {"d": list(args.d)}
    try:
        shape = pair_vres(ps, args.d)
    except NotInRegularity as exc:
        return (False, [{"error": "NotInRegularity", "detail": str(exc)}],
                [({"in_regularity": False}, extra)])
    if not euler_quadrant_check(shape, args.N, args.n, args.m):
        return (False, [{"error": "EulerQuadrant",
                         "detail": "alternating piece count misses N"}],
                [({"euler_quadrant": False}, extra)])
    return True, shape.to_json(), [({"euler_quadrant": True}, extra)]


def cmd_regress(args, ps):
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
    return not mismatches, summary, [({"clean": not mismatches},
                                      {"suite": args.suite, "checks": checks})]


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
    _add_common(sp)
    sp.add_argument("--d", type=bidegree, required=True)
    sp.set_defaults(func=cmd_vres_pair)

    sp = sub.add_parser("regress", help="regression: N = 2..11 shapes, the 31-point trim")
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
    if hasattr(args, "trials"):  # mrc: an empty range would pass vacuously
        if args.nmax < args.nmin:
            parser.error("--nmax must be >= --nmin")
        for flag in ("trials", "jobs"):
            if getattr(args, flag) < 1:
                parser.error(f"--{flag} must be >= 1")
    started = time.perf_counter()
    try:
        ps = None
        if hasattr(args, "N"):  # the commands on one sampled set
            ps = random_points(args.n, args.m, args.N, seed=args.seed,
                               p=args.prime, require_generic=True)
        passed, out, records = args.func(args, ps)
    except (WindowTooSmall, GenericityExhausted) as exc:
        parser.error(str(exc))
    runtime_ms = int((time.perf_counter() - started) * 1000)
    if not passed:
        out = {"failures": out}
    text = out if isinstance(out, str) else json.dumps(out, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.log:
        common = {"timestamp": time.time(), "runtime_ms": runtime_ms,
                  "command": args.command, "seed": args.seed,
                  "n": getattr(args, "n", None), "m": getattr(args, "m", None),
                  "N": getattr(args, "N", None), "p": args.prime,
                  "artifacts": [args.out] if args.out else []}
        with open(args.log, "a") as fh:
            for verdicts, extra in records:
                rec = {**common, "verdicts": verdicts, **extra}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
