"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each listed library function with a wrapper
that records a span (start, end, parent span) and the function's counters.
Every module attribute in ``vreslab.*`` bound to the original function is
replaced, so names imported with ``from .fp import rank`` are traced too.
A listed function that no longer exists stops the run with its name.

A span's self time is its duration minus the time covered by its child
spans.  Counters are computed outside every span: a wrapper's bookkeeping
counts as neither its own nor its caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class MissingTarget(RuntimeError):
    """A function the trace must wrap is not in the library."""


def _matrix_work(args, kwargs, add):
    # rank(a, p) / rref(a, p): entries and nonzeros of the reduced input
    a = np.asarray(args[0] if args else kwargs["a"])
    p = args[1] if len(args) > 1 else kwargs["p"]
    add("entries", int(a.size))
    add("nnz", int(np.count_nonzero(a % p)))


def _map_builds(args, kwargs, add):
    # GradedModulePresentation.map(self, var, d): a build is a memo miss
    pres, var, d = args[:3]
    add("builds", int((var, d) not in pres._maps))


def _redraws(args, kwargs, result, add):
    add("redraws", int(result.rejections))


def _sweep_cells(args, kwargs, result, add):
    ps = args[0] if args else kwargs["ps"]
    add("cells", int(result.dims.size))
    add("saturated_cells", int(np.count_nonzero(result.dims == ps.N)))


def _region_cells(args, kwargs, result, add):
    wi, wj = result.window
    add("cells", (wi + 1) * (wj + 1))


# (module, function, counters, counter computed before the call, after it)
TARGETS = [
    ("fp", "rank", ("entries", "nnz"), _matrix_work, None),
    ("fp", "rref", ("entries", "nnz"), _matrix_work, None),
    ("fp", "kernel_basis", (), None, None),
    ("fp", "subspace_intersection", (), None, None),
    ("fp", "subspace_equal", (), None, None),
    ("fp", "subspace_contains", (), None, None),
    ("cox", "mult_map", (), None, None),
    ("cox", "monomials", (), None, None),
    ("points", "random_points", ("redraws",), None, _redraws),
    ("points", "is_generic_hilbert", (), None, None),
    ("points", "function_space_bases", ("cells", "saturated_cells"), None, _sweep_cells),
    ("points", "evaluation_matrix", (), None, None),
    ("points", "ideal_piece", (), None, None),
    ("points", "decomposition_check", (), None, None),
    ("betti", "point_presentation", (), None, None),
    ("betti", "intersected_presentation", (), None, None),
    ("betti", "GradedModulePresentation.map", ("builds",), _map_builds, None),
    ("betti", "betti_numbers", ("cells",), None, _region_cells),
    ("betti", "_betti_cell", (), None, None),
    ("betti", "mrc_check", (), None, None),
    ("vres", "regularity_contains", (), None, None),
    ("vres", "pair_vres", (), None, None),
    ("vres", "intersect_vres", (), None, None),
    ("vres", "euler_quadrant_check", (), None, None),
    ("diffcalc", "dh_p1p2", (), None, None),
    ("diffcalc", "alternating_betti_from_hilbert", (), None, None),
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the trace reports, with its unit."""
    out = []
    for module, func, counters, _, _ in TARGETS:
        name = f"{module}.{func}"
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{c}", "count") for c in counters]
    out.append(("betti.betti_numbers.cert_skip_frac", "ratio"))
    return out


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # (span id, parent id or -1, name index, start, end, self time)
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, fid: int, frame: list, start: float, end: float, outer: float) -> None:
        """Close a span; ``outer`` is when its bookkeeping began."""
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((frame[0], parent[0] if parent else -1, fid,
                           start, end, end - start - frame[1]))
        if parent is not None:
            parent[1] += perf_counter() - outer

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one per set."""
        fid = self._name_index(name)
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._exit(fid, frame, start, end, start)

    def _wrap(self, name, fn, before, after):
        tracer, fid = self, self._name_index(name)

        def add(counter, value):
            key = f"{name}.{counter}"
            tracer.counters[key] = tracer.counters.get(key, 0) + value

        def traced(*args, **kwargs):
            outer = perf_counter()
            if before is not None:
                before(args, kwargs, add)
            frame = tracer._enter()
            start = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                if done and after is not None:
                    after(args, kwargs, result, add)
                tracer._exit(fid, frame, start, end, outer)
            return result

        return traced

    def install(self, targets=TARGETS) -> int:
        """Wrap every target in every binding; return the bindings replaced.

        Raises MissingTarget, naming the function, if a target is gone.
        """
        resolved = []
        for module, func, _, before, after in targets:
            try:
                home = importlib.import_module(f"vreslab.{module}")
                owner_name, _, attr = func.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                resolved.append((f"{module}.{func}", owner, attr, vars(owner)[attr],
                                 before, after))
            except (ImportError, AttributeError, KeyError):
                raise MissingTarget(
                    f"traced function vreslab.{module}.{func} does not exist") from None
        library = [m for name, m in sorted(sys.modules.items())
                   if name == "vreslab" or name.startswith("vreslab.")]
        replaced = 0
        for name, owner, attr, original, before, after in resolved:
            wrapper = self._wrap(name, original, before, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                replaced += 1
                continue
            for mod in library:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced += 1
        return replaced

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counters, by metric name."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for _, _, fid, _, _, own in self.spans:
            calls[fid] += 1
            self_s[fid] += own
        out: dict[str, float] = {}
        for module, func, counters, _, _ in TARGETS:
            name = f"{module}.{func}"
            k = self._index.get(name)
            out[f"{name}.calls"] = calls[k] if k is not None else 0
            out[f"{name}.self_s"] = self_s[k] if k is not None else 0.0
            for c in counters:
                out[f"{name}.{c}"] = self.counters.get(f"{name}.{c}", 0)
        cells = out["betti.betti_numbers.cells"]
        honest = out["betti._betti_cell.calls"]
        out["betti.betti_numbers.cert_skip_frac"] = 1 - honest / cells if cells else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as gzip'd JSON lines: a header, then one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["id", "parent", "name", "start", "end", "self"]}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
