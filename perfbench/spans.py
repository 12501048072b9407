"""In-memory span tracer for the modinv layers.

`Tracer.install()` replaces every public function of each modinv module
(its `__all__`, or its functions without a leading underscore when it
has no `__all__`) with a wrapper that records a span, in every modinv
namespace that binds it.  Calls between modules and calls through module
globals are therefore both seen; nothing under `src/` is edited.
`uninstall()` puts the original functions back.

A call made from inside its own layer records no span (its time stays
in the caller's self time), except the calls named in KEEP, whose own
inclusive time is reported.  A span is (name, layer, start, end, parent
index, job id, ok), its times perf_counter readings.  Spans stay in
memory; `write()` dumps them as JSON lines at the end of a run.  The
reductions take durations on the clock they are given: the benchmark
passes its reference clock (speed.py).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

KEEP = ("commutant.commutant_basis", "cli.cmd_")

LAYERS = ("catalog", "fusion", "modular", "commutant", "classify", "graphs",
          "extensions", "cli")

# Per-layer metric names, in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    (f"{layer}.{stat}", unit)
    for layer in LAYERS
    for stat, unit in (("busy_s", "s"), ("calls", "count"), ("failed", "count"))
] + [
    ("commutant.basis_s", "s"),
    ("commutant.enumerate_s", "s"),
    ("commutant.scan_s", "s"),
    ("commutant.cells", "count"),
    ("commutant.rank", "count"),
    ("commutant.candidates", "count"),
    ("commutant.accepted", "count"),
    ("commutant.accept_ratio", "ratio"),
    ("commutant.y_bases", "count"),
    ("commutant.float_bases", "count"),
    ("classify.parent_scans", "count"),
    ("graphs.matched", "count"),
    ("bench.trace_overhead_s", "s"),
    ("bench.uncovered_s", "s"),
    ("bench.spans", "count"),
]


def _public_functions(mod) -> Dict[str, Callable]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = {}
    for n in names:
        obj = getattr(mod, n)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out[n] = obj
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.job: Optional[str] = None
        self._stack: List[int] = []
        self._layers: List[str] = []
        self._patches: List[tuple] = []
        self._last_basis = None
        self._start = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"modinv.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for name, fn in _public_functions(mod).items():
                wrapped[id(fn)] = self._wrap(fn, f"{layer}.{name}", layer)
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "modinv" or n.startswith("modinv."))]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and inspect.isfunction(val):
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack, layers = self.spans, self._stack, self._layers
        keep = name.startswith(KEEP)
        after = {
            "commutant.commutant_basis": self._after_basis,
            "commutant.enumerate_invariants": self._after_enumerate,
            "classify.classify_invariant": self._after_classify,
            "graphs.ade_assignment": self._after_ade,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layers and layers[-1] == layer and not keep:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            layers.append(layer)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = not (name == "cli.main" and out != 0)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                layers.pop()
                spans[idx] = (name, layer, t0, t1, parent, self.job, ok)
                if ok and after is not None:
                    after(args, kwargs, out)

        return traced

    # -- counters taken at the layer boundaries -----------------------------

    def _after_basis(self, args, kwargs, basis) -> None:
        c = self.counts
        c["commutant.cells"] += len(basis.cells)
        c["commutant.rank"] += basis.r
        c["commutant.y_bases"] += basis.kind == "Y-commutant"
        c["commutant.float_bases"] += not basis.exact
        self._last_basis = basis

    def _after_enumerate(self, args, kwargs, invs) -> None:
        # Candidate count: the product of the pivot ranges the scan walks,
        # from the basis this enumeration just computed.
        md, basis = args[0], self._last_basis
        d = md.ring.d
        total = 1 if basis.r else 0
        for l, mu in basis.pivot_cells[1:]:
            total *= int(math.floor(d[l] * d[mu] + 1e-9)) + 1
        self.counts["commutant.candidates"] += total
        self.counts["commutant.accepted"] += len(invs)

    def _after_classify(self, args, kwargs, rep) -> None:
        enumerated = kwargs.get("enumerated", args[2] if len(args) > 2 else None)
        if enumerated is not None:
            self.counts["classify.parent_scans"] += len(enumerated)

    def _after_ade(self, args, kwargs, graphs) -> None:
        self.counts["graphs.matched"] += len(graphs)

    # -- reduction ----------------------------------------------------------

    def begin_pass(self) -> None:
        self.counts.clear()
        self._start = len(self.spans)

    def end_pass(self) -> tuple:
        """The span range and counts of the pass traced since begin_pass(),
        for layer_metrics() once the run's clock is complete."""
        return (self._start, len(self.spans), dict(self.counts))

    def _times(self, lo: int, hi: int, clock: Callable[[float], float],
               only: Optional[str] = None) -> tuple:
        """Duration of each span in spans[lo:hi] and the time its direct
        children (only those named `only`, if given) cover, in the seconds
        of `clock`, which maps a perf_counter reading."""
        dur = [clock(t1) - clock(t0) for _, _, t0, t1, _, _, _ in self.spans[lo:hi]]
        child = [0.0] * len(dur)
        for i, (name, _, _, _, parent, _, _) in enumerate(self.spans[lo:hi]):
            if parent >= 0 and (only is None or name == only):
                child[parent - lo] += dur[i]
        return dur, child

    def layer_metrics(self, traced_pass: tuple, wall_s: float,
                      clock: Callable[[float], float]) -> Dict[str, float]:
        """Per-layer self time, calls, failures and counts of a pass
        returned by end_pass(), which took wall_s."""
        lo, hi, counts = traced_pass
        spans = self.spans[lo:hi]
        dur, child = self._times(lo, hi, clock)
        _, basis_child = self._times(lo, hi, clock, "commutant.commutant_basis")
        out: Dict[str, float] = defaultdict(int)
        covered = 0.0
        for i, (name, layer, _, _, parent, _, ok) in enumerate(spans):
            out[f"{layer}.busy_s"] += dur[i] - child[i]
            if parent < 0:
                covered += dur[i]
            if parent < 0 or self.spans[parent][1] != layer:
                out[f"{layer}.calls"] += 1
            out[f"{layer}.failed"] += not ok
            if name == "commutant.commutant_basis":
                out["commutant.basis_s"] += dur[i]
            elif name == "commutant.enumerate_invariants":
                out["commutant.enumerate_s"] += dur[i]
                out["commutant.scan_s"] += dur[i] - basis_child[i]
        out.update(counts)
        for name, _ in LAYER_METRICS:
            out.setdefault(name, 0)
        cand = out["commutant.candidates"]
        out["commutant.accept_ratio"] = out["commutant.accepted"] / cand if cand else 0.0
        out["bench.uncovered_s"] = wall_s - covered
        out["bench.spans"] = len(spans)
        return dict(out)

    def function_table(self, traced_pass: tuple, clock: Callable[[float], float]) -> List[tuple]:
        """(name, calls, inclusive s, self s) per traced function in a pass
        returned by end_pass()."""
        lo, hi, _ = traced_pass
        dur, child = self._times(lo, hi, clock)
        rows: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, _, _, _, _, _) in enumerate(self.spans[lo:hi]):
            r = rows[name]
            r[0] += 1
            r[1] += dur[i]
            r[2] += dur[i] - child[i]
        return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[2])

    def write(self, path: str, clock: Callable[[float], float]) -> None:
        """Spans as JSON lines: perf_counter start and end, and the same
        instants on `clock`."""
        with open(path, "w") as f:
            for i, (name, _, t0, t1, parent, job, ok) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "ref_start": clock(t0), "ref_end": clock(t1),
                                    "parent": parent if parent >= 0 else None,
                                    "job": job, "ok": ok}) + "\n")
