"""Outside-in tracing of hyperex: wrappers installed from the benchmark.

`Tracer.install()` wraps every public function of the layer modules, plus the
verify suite runners and `cli.main`, and puts the wrapper at every module
binding of the function.  The modules import each other's functions by name
(verify binds surface_integral, extension binds bessel_j0, ...), so patching
only the defining module would miss those calls.

Each call records a span (name, start, end, parent span) in memory; `dump()`
writes them out when the run ends.  Four functions also count their work,
computed from the call's arguments so the counts repeat exactly:

    specfun.bessel_j0.cells          argument size x trapezoid nodes N,
                                     N = max(64, ceil(1.6 max|x|) + 48), even
    measures.surface_integral.nodes  sheet nodes of the coarse and fine grids
    measures.conv_pairing_oracle.pairs
                                     node pairs of both tensor grids, or the
                                     Monte-Carlo sample count
    measures.conv_closed.points      evaluation points
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "quadrature", "geometry", "measures", "extension",
          "functionals", "verify", "cli")


def _bessel_cells(x):
    arr = np.asarray(x, dtype=float)
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    n = max(64, int(math.ceil(1.6 * scale)) + 48)
    return arr.size * (n + n % 2)


def _sheet_node_count(d, n_radial, n_angular):
    if d == 2:
        return 2 * n_radial * n_angular
    return 2 * n_radial * max(8, n_angular // 2) * n_angular


def _surface_nodes(spec, f, quad=None):
    from hyperex.quadrature import QuadSpec

    quad = quad or QuadSpec()
    return sum(_sheet_node_count(spec.params.d, quad.n_radial * k, quad.n_angular * k)
               for k in (1, 2))


def _pairing_pairs(spec, n, g, quad=None):
    from hyperex.quadrature import QuadSpec

    quad = quad or QuadSpec()
    if quad.rule == "montecarlo":
        return quad.samples
    total = 0
    for k in (1, 2):
        nodes = _sheet_node_count(spec.params.d, max(4, quad.n_radial // 2 * k),
                                  max(8, quad.n_angular // 2 * k))
        total += nodes * nodes
    return total


def _conv_points(form, xi, tau):
    # xi is (N, d) or (d,), tau is (N,) or a scalar
    return max(np.size(tau), np.size(xi) // form.d)


COUNTERS = {
    "specfun.bessel_j0": ("cells", _bessel_cells),
    "measures.surface_integral": ("nodes", _surface_nodes),
    "measures.conv_pairing_oracle": ("pairs", _pairing_pairs),
    "measures.conv_closed": ("points", _conv_points),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, name_of=None):
        """Wrap fn; name_of(args) overrides the span name per call."""
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            if counter:
                counts[f"{label}.{counter[0]}"] += counter[1](*args, **kwargs)
            nid = self.name_ids.get(label)
            if nid is None:
                nid = self.name_ids[label] = len(self.names)
                self.names.append(label)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return traced

    def install(self) -> None:
        import hyperex
        import hyperex.cli as cli
        import hyperex.verify as verify

        modules = [sys.modules[f"hyperex.{layer}"] for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and obj is not cli.main):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        wrappers[cli.main] = self.wrap(
            "cli.main", cli.main,
            name_of=lambda args, kwargs: "cli." + _subcommand(args, kwargs))
        for suite, runner in list(verify._SUITE_RUNNERS.items()):
            verify._SUITE_RUNNERS[suite] = self.wrap(f"verify.{suite}", runner)
        for mod in [hyperex, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def summary(self) -> dict[str, float]:
        """Per name: calls, total ms, self ms (minus direct child spans)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (nid, start, end, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = 1e3 * total[name]
            out[f"{name}.self_ms"] = 1e3 * own[name]
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        """Write every span as `name,start_s,end_s,parent` (gzip CSV)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")


def _subcommand(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"
