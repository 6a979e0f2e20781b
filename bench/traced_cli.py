"""Run the speclab CLI with timing wrappers around each layer's functions.

Usage: python bench/traced_cli.py TRACE_JSON speclab-arguments...

The wrappers are installed from outside the package: every speclab
module attribute bound to a traced function is rebound to its wrapper,
so calls are caught where they are looked up, including
``decomposition_check``'s call-time import of ``fd_spectrum``.  Each
wrapper records calls and self time (its span minus its child spans);
a few wrappers also count the work their layer did.  The totals go to
TRACE_JSON when the CLI returns.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

#: (defining module, function, layer) for every traced function.
TRACED = [
    ("speclab.cli", "write_outputs", "cli"),
    *[
        ("speclab.analytics", fn, "analytics")
        for fn in (
            "inequality_chain_check",
            "counting_chain_check",
            "decomposition_check",
            "sharpness_report",
            "heat_trace_check",
            "weyl_two_term_fit",
            "payne_scan",
        )
    ],
    ("speclab.analytic2d", "disk_spectrum", "analytic2d"),
    ("speclab.analytic2d", "rect_spectrum", "analytic2d"),
    ("speclab.interval1d", "interval_spectrum", "interval1d"),
    ("speclab.specfun", "bessel_j", "specfun"),
    ("speclab.specfun", "bessel_i", "specfun"),
    ("speclab.specfun", "bessel_j_prime", "specfun"),
    ("speclab.specfun", "find_root", "specfun"),
    ("speclab.fdlab.grid", "rectangle_domain", "fdlab.grid"),
    ("speclab.fdlab.grid", "lshape_domain", "fdlab.grid"),
    ("speclab.fdlab.operators", "assemble_laplacian", "fdlab.operators"),
    ("speclab.fdlab.operators", "assemble_bilaplacian_clamped", "fdlab.operators"),
    ("speclab.fdlab.solver", "solve_gevp", "fdlab.solver"),
    ("speclab.fdlab.spectrum", "fd_spectrum", "fdlab.spectrum"),
    ("speclab.fdlab.cap", "cap_spectrum", "fdlab.cap"),
]

ROOT = ("speclab.cli", "main", "cli")

#: Unit of each work counter the wrappers keep.
COUNTER_UNITS = {
    "fdlab.solver.dense_calls": "count",
    "fdlab.solver.shift_invert_calls": "count",
    "fdlab.solver.unknowns_total": "count",
    "fdlab.solver.max_residual": "rel",
    "fdlab.operators.nnz_total": "count",
    "fdlab.operators.reuse_ratio": "ratio",
    "fdlab.grid.nodes_total": "count",
    "specfun.zero_cache.hit_ratio": "ratio",
    "cli.write_outputs.bytes": "bytes",
}


class Tracer:
    """Per-function call counts and self times, plus layer work counters."""

    def __init__(self):
        self.stack: list[list] = []  # [child seconds, function key] per open span
        self.stats: dict[str, dict] = {}
        self.counters = {name: 0 for name in COUNTER_UNITS}
        self.operator_keys: set = set()

    def wrap(self, fn, key: str, layer: str):
        stat = self.stats[key] = {"layer": layer, "calls": 0, "self_s": 0.0}
        observe = getattr(self, "_after_" + key.rsplit(".", 1)[1], None)
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0, key]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += span - frame[0]
                if stack:
                    stack[-1][0] += span
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    def _after_solve_gevp(self, solution, a, *args, **kwargs):
        method = "dense" if solution.method == "dense" else "shift_invert"
        self.counters[f"fdlab.solver.{method}_calls"] += 1
        self.counters["fdlab.solver.unknowns_total"] += a.shape[0]
        worst = float(np.max(solution.residuals))
        self.counters["fdlab.solver.max_residual"] = max(
            self.counters["fdlab.solver.max_residual"], worst
        )

    def _count_operator(self, op, name, domain):
        self.counters["fdlab.operators.nnz_total"] += op.matrix.nnz
        self.operator_keys.add(
            (name, domain.h, tuple(domain.origin), domain.mask.shape, domain.mask.tobytes())
        )

    def _after_assemble_laplacian(self, op, domain, bc, *args, **kwargs):
        self._count_operator(op, f"laplacian-{getattr(bc, 'value', bc)}", domain)

    def _after_assemble_bilaplacian_clamped(self, op, domain, *args, **kwargs):
        self._count_operator(op, "bilaplacian", domain)

    def _count_grid(self, grid, *args, **kwargs):
        # lshape_domain builds its base rectangle through rectangle_domain;
        # only the outermost builder's grid is a grid the run uses.
        if not any(key.startswith("fdlab.grid.") for _, key in self.stack):
            self.counters["fdlab.grid.nodes_total"] += grid.n_unknowns

    _after_rectangle_domain = _count_grid
    _after_lshape_domain = _count_grid

    def _after_write_outputs(self, paths, *args, **kwargs):
        self.counters["cli.write_outputs.bytes"] += sum(Path(p).stat().st_size for p in paths)

    def summary(self) -> dict:
        calls = sum(self.stats[f"fdlab.operators.{fn}"]["calls"]
                    for fn in ("assemble_laplacian", "assemble_bilaplacian_clamped"))
        specfun = importlib.import_module("speclab.specfun")
        hits = misses = 0
        for cached in (specfun.bessel_j_zero, specfun.bessel_j_prime_zero):
            info = cached.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        counters = {
            **self.counters,
            "fdlab.operators.reuse_ratio": len(self.operator_keys) / calls if calls else 0.0,
            "specfun.zero_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }
        return {"functions": self.stats, "counters": counters}


def install(tracer: Tracer):
    """Rebind every speclab reference to a traced function; returns the traced root."""
    wrapped = {}
    for module, name, layer in TRACED:
        original = getattr(importlib.import_module(module), name)
        wrapped[id(original)] = tracer.wrap(original, f"{layer}.{name}", layer)
    for module in [m for n, m in sys.modules.items() if n.startswith("speclab")]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    module, name, layer = ROOT
    return tracer.wrap(getattr(importlib.import_module(module), name), f"{layer}.{name}", layer)


def main() -> int:
    # An import statement, unlike importlib, reports to -X importtime.
    import speclab.cli  # noqa: F401

    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    root = install(tracer)
    code = root(argv)
    Path(trace_path).write_text(json.dumps(tracer.summary(), indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())
