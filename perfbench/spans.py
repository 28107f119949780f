"""Timing spans around calls into switchmc's public functions.

``tracing(recorder)`` swaps each function in ``TIMED`` for a wrapper in
every ``switchmc`` module namespace that binds it, so calls made through the
CLI, through the package, or from one module into another are all seen.  A
wrapper only times the call: arguments and results pass through untouched,
and payoff callables are never wrapped.  The originals come back when the
``with`` block ends, so untraced operations run the unmodified program.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

# Layer (switchmc module) -> its public functions on the solve path.
TIMED = {
    "model": ("load_problem", "validate"),
    "filtering": ("solve_riccati", "build_quadrature", "effective_payoff_batch"),
    "simulate": ("calibrate_domain", "build_ensemble", "payoff_sup_on_domain"),
    "regress": ("memberships", "estimate_pmin", "empirical_coefficients", "regress_eval"),
    "dp": ("backward_induction", "value_at_origin", "simulate_policy"),
}

# Spans whose allocation peak is recorded when the recorder asks for it.
ALLOC_SPANS = ("simulate.build_ensemble", "dp.backward_induction")

MB = 1024.0 * 1024.0


class Recorder:
    """Spans and counts of one operation, kept in memory until summarized."""

    def __init__(self, measure_alloc: bool = False):
        self.measure_alloc = measure_alloc
        self.spans = []  # [name, parent index or None, seconds]
        self.stack = []
        self.rows = 0  # points passed to effective_payoff_batch
        self.alloc_peak = {}  # span name -> bytes
        self.bytes_per_path = {}  # metric name -> bytes
        self.memberships = None  # (cell ids, R) of the last memberships call

    def observe(self, name: str, args, kwargs, result) -> None:
        """Counts read off a call's arguments or result, outside its timing."""
        if name == "filtering.effective_payoff_batch":
            m_batch = kwargs["m_batch"] if "m_batch" in kwargs else args[2]
            self.rows += int(np.shape(m_batch)[0])
        elif name == "simulate.build_ensemble":
            arrays = [result.m_paths, result.y_paths]
            if result.x_paths is not None:
                arrays.append(result.x_paths)
            self.bytes_per_path["simulate.ensemble_bytes_per_path"] = (
                sum(a.nbytes for a in arrays) / result.M
            )
        elif name == "dp.backward_induction":
            surface = result[0]
            coeff_bytes = sum(
                cv.lambdas.nbytes + cv.counts.nbytes for level in surface.coeffs for cv in level
            )
            self.bytes_per_path["dp.surface_bytes_per_path"] = (
                surface.values.nbytes + coeff_bytes
            ) / surface.M
        elif name == "regress.memberships":
            basis = kwargs["basis"] if "basis" in kwargs else args[1]
            self.memberships = (result, basis.R)

    def summary(self, op_seconds: float) -> dict:
        """Per-layer totals of one operation, in seconds unless named otherwise.

        ``cli.solve_overhead_s`` is the operation's time outside every
        top-level span; ``dp.backward_induction_self_s`` is induction time not
        covered by its timed children.
        """
        out = {f"{layer}.{fn}_s": 0.0 for layer, fns in TIMED.items() for fn in fns}
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, parent, seconds in self.spans:
            out[name + "_s"] += seconds
            if parent is None:
                top += seconds
            else:
                child[parent] += seconds
        out["dp.backward_induction_self_s"] = sum(
            seconds - child[i]
            for i, (name, _, seconds) in enumerate(self.spans)
            if name == "dp.backward_induction"
        )
        out["cli.solve_overhead_s"] = op_seconds - top
        out["filtering.effective_payoff_batch_rows"] = self.rows
        out.update(self.bytes_per_path)
        for name, peak in self.alloc_peak.items():
            out[name + "_alloc_mb"] = peak / MB
        if self.memberships is not None:
            out["regress.empty_cell_frac"] = empty_cell_frac(*self.memberships)
        return out


def empty_cell_frac(cell_ids: np.ndarray, R: int) -> float:
    """Median over regression times 0..N-1 of the share of cells no path hits."""
    fracs = [
        float(np.count_nonzero(np.bincount(ids, minlength=R) == 0)) / R
        for ids in cell_ids[:-1]
    ]
    return statistics.median(fracs)


def _wrap(name: str, fn, rec: Recorder):
    alloc = rec.measure_alloc and name in ALLOC_SPANS

    def timed(*args, **kwargs):
        idx = len(rec.spans)
        rec.spans.append([name, rec.stack[-1] if rec.stack else None, 0.0])
        rec.stack.append(idx)
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.spans[idx][2] = time.perf_counter() - start
            if alloc:
                rec.alloc_peak[name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            rec.stack.pop()
        rec.observe(name, args, kwargs, result)
        return result

    return timed


@contextmanager
def tracing(rec: Recorder):
    """Route every call to a ``TIMED`` function through a timing wrapper."""
    modules = [
        m for n, m in list(sys.modules.items()) if n == "switchmc" or n.startswith("switchmc.")
    ]
    patched = []
    try:
        for layer, fns in TIMED.items():
            home = sys.modules[f"switchmc.{layer}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = _wrap(f"{layer}.{fn_name}", orig, rec)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
        yield rec
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)
