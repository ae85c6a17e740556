"""Spans around calls into bandrec's modules, recorded from outside the package.

A span is opened around every call of a traced function.  Each span knows its
parent (the innermost span open when it started), so a span's self time is its
duration minus the time covered by its child spans, and the self times of all
spans inside one root span add up to the root span's duration.  Spans are
aggregated as they close (per-name self time and calls, per parent->child call
counts), which keeps memory flat over long runs.

bandrec modules import functions by name (``reconstruct`` imports
``hermitian_eigen``; ``spectra`` and ``symbols`` import ``polarize``), so a
wrapper has to replace every binding of the function object in every bandrec
module, not only the one in the defining module.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "bench.call"

# "module.function" of every traced function on the reconstruction path.
SPANS = (
    "cli.main",
    "reconstruct.run_scenario", "reconstruct.reconstruct_bands",
    "reconstruct.compare_to_symbol", "reconstruct.detect_gaps",
    "spectra.hermitian_eigen", "spectra.localization_metrics",
    "transform.polarize", "transform.discrete_quasiperiodicity", "transform.zero_pad",
    "symbols.band_functions",
    "matrices.toeplitz_matrix", "matrices.circulant_matrix", "matrices.capacitance_1d",
    "matrices.chain_capacitance", "matrices.ssh_matrix", "matrices.dislocated_chain",
    "matrices.compact_perturbation",
    "outputs.write_bundle",
)
# Called once per grid point; a span each would cost more than the call, so
# these are only counted.
COUNTED = ("symbols.evaluate_symbol",)


def _resolve(qualname: str):
    module, _, name = qualname.rpartition(".")
    return getattr(importlib.import_module(f"bandrec.{module}"), name)


def _rebind(original, replacement, undo: list) -> None:
    """Replace every binding of `original` in the loaded bandrec modules."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bandrec" and not mod_name.startswith("bandrec."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _dense_bytes(result) -> int:
    """n^2 * itemsize of every dense matrix a matrices constructor returned."""
    mats = [result.bc, result.symmetrized] if hasattr(result, "symmetrized") else [result]
    return sum(m.data.nbytes for m in mats)


class Tracer:
    """Per-name self time and call counts for the spans of one traced run."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.edges: Counter[tuple[str, str]] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans as [name, time covered by children]

    def _enter(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame, perf_counter()

    def _exit(self, frame, start: float) -> None:
        duration = perf_counter() - start
        self._stack.pop()
        name = frame[0]
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            self.edges[(parent[0], name)] += 1

    @contextmanager
    def root(self):
        """The benchmark's own span around one reconstruction."""
        frame, start = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(frame, start)

    def _span(self, name: str, fn):
        measure_result = name.startswith("matrices.")

        def wrapper(*args, **kwargs):
            frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start)
            if measure_result:
                self.counts["matrices.dense_bytes"] += _dense_bytes(result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        undo: list = []
        try:
            for name in SPANS:
                original = _resolve(name)
                _rebind(original, self._span(name, original), undo)
            for name in COUNTED:
                original = _resolve(name)
                _rebind(original, self._counter(name, original), undo)
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)


@contextmanager
def capture_eigen(store: list):
    """Keep (matrix, decomposition) of each eigensolve reconstruct_bands makes.

    The output checks need the eigenvectors, which a ScenarioResult does not
    carry.  The capture sits on reconstruct's binding only and calls spectra's
    binding at call time, so a Tracer installed later still wraps the solve.
    """
    from bandrec import reconstruct, spectra

    original = reconstruct.hermitian_eigen

    def capture(M):
        eig = spectra.hermitian_eigen(M)
        store.append((M, eig))
        return eig

    reconstruct.hermitian_eigen = capture
    try:
        yield
    finally:
        reconstruct.hermitian_eigen = original
