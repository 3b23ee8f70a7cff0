"""In-memory span tracer that wraps covfn's layer functions from outside.

Nothing in covfn is edited: ``Tracer.install`` replaces each traced
function in every covfn module that binds it (and ``numpy.linalg.eigh``)
with a wrapper that records a span, and ``uninstall`` puts the originals
back.  Spans nest through a stack, so a span's parent is the span that was
open when it started; spans of one CLI invocation share an op id.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

_COVFN_MODULES = ("covfn.cli", "covfn.estimators", "covfn.experiments",
                  "covfn.sampling")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an op's root span
    op: int
    count: float = 0.0  # layer-specific work count (normals, matrices, bytes)


def _file_bytes(path, *args, **kwargs):
    return float(os.path.getsize(path))


def _normals(self, *shape):
    return float(math.prod(shape))


def _matrices(a, *args, **kwargs):
    return float(math.prod(np.shape(a)[:-2]))


# (module, attribute, span name, counter), installed through ``rebind``.
_TARGETS = (
    ("covfn.cli", "load_data_csv", "cli.load_data_csv", _file_bytes),
    ("covfn.cli", "load_config", "cli.load_config", _file_bytes),
    ("covfn.cli", "table_to_csv", "cli.render", None),
    ("covfn.cli", "table_to_json", "cli.render", None),
    ("covfn.estimators", "bias_reduced_estimate",
     "estimators.bias_reduced_estimate", None),
    ("covfn.estimators", "sigma_f", "estimators.sigma_f", None),
    ("covfn.sampling", "sample_covariance", "sampling.sample_covariance", None),
    ("covfn.sampling", "gaussian_sample", "sampling.gaussian_sample", None),
    ("covfn.experiments", "run_coverage", "experiments.run_coverage", None),
)


def rebind(mod_name, attr, new) -> list[tuple]:
    """Bind ``new`` in place of ``mod_name.attr`` in every covfn module that
    binds the same object; returns (owner, attr, original) undo entries."""
    original = getattr(sys.modules[mod_name], attr)
    undo = []
    for mod in (sys.modules[m] for m in _COVFN_MODULES):
        if vars(mod).get(attr) is original:
            undo.append((mod, attr, original))
            setattr(mod, attr, new)
    return undo


class Tracer:
    """Collects spans in memory; ``op`` opens the root span of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            count = counter(*args, **kwargs) if counter else 0.0
            idx = len(spans)
            spans.append(Span(name, time.perf_counter(), math.nan,
                              stack[-1] if stack else -1, self._op, count))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = time.perf_counter()

        return traced

    def install(self):
        for mod_name, attr, name, counter in _TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._undo += rebind(mod_name, attr,
                                 self._wrap(original, name, counter))
        rng = sys.modules["covfn.sampling"].RngStream
        for owner, attr, name, counter in (
            (rng, "__post_init__", "sampling.rngstream", None),
            (rng, "standard_normal", "sampling.draw", _normals),
            (np.linalg, "eigh", "linalg.eigh", _matrices),
        ):
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as the root span ``cli.run_cli`` of op ``op_id``."""
        self._op = op_id
        return self._wrap(fn, "cli.run_cli", None)(*args)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
