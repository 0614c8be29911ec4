"""Span recorder for the traced benchmark run.

The wrappers sit outside the program: every public callable the benchmark
hands to ``pdfp`` (operator closures, prox and smooth-term closures, schedule
sources, constructors, writers) is replaced by a closure that records one
span ``(name, parent, start, end)`` and returns the wrapped result untouched.
The program therefore computes bit-identical iterates with and without
tracing, which the benchmark checks on every traced run.
"""

import dataclasses
import time

import numpy as np


class Tracer:
    """In-memory span list; span ids are list indices, so a parent's id is
    always smaller than its children's."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._open = []

    def __len__(self):
        return len(self.names)

    def wrap(self, name, fn):
        names, parents, starts, ends, open_ = (
            self.names, self.parents, self.starts, self.ends, self._open
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(sid)
            starts[sid] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                open_.pop()

        return traced

    def wrap_fields(self, obj, prefix, fields):
        """Copy of a frozen dataclass with the named callables traced as ``prefix_field``."""
        return dataclasses.replace(
            obj, **{f: self.wrap(f"{prefix}_{f}", getattr(obj, f)) for f in fields}
        )

    def wrap_op(self, op, prefix):
        """Copy of a ``LinearOp`` whose forward/adjoint record ``prefix_fwd``/``prefix_adj``."""
        return dataclasses.replace(
            op,
            forward=self.wrap(f"{prefix}_fwd", op.forward),
            adjoint=self.wrap(f"{prefix}_adj", op.adjoint),
        )

    def table(self):
        """Arrays (names, durations, self times) over all spans so far."""
        names = np.array(self.names)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, dur, dur - child

    def under(self, roots):
        """Boolean mask: span is, or descends from, a span whose name is in ``roots``."""
        mask = np.zeros(len(self.names), dtype=bool)
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            mask[i] = name in roots or (parent >= 0 and mask[parent])
        return mask
