"""Spans and counters recorded around calls into factorfit's layers.

The tracer replaces public functions at the module attribute the caller
looks up (``srm.polar_orthogonal``, ``htfa.rbf_factor_matrix``,
``trf.solve`` ...) with wrappers that open a span, and puts every original
back on :meth:`Tracer.restore`. Spans carry their parent's index and stay
in memory until the run ends. A span's self time is its duration minus the
durations of its child spans.
"""

import dataclasses
import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from factorfit import data_io, htfa, srm, trf

_MISSING = object()


def _load_bytes(args, subject):
    grid = subject.grid
    return subject.X.nbytes + (grid.positions.nbytes if grid is not None else 0)


def _save_bytes(args, _out):
    return args[1].nbytes


# (owner, attribute the caller looks up, span name, byte counter)
LAYER_FUNCTIONS = [
    (srm, "fit", "srm.fit", None),
    (srm, "demean", "srm.demean", None),
    (srm, "init_subject", "srm.init_subject", None),
    (srm, "e_step_local", "srm.e_step_local", None),
    (srm, "e_step_global", "srm.e_step_global", None),
    (srm, "update_sigma_s", "srm.update_sigma_s", None),
    (srm, "m_step_subject", "srm.m_step_subject", None),
    (srm, "polar_orthogonal", "kernels.polar_orthogonal", None),
    (srm, "trace_ata", "kernels.trace_ata", None),
    (srm, "spd_inverse", "kernels.spd_inverse", None),
    (htfa, "fit", "htfa.fit", None),
    (htfa, "init_template", "htfa.init_template", None),
    (htfa, "local_step", "htfa.local_step", None),
    (htfa, "subsample", "htfa.subsample", None),
    (htfa, "update_weights", "htfa.update_weights", None),
    (htfa, "global_step", "htfa.global_step", None),
    (htfa, "rbf_factor_matrix", "kernels.rbf_factor_matrix", None),
    (htfa, "spd_inverse", "kernels.spd_inverse", None),
    (data_io, "load_subject", "data_io.load", _load_bytes),
    (data_io, "save_matrix", "data_io.save", _save_bytes),
]
COLLECTIVE_OPS = ("gather", "broadcast", "barrier")
SPAN_NAMES = sorted(
    {name for *_, name, _ in LAYER_FUNCTIONS}
    | {"trf.solve", "htfa.residual", "htfa.jacobian", "bench.solve"}
    | {f"collectives.{op}" for op in COLLECTIVE_OPS}
)


class Tracer:
    """Spans and counters of one traced solve."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._open = []
        self._patches = []

    @contextmanager
    def span(self, name):
        record = [name, self._open[-1] if self._open else -1, time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def traced(self, fn, name, nbytes=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            with self.span(name):
                out = fn(*args, **kwargs)
            if nbytes is not None:
                self.counts[f"{name}.bytes"] += nbytes(args, out)
            return out

        return wrapper

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self, comm):
        """Wrap every layer function and this rank's collectives."""
        for owner, attr, name, nbytes in LAYER_FUNCTIONS:
            self.patch(owner, attr, self.traced(getattr(owner, attr), name, nbytes))
        self.patch(trf, "solve", self._traced_solve(trf.solve))
        for op in COLLECTIVE_OPS:
            self.patch(comm, op, self.traced(getattr(comm, op), f"collectives.{op}"))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _traced_solve(self, solve):
        """trf.solve with counted residual/Jacobian callbacks and result tallies."""

        @functools.wraps(solve)
        def wrapper(problem, x0, config=None):
            problem = dataclasses.replace(
                problem,
                residual_fn=self.traced(problem.residual_fn, "htfa.residual"),
                jacobian_fn=(
                    None
                    if problem.jacobian_fn is None
                    else self.traced(problem.jacobian_fn, "htfa.jacobian")
                ),
            )
            self.counts["trf.solve.calls"] += 1
            with self.span("trf.solve"):
                result = solve(problem, x0, config)
            self.counts["trf.iterations"] += result.iterations
            self.counts["trf.accepted"] += len(result.accepted_costs) - 1
            self.counts[f"trf.term.{result.termination_reason}"] += 1
            return result

        return wrapper

    def self_times(self):
        """Self time per span name, after checking that spans nest.

        Every child must lie inside its parent's interval and siblings must
        not overlap, so a parent's self time is never negative; the self
        times of all spans then add up to the root spans' durations.
        """
        child_total = [0.0] * len(self.spans)
        last_end = {}
        for name, parent, start, end in self.spans:
            if end is None or end < start:
                raise RuntimeError(f"span {name} is not closed")
            if parent < 0:
                continue
            _, _, p_start, p_end = self.spans[parent]
            if start < p_start or end > p_end:
                raise RuntimeError(f"span {name} leaves its parent's interval")
            if start < last_end.get(parent, p_start):
                raise RuntimeError(f"span {name} overlaps a sibling")
            last_end[parent] = end
            child_total[parent] += end - start
        out = defaultdict(float)
        for (name, _, start, end), children in zip(self.spans, child_total):
            out[name] += (end - start) - children
        roots = sum(end - start for _, parent, start, end in self.spans if parent < 0)
        if abs(sum(out.values()) - roots) > 1e-9 * max(roots, 1.0):
            raise RuntimeError("self times do not add up to the root spans")
        return out
