"""In-memory spans recorded around calls into l1fit's public functions.

The library is not edited: ``install`` swaps each traced entry point, where
the library looks it up at call time, for a wrapper that records a span,
and ``restore`` puts the originals back.  Spans stay in memory and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from l1fit import methods, reduction, residual_solvers

# (owner, attribute or key, span name); owners are modules or dicts
ENTRY_POINTS = [
    (methods, "fit_linprog", "direct.fit_linprog"),
    (methods, "fit_perturbation", "direct.fit_perturbation"),
    (methods, "oracle_solve", "oracle.oracle_solve"),
    (methods, "fit_via_residual", "residual_solvers.fit_via_residual"),
    (residual_solvers, "fit_via_residual", "residual_solvers.fit_via_residual"),
    (residual_solvers, "reduce_problem", "reduction.reduce_problem"),
    (residual_solvers, "recover", "reduction.recover"),
    (reduction, "reduce_problem", "reduction.reduce_problem"),
] + [
    (residual_solvers.RESIDUAL_METHODS, name, f"residual_solvers.{name}")
    for name in residual_solvers.RESIDUAL_METHODS
]


class Tracer:
    """Spans with name, start, end, parent span and fit id, in seconds from creation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.fit: int | None = None
        self._stack: list[int] = []
        self._undo = []

    def open(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "fit": self.fit,
            **attrs,
        })
        self._stack.append(idx)
        return idx

    def close(self, idx: int, iters: int | None = None) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter() - self.t0
        if iters is not None:
            span["iters"] = int(iters)
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.open(name, **attrs)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        """``fn`` with a span around each call; the result's ``iterations`` is recorded."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(idx, getattr(out, "iterations", None))

        return traced

    def install(self) -> None:
        """Wrap every entry point that exists; a missing one records no spans."""
        for owner, key, name in ENTRY_POINTS:
            if isinstance(owner, dict):
                if key in owner:
                    self._undo.append((owner, key, owner[key]))
                    owner[key] = self.wrap(name, owner[key])
            elif hasattr(owner, key):
                self._undo.append((owner, key, getattr(owner, key)))
                setattr(owner, key, self.wrap(name, getattr(owner, key)))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
