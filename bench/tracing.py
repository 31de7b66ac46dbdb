"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``levbounds`` from outside the
package.  Modules bind names with ``from .x import y``, so a wrapper is
installed at every import site: each ``levbounds`` module attribute that
is the original function object is replaced, and restored afterwards.

Two kinds of wrapper exist:

  span  one record per call: name, start, end, parent span and the time
        covered by its children, kept in memory and written out at exit.
        Self time is the span's duration minus that child time.
  leaf  aggregate call count and time only, for the hot functions
        (``integrate01_product``, ``jet_mul``, ``kernel_numeric``, ...),
        so the tracing overhead stays small.  A span subtracts the leaf
        time that passed while it was open and no child span was.

Exceptions raised through a wrapper are recorded with the name of the
enclosing span and re-raised unchanged.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# (defining module, function, kind, metric name, repeat key or None)
TARGETS = (
    ("polyalg", "expand_mollifier", "leaf", "polyalg.expand", None),
    ("polyalg", "expand_twist", "leaf", "polyalg.expand", None),
    ("polyalg", "integrate01_product", "leaf", "polyalg.integrate", None),
    ("kernel", "moments", "span", "kernel.moments", lambda p1, p2: (p1, p2)),
    ("kernel", "kernel_jet", "span", "kernel.jet", lambda spec: spec),
    ("jets", "jet_mul", "leaf", "jets.mul", None),
    ("jets", "jet_extract", "leaf", "jets.extract", None),
    ("proportions", "c_value", "span", "proportions.c", None),
    ("proportions", "c1_value", "span", "proportions.c1", None),
    ("proportions", "nu_bound", "leaf", "proportions.bound", None),
    ("proportions", "kappa_bound", "leaf", "proportions.bound", None),
    ("optimizer", "optimize", "span", "optimizer.optimize", None),
    ("oracle", "kernel_numeric", "leaf", "oracle.kernel_numeric", None),
    ("oracle", "fd_c_value", "span", "oracle.fd_c", None),
    ("oracle", "fd_c1_value", "span", "oracle.fd_c1", None),
    ("oracle", "crosscheck_report", "span", "oracle.crosscheck", None),
)

# spans whose return values the summaries read
KEEP_RESULTS = ("optimizer.optimize", "oracle.crosscheck")

# span record fields: COVERED is the time covered by child spans and by
# leaves called directly; LEAF_OPEN and CHILD_LEAF are leaf-time bookkeeping
NAME, START, END, PARENT, COVERED, LEAF_OPEN, CHILD_LEAF = range(7)


class Recorder:
    """In-memory spans, leaf counters, repeat counters and failures."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {}          # name -> [calls, seconds]
        self.leaf_total = [0.0]                    # seconds in all leaves
        self.seen: dict[str, set] = {}
        self.repeats: dict[str, int] = {}
        self.failures: list[tuple[str, type, str]] = []  # (where, class, parent)
        self.results: dict[str, list] = {}        # KEEP_RESULTS name -> values
        self._installed: list[tuple[object, str, object]] = []

    # ---- recording -----------------------------------------------------

    def _parent_name(self) -> str:
        return self.spans[self.stack[-1]][NAME] if self.stack else ""

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0.0, 0.0, parent, 0.0, self.leaf_total[0], 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()
        leaf_in = self.leaf_total[0] - rec[LEAF_OPEN]
        rec[COVERED] += leaf_in - rec[CHILD_LEAF]
        if rec[PARENT] >= 0:
            parent = self.spans[rec[PARENT]]
            parent[COVERED] += rec[END] - rec[START]
            parent[CHILD_LEAF] += leaf_in

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append((name, type(exc), self._parent_of(rec)))
            raise
        finally:
            self._close(rec)

    def _parent_of(self, rec: list) -> str:
        return self.spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""

    def _note_key(self, name: str, key) -> None:
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.repeats[name] = self.repeats.get(name, 0) + 1
        else:
            seen.add(key)

    def _span_wrapper(self, name: str, fn, key):
        results = self.results.setdefault(name, []) if name in KEEP_RESULTS else None

        def wrapper(*args, **kwargs):
            if key is not None:
                self._note_key(name, key(*args, **kwargs))
            out = self.span(name, fn, *args, **kwargs)
            if results is not None:
                results.append(out)
            return out
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        acc = self.leaves.setdefault(name, [0, 0.0])
        total = self.leaf_total

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.failures.append((name, type(exc), self._parent_name()))
                raise
            finally:
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                total[0] += dt
        return wrapper

    # ---- installation --------------------------------------------------

    def install(self) -> None:
        """Replace every levbounds binding of each target by its wrapper.

        A target the package no longer defines is skipped; its metrics
        then read zero.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "levbounds" or n.startswith("levbounds."))]
        for mod_name, fn_name, kind, metric, key in TARGETS:
            home = sys.modules.get(f"levbounds.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = (self._span_wrapper(metric, original, key) if kind == "span"
                       else self._leaf_wrapper(metric, original))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # ---- summaries -----------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def inclusive(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_time(self, name: str) -> float:
        return sum(s[END] - s[START] - s[COVERED] for s in self.spans if s[NAME] == name)

    def children_of(self, parent_name: str, names: tuple[str, ...]) -> int:
        return sum(1 for s in self.spans
                   if s[NAME] in names and s[PARENT] >= 0
                   and self.spans[s[PARENT]][NAME] == parent_name)

    def repeat_frac(self, name: str) -> float:
        n = self.calls(name)
        return self.repeats.get(name, 0) / n if n else 0.0

    def leaf(self, name: str) -> tuple[int, float]:
        """(calls, seconds) of a leaf; zeros if it never ran."""
        return tuple(self.leaves.get(name, (0, 0.0)))

    def write(self, path, header: dict) -> None:
        """Write every span (name, start, end, parent) and the leaf counters."""
        t0 = self.spans[0][START] if self.spans else 0.0
        doc = dict(header,
                   fields=["name", "start_s", "end_s", "parent"],
                   spans=[[s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9),
                           s[PARENT]] for s in self.spans],
                   leaves={k: {"calls": v[0], "seconds": v[1]}
                           for k, v in self.leaves.items()})
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
