"""In-memory span tracer that wraps public library functions from outside.

A span records name, start, end, parent and thread id. Spans are kept in a
list while the workload runs and written out once at the end. A worker thread
has no open span of its own when its first span starts, so that span's parent
is the innermost span open in the thread that created the tracer (for
`run_trials`, the `run_trials` span waiting on the pool).

Wrapping happens at every name under which a `compound_fsc` module holds the
function (its defining module, the modules that imported it and the package
namespace), so calls are traced whichever name the caller uses. `install`
returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

_NAME, _START, _END, _PARENT, _TID, _ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if home and tid != self._home else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), None, parent, tid, None])
        stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[_END] = time.perf_counter_ns()
        span[_ATTRS] = attrs
        self._stacks[threading.get_ident()].pop()

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; attrs(args, kwargs, result)
        returns the counters to record on it."""
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, {"raised": True})
            raise
        self._close(idx, attrs(args, kwargs, out) if attrs else None)
        return out

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        return traced

    def install(self, targets):
        """Wrap each (module, qualname, attrs) target at all its aliases;
        returns a function that puts the originals back."""
        undo = []
        modules = [m for k, m in sorted(sys.modules.items()) if k == "compound_fsc" or k.startswith("compound_fsc.")]
        for module, qualname, attrs in targets:
            home = sys.modules[f"compound_fsc.{module}"]
            span_name = f"{module}.{qualname}"
            if "." in qualname:  # a method: patch the class, which every alias shares
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span_name, orig, attrs))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(home, qualname)
            traced = self.wrap(span_name, orig, attrs)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, traced)
                        undo.append((mod, attr, orig))

        def restore():
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

        return restore

    def to_records(self) -> list[dict]:
        return [
            {"name": s[_NAME], "start_ns": s[_START], "end_ns": s[_END], "parent": s[_PARENT], "tid": s[_TID], "attrs": s[_ATTRS]}
            for s in self.spans
        ]


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the union of its child intervals, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = []
    for idx, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_a = cur_b = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append(hi - lo - covered)
    return out
