"""In-memory span tracing around the program's public seams.

The benchmark never edits ``src/``: it records spans by replacing module
or class attributes the program looks up at call time (for example
``KDPPServer.serve`` or ``repro.serving.server.batched_log_esp``) with
timing wrappers, and restores them afterwards.  A seam that no longer
exists is counted in :attr:`Tracer.missing` instead of failing the run,
so refactors that delete a function cannot break the benchmark.

Each span is ``(span_id, name, start, end, parent_id, rid)``: ``parent_id``
is the innermost span open on the same thread when this one started
(``-1`` for none) and ``rid`` the request id(s) the call carried.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

_ABSENT = object()


class Tracer:
    """Records spans from wrapped seams; :meth:`restore` unwraps them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: str, name: str, rid=None) -> None:
        """Wrap ``"module:Owner.attr"`` or ``"module:function"``.

        ``rid(args, kwargs)`` extracts the request id(s) stored with the
        span; it must not raise for the call shapes the program uses.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(target)
                return
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(target)
            return
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, self.traced(original, name, rid))

    def traced(self, function, name: str, rid=None):
        """``function`` wrapped so each call records one span."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            ident = rid(args, kwargs) if rid is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, ident))

        return wrapper

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def by_name(self, *names: str) -> list[tuple]:
        wanted = set(names)
        return [span for span in self.spans if span[1] in wanted]

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds per layer (the span name up to its first dot), each
        span counted as its duration minus its direct children's."""
        child_time: dict[int, float] = {}
        for span_id, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        layers: dict[str, float] = {}
        for span_id, name, start, end, _, _ in self.spans:
            layer = name.split(".", 1)[0]
            own = end - start - child_time.get(span_id, 0.0)
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def calibrate(self, calls: int = 2000) -> float:
        """Seconds one span adds to a call, measured on a no-op."""

        def noop():
            return None

        wrapped = self.traced(noop, "trace.calibration")
        tick = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - tick
        tick = time.perf_counter()
        for _ in range(calls):
            wrapped()
        cost = (time.perf_counter() - tick - plain) / calls
        self.spans = [s for s in self.spans if s[1] != "trace.calibration"]
        return max(cost, 0.0)

    def write(self, path: Path, summary: dict) -> None:
        """Write every span plus ``summary`` as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = ("id", "name", "start", "end", "parent", "rid")
        document = {
            "summary": summary,
            "self_s_by_layer": self.self_time_by_layer(),
            "missing": self.missing,
            "spans": [
                dict(zip(names, (*span[:5], _jsonable(span[5]))))
                for span in self.spans
            ],
        }
        path.write_text(json.dumps(document))


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [int(v) for v in value]
    return None if value is None else int(value)
