"""In-memory spans around the benchmark's calls into tonelab's layers.

A span is one public call (or one benchmark operation that groups calls):
name, start, end, parent span and request id. Spans stay in memory and are
written out once, when the run ends. The untraced run uses ``NullTracer``,
whose ``call`` is a plain function call, so end-to-end timings carry no
tracing cost.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import tonelab
from tonelab.errors import ToneLabError

_PACKAGE_DIR = os.path.dirname(os.path.abspath(tonelab.__file__)) + os.sep

# Layers are the modules under src/tonelab/ that the benchmark calls into.
LAYERS = ("audio_dsp", "alignment_io", "feature_builder", "trainer", "nn_core", "evaluator")


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: str
    phase: str
    name: str
    start: float
    end: float
    ok: bool

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: no spans, no clock reads."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def op(self, name, request):
        yield

    @contextmanager
    def phase(self, name):
        yield


class Tracer:
    """Records one span per call; operations (``op``) parent the calls in them."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.failures: dict[str, int] = defaultdict(int)
        self._parent: int | None = None
        self._request = ""
        self._phase = ""

    def _record(self, name, start, ok) -> Span:
        span = Span(len(self.spans), self._parent, self._request, self._phase, name,
                    start, time.perf_counter(), ok)
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except ToneLabError as exc:
            self._record(name, start, False)
            self.failures[failing_layer(exc, name)] += 1
            raise
        self._record(name, start, True)
        return out

    @contextmanager
    def op(self, name, request):
        """Group the calls of one benchmark operation under one root span."""
        start = time.perf_counter()
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        self._parent, self._request = span_id, request
        ok = False
        try:
            yield
            ok = True
        finally:
            self._parent, self._request = None, ""
            self.spans[span_id] = Span(span_id, None, request, self._phase, name,
                                       start, time.perf_counter(), ok)

    @contextmanager
    def phase(self, name):
        """Label the spans recorded inside (``inputs``, ``setup``, ``workload``, ``probe``)."""
        before = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = before

    def select(self, phase=None, name=None, layer=None) -> list[Span]:
        return [
            s for s in self.spans
            if (phase is None or s.phase == phase)
            and (name is None or s.name == name)
            and (layer is None or s.layer == layer)
        ]

    def self_seconds(self, phase: str) -> dict[str, float]:
        """Self time per layer within ``phase``, whose calls all run inside
        ops; ``bench`` is the part of each op that its calls do not cover."""
        spans = self.select(phase)
        children: dict[int, float] = defaultdict(float)
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                children[s.parent] += s.seconds
                out[s.layer] += s.seconds
        for s in spans:
            if s.parent is None:
                out["bench"] += s.seconds - children[s.span_id]
        return dict(out)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def failing_layer(exc: BaseException, called: str) -> str:
    """The tonelab module whose code raised ``exc`` (innermost frame), so an
    error raised by ``segmenter`` inside ``feature_builder`` is charged to it."""
    layer = called.split(".", 1)[0]
    tb = exc.__traceback__
    while tb is not None:
        path = os.path.abspath(tb.tb_frame.f_code.co_filename)
        if path.startswith(_PACKAGE_DIR):
            layer = path[len(_PACKAGE_DIR):].split(os.sep, 1)[0].removesuffix(".py")
        tb = tb.tb_next
    return layer
