"""In-memory span recorder used by the traced benchmark run.

A span is ``(id, parent, name, key, start_ns, end_ns)``.  ``name`` is
``<layer>.<function>`` after the package module whose public function the
span wraps (``sim.simulate``, ``cli.write_csv``, ...); the benchmark's own
per-operation spans use the layer ``op``.  ``key`` is shared by every span
of one scenario, design or simulation config.  Spans stay in memory until
the run ends and are then written out in one file.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.recording = False
        self.key = None
        self.spans = []
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn``; while recording, record a span around the call."""
        if not self.recording:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, self.key, t0, t1)

    def patch(self, module, attr, name):
        """Route calls made inside the package through ``call``.

        Used for functions that the package calls internally (for example
        ``linalg.eigenvalues`` inside ``is_hurwitz``), so their spans nest
        under the public call that made them.  A name the module does not
        have raises ``AttributeError``, so a renamed function fails the
        traced run instead of reading as a layer that takes no time.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unpatch(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "key", "start_ns", "end_ns"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def summarize(spans):
    """Per-name inclusive durations and per-layer self time, in seconds.

    Self time of a span is its duration minus the durations of its direct
    children; a layer's self time is the sum over spans whose name starts
    with that layer.
    """
    child_total = defaultdict(int)
    for _, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child_total[parent] += t1 - t0
    durations = defaultdict(list)
    self_time = defaultdict(float)
    for sid, _, name, _, t0, t1 in spans:
        durations[name].append((t1 - t0) * 1e-9)
        self_time[name.split(".", 1)[0]] += (t1 - t0 - child_total[sid]) * 1e-9
    return durations, self_time
