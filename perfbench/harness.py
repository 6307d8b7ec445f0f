"""Stdlib-only machinery of the altknot benchmark.

Spans are recorded from outside the package, around each call the harness
makes into a layer.  A span is ``[name, start_ns, end_ns, parent, item]``:
``parent`` is the index of the enclosing span (``None`` for an item's root
span, named ``bench.item``) and ``item`` is the item's id.  Spans stay in
memory until the run ends.

End-to-end times are normalized to the host's speed: a `SpeedProbe` times
a fixed reference task between items, and each item's wall time is scaled
by the probes taken around it.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
import time
from collections import defaultdict

ROOT = "bench.item"

#: The reference task: 12 sparse products on a fixed 12 x 12 matrix with two
#: ones per row (steps +1 and +5 round a 12-cycle), the inner loop of the
#: library's matrix code, frozen here so that no library change moves it.
_REF_N = 12
_REF_ROWS = [[((i + 1) % _REF_N, 1), ((i + 5) % _REF_N, 1)] for i in range(_REF_N)]
#: trace(M^12): walks of 12 steps of +1 or +5 that return, 12 * sum of C(12, b)
#: over b = 0, 3, 6, 9, 12
_REF_TRACE = 16392
#: the reference task's time that normalized figures are scaled to
REF_MS = 1.0


def reference_task() -> None:
    n, rows = _REF_N, _REF_ROWS
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(12):
        power = [[sum(v * power[t][j] for t, v in rows[i]) for j in range(n)]
                 for i in range(n)]
    if sum(power[i][i] for i in range(n)) != _REF_TRACE:
        raise RuntimeError("reference task miscomputed")


class SpeedProbe:
    """The host's current speed, from the reference task timed between items.

    The host this runs on changes speed by up to two times for seconds at a
    time, alike for the library and the reference task.  An item's
    normalized time is its wall time times REF_MS over the median time of the
    probes taken within `window_s` of it: what it would have taken on a host
    where the reference task takes REF_MS.
    """

    def __init__(self, every_s: float = 0.05, window_s: float = 0.25) -> None:
        self.every_s, self.window_s = every_s, window_s
        self.starts: list[float] = []
        self.ms: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        reference_task()
        self.starts.append(start)
        self.ms.append((time.perf_counter() - start) * 1e3)

    def maybe(self) -> None:
        """Probe unless the last probe is less than `every_s` old."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.every_s:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REF_MS over the median probe time within the window around
        [start, end] (seconds on the perf_counter clock)."""
        lo = bisect.bisect_left(self.starts, start - self.window_s)
        hi = bisect.bisect_right(self.starts, end + self.window_s)
        if lo == hi:
            raise ValueError("no speed probe near the interval")
        return REF_MS / statistics.median(self.ms[lo:hi])


class NullTracer:
    """Tracing off: layer calls go straight through and counts are dropped."""

    on = False

    def call(self, name, fn, *args):
        return fn(*args)

    def add(self, name, value):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    """Tracing on: one span per layer call, counts summed per name."""

    on = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._root: int | None = None
        self._item = None

    def begin_item(self, item_id) -> None:
        self._root, self._item = len(self.spans), item_id
        self.spans.append([ROOT, time.perf_counter_ns(), None, None, item_id])

    def end_item(self) -> None:
        self.spans[self._root][2] = time.perf_counter_ns()
        self._root = self._item = None

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, time.perf_counter_ns(),
                               self._root, self._item])

    def add(self, name, value) -> None:
        self.counts[name] += value

    def peak(self, name, value) -> None:
        self.counts[name] = max(self.counts[name], value)

    def write(self, path) -> None:
        """Spans as JSON lines, after a header line naming the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(["name", "start_ns", "end_ns", "parent",
                                  "item"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def busy_by_name(spans: list[list]) -> tuple[dict[str, int], dict[str, int]]:
    """Self time (ns) and span count per span name."""
    busy: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        busy[span[0]] += own
        calls[span[0]] += 1
    return busy, calls


def percentile(samples: list[float], q: int) -> tuple[float, int]:
    """The q-th percentile, interpolated between order statistics, and the
    number of samples strictly beyond it.

    A tail percentile is worth reporting only when at least ten samples lie
    beyond it; callers print the count beside the value.
    """
    if len(samples) < 2:
        raise ValueError("a percentile needs at least two samples")
    cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return cut, sum(1 for s in samples if s > cut)


def digest(text: str) -> str:
    """Short SHA-256 of an output's text form, as stored in expected/*.json."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are checked on."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
