"""The altknot benchmark: one workload in one single-threaded process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,laws} --seed N \\
        --seconds S --trace {0,1}

The seed makes the inputs; the library only sees the generated inputs.  Every
output is checked (closed forms, matrix laws, surgery round trips and the
recorded output digests).  The report names each metric with its unit; its
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, their times normalized to the host's speed as a reference
task measures it between items (see ``harness.SpeedProbe``); with
``--trace 1`` every item runs once untraced and once traced, and the metrics
are the per-layer ones, in wall time.
The exit code is 0 when every check passed, 1 when one failed and 2 when the
benchmark cannot run here (no ``src/altknot`` beside ``perfbench``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (REF_MS, ROOT, NullTracer, SpeedProbe, Tracer, busy_by_name,
                     percentile)

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

WORKLOADS = ("sweep", "laws")
#: ALTKNOT_MAX_V for every run, pinned so that an inherited value cannot
#: change which members the library accepts
MAX_V = 64
#: fresh processes whose set-up time is measured; the median is reported
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms.p50": "ms",
                    "item_ms.p90": "ms", "peak_rss_mb": "MB"}

#: layers whose self time is reported, per item
BUSY_LAYERS = ("polynomials.charpoly", "families.closed_form", "cli.main",
               "families.generate", "spectra.adjacency",
               "spectra.closed_path_count",
               "polynomials.power_sums_from_charpoly",
               "spectra.permutation_decompositions", "spectra.trace_strands",
               "diagram.faces", "diagram.validate", "diagram.canonical_code",
               "surgery.expand_vertex", "surgery.contract_bigon")
#: layers whose call count is reported, per item
CALL_LAYERS = ("polynomials.charpoly", "families.closed_form",
               "families.generate", "spectra.closed_path_count",
               "spectra.permutation_decompositions")
#: work counts the workloads record, reported per item
WORK_COUNTS = {"polynomials.charpoly.madds": "madd/item",
               "spectra.closed_path_count.sparse_products": "product/item",
               "spectra.permutation_decompositions.pairs": "pair/item"}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.calls": "count/item" for layer in CALL_LAYERS}
    units.update({f"{layer}.busy_s": "s/item" for layer in BUSY_LAYERS})
    units.update(WORK_COUNTS)
    units["polynomials.charpoly.coeff_bits_max"] = "bit"
    units["spectra.permutation_decompositions.pairs_per_mask"] = "pair/mask"
    units["bench.self_s"] = "s/item"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Segment:
    """Items run back to back: what ran, how long each took, what failed."""

    items: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    item_ms: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)


def run_item(wl, item, tracer, seg: Segment) -> None:
    start = time.perf_counter_ns()
    try:
        wl.run(item, tracer)
    except Exception as exc:  # a failed check or a library error: count it
        seg.failed += 1
        seg.errors.append(f"{type(exc).__name__}: {exc}")
    seg.item_ms.append((time.perf_counter_ns() - start) / 1e6)
    seg.starts.append(start / 1e9)
    seg.items.append(item)


def run_passes(wl, seconds: float, probe: SpeedProbe) -> Segment:
    """Whole passes, a new one begun while `seconds` are not up, so that
    every pass counts its members in the same proportions.  The speed probe
    runs between items whenever its last run is `probe.every_s` old, and once
    after the last item."""
    seg = Segment()
    tracer = NullTracer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for item in wl.next_pass():
            probe.maybe()
            run_item(wl, item, tracer, seg)
    probe.probe()
    return seg


def run_paired(wl, seconds: float) -> tuple[Segment, Segment, Tracer]:
    """Each item twice, untraced and traced, until `seconds` are up.

    Which of the two goes first alternates from item to item, so neither
    gets the warmer caches and both see the same machine load; the ratio
    of their summed item times is the tracing overhead.
    """
    plain, traced, tracer = Segment(), Segment(), Tracer()
    null = NullTracer()
    deadline = time.perf_counter() + seconds
    while True:
        for item in wl.next_pass():
            index = len(traced.items)
            if index >= 2 and time.perf_counter() >= deadline:
                return plain, traced, tracer
            for on in ((False, True) if index % 2 else (True, False)):
                if on:
                    tracer.begin_item(index)
                    run_item(wl, item, tracer, traced)
                    tracer.end_item()
                else:
                    run_item(wl, item, null, plain)


def _clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_seconds(args, probe: SpeedProbe) -> tuple[float, float]:
    """Median time from starting a fresh process to its first item ready,
    normalized by speed probes taken just before and after each process,
    and the same median in wall time."""
    samples, walls = [], []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            probe.probe()
        begin = time.perf_counter()
        start = _clock()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-probe"],
            cwd=CHECKOUT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: " + done.stderr.strip())
        wall = float(done.stdout.split()[-1]) - start
        end = time.perf_counter()
        for _ in range(3):
            probe.probe()
        walls.append(wall)
        samples.append(wall * probe.scale(begin, end))
    return statistics.median(samples), statistics.median(walls)


def end_to_end(seg: Segment, setup: tuple[float, float],
               probe: SpeedProbe) -> tuple[dict, list[str]]:
    scaled = [ms * probe.scale(start, start + ms / 1e3)
              for start, ms in zip(seg.starts, seg.item_ms)]
    n = len(scaled)
    p90, beyond = percentile(scaled, 90)
    wall_p90, _ = percentile(seg.item_ms, 90)
    values = {"setup_s": setup[0], "items_per_s": n / (sum(scaled) / 1e3),
              "item_ms.p50": statistics.median(scaled),
              "item_ms.p90": p90,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh processes; "
                        f"wall {setup[1]:.6g}",
             "items_per_s": f"{n} items over their summed time; "
                            f"wall {n / (sum(seg.item_ms) / 1e3):.6g}",
             "item_ms.p50": f"n={n}; wall {statistics.median(seg.item_ms):.6g}",
             "item_ms.p90": f"n={n}, {beyond} beyond"
                            + ("" if beyond >= 10 else " (fewer than ten)")
                            + f"; wall {wall_p90:.6g}",
             "peak_rss_mb": "ru_maxrss of this process"}
    lines = [f"{name:14s} {values[name]:14.6g} {unit:4s} ({notes[name]})"
             for name, unit in END_TO_END_UNITS.items()]
    return values, lines


def per_layer(plain: Segment, traced: Segment, tracer: Tracer) -> tuple[dict, list[str]]:
    n = len(traced.items)
    busy, calls = busy_by_name(tracer.spans)
    values = {f"{layer}.calls": calls.get(layer, 0) / n for layer in CALL_LAYERS}
    values.update({f"{layer}.busy_s": busy.get(layer, 0) / 1e9 / n
                   for layer in BUSY_LAYERS})
    values.update({name: tracer.counts.get(name, 0) / n for name in WORK_COUNTS})
    values["polynomials.charpoly.coeff_bits_max"] = \
        tracer.counts.get("polynomials.charpoly.coeff_bits_max", 0)
    masks = tracer.counts.get("spectra.permutation_decompositions.masks", 0)
    values["spectra.permutation_decompositions.pairs_per_mask"] = \
        tracer.counts.get("spectra.permutation_decompositions.pairs", 0) / masks \
        if masks else 0.0
    values["bench.self_s"] = busy.get(ROOT, 0) / 1e9 / n
    values["trace.overhead_ratio"] = sum(traced.item_ms) / sum(plain.item_ms)

    item_ns = sum(s[2] - s[1] for s in tracer.spans if s[0] == ROOT)
    reported_ns = busy.get(ROOT, 0) + sum(busy.get(layer, 0) for layer in BUSY_LAYERS)
    units = per_layer_units()
    lines = [f"{name:52s} {values[name]:14.6g} {units[name]}" for name in units]
    lines.append(f"layer self times + bench.self_s cover "
                 f"{reported_ns / item_ns:.6%} of traced item time "
                 f"({n} items, {len(tracer.spans)} spans)")
    return values, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "altknot" / "__init__.py").is_file():
        print(f"error: no altknot package under {SRC}", file=sys.stderr)
        return 2
    os.environ["ALTKNOT_MAX_V"] = str(MAX_V)
    sys.path.insert(0, str(SRC))
    import altknot
    import workloads
    if Path(altknot.__file__).resolve().parent != SRC / "altknot":
        print(f"error: altknot imported from {altknot.__file__}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(f"ready {_clock()!r}")
        return 0

    print(f"altknot benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; python "
          f"{platform.python_version()}, nproc {os.cpu_count()}, "
          f"ALTKNOT_MAX_V {MAX_V}")
    if args.trace:
        plain, traced, tracer = run_paired(wl, args.seconds)
        tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics, lines = per_layer(plain, traced, tracer)
        units = per_layer_units()
        segments = (plain, traced)
    else:
        probe = SpeedProbe()
        for _ in range(3):  # warm-up
            probe.probe()
        setup = setup_seconds(args, probe)
        plain = run_passes(wl, args.seconds, probe)
        metrics, lines = end_to_end(plain, setup, probe)
        lines.append(f"speed probe: {len(probe.ms)} runs of the reference task, "
                     f"median {statistics.median(probe.ms):.4g} ms, "
                     f"times scaled to {REF_MS:g} ms")
        units = END_TO_END_UNITS
        segments = (plain,)

    attempted = sum(len(seg.items) for seg in segments)
    failed = sum(seg.failed for seg in segments)
    for line in lines:
        print(line)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:g}")
    for seg in segments:
        for error in seg.errors[:5]:
            print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
