"""Outside-in tracing of crowdmot: wrappers installed through module attributes.

Every probe replaces one function on every ``crowdmot`` module that holds it,
so the wrapper runs whichever name the caller looks up (``crowdmot.cli``
imports names directly, ``crowdmot.evaluator`` calls its own ``bev_iou``).
A wrapper records one span per call -- name, start, end, parent span and pass
id -- and may add counts computed from the call's arguments and return value.
Spans stay in memory until the run ends. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# The CLI stages a workload can call; voxelshapes is one stage per topology.
STAGES = ("gen", "targets", "track", "eval", "density", "voxel_a", "voxel_b", "voxel_c")


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_associate(counts: dict, args: tuple, kwargs: dict, result) -> None:
    dets, tracks = _arg(args, kwargs, 0, "dets"), _arg(args, kwargs, 1, "tracks")
    counts["tracker.associate.pairs"] += len(dets) * len(tracks)
    counts["tracker.associate.dets"] += len(result)
    counts["tracker.associate.matched"] += sum(1 for _, tid in result if tid is not None)


def _count_match_frame(counts: dict, args: tuple, kwargs: dict, result) -> None:
    gts, preds = _arg(args, kwargs, 0, "gts"), _arg(args, kwargs, 1, "preds")
    counts["evaluator.match_frame.pairs"] += len(gts) * len(preds)


def _count_lsa(counts: dict, args: tuple, kwargs: dict, result) -> None:
    rows, cols = np.shape(_arg(args, kwargs, 0, "cost_matrix"))
    counts["evaluator.linear_sum_assignment.cells"] += rows * cols


def _count_bev_iou(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["geometry.bev_iou.nonzero"] += result > 0.0


def _count_bytes(metric: str) -> Callable:
    def count(counts: dict, args: tuple, kwargs: dict, result) -> None:
        counts[metric] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    return count


def _count_occupied(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["sparsegrid.occupied"] += sum(row["occupied"] for row in result)


@dataclass(frozen=True)
class Probe:
    """One wrapped function: its layer, the module it is looked up on, its name."""

    layer: str
    module: str
    name: str
    count: Optional[Callable] = None

    @property
    def metric(self) -> str:
        return f"{self.layer}.{self.name}"


PROBES = (
    Probe("simulator", "crowdmot.simulator", "gen_scene"),
    Probe("simulator", "crowdmot.simulator", "_calibrate_spread"),
    Probe("simulator", "crowdmot.simulator", "_repair_separation"),
    Probe("simulator", "crowdmot.simulator", "corrupt"),
    Probe("tracker", "crowdmot.tracker", "run_sequence"),
    Probe("tracker", "crowdmot.tracker", "step"),
    Probe("tracker", "crowdmot.tracker", "associate", _count_associate),
    Probe("evaluator", "crowdmot.evaluator", "evaluate_sequence"),
    Probe("evaluator", "crowdmot.evaluator", "match_frame", _count_match_frame),
    Probe("evaluator", "crowdmot.evaluator", "_iou_matrix"),
    Probe("evaluator", "crowdmot.evaluator", "linear_sum_assignment", _count_lsa),
    Probe("evaluator", "crowdmot.evaluator", "density_stats"),
    Probe("geometry", "crowdmot.geometry", "bev_iou", _count_bev_iou),
    Probe("targets", "crowdmot.targets", "make_heatmap"),
    Probe("targets", "crowdmot.targets", "make_daw"),
    Probe("targets", "crowdmot.targets", "make_motion_offsets"),
    Probe("targets", "crowdmot.targets", "make_relationship_offsets"),
    Probe("formats", "crowdmot.formats", "write_grid", _count_bytes("formats.write_grid.bytes")),
    Probe("formats", "crowdmot.formats", "write_pgm", _count_bytes("formats.write_pgm.bytes")),
    Probe("formats", "crowdmot.formats", "read_scene_jsonl"),
    Probe("formats", "crowdmot.formats", "read_detections_jsonl"),
    Probe("formats", "crowdmot.formats", "read_trajectories_jsonl"),
    Probe("formats", "crowdmot.formats", "write_scene_jsonl"),
    Probe("formats", "crowdmot.formats", "write_detections_jsonl"),
    Probe("formats", "crowdmot.formats", "write_trajectories_jsonl"),
    Probe("formats", "crowdmot.formats", "sha256_file", _count_bytes("formats.sha256_file.bytes")),
    Probe("sparsegrid", "crowdmot.sparsegrid", "voxelize"),
    Probe("sparsegrid", "crowdmot.sparsegrid", "encoder_chain"),
    Probe("sparsegrid", "crowdmot.sparsegrid", "downsample"),
    Probe("sparsegrid", "crowdmot.sparsegrid", "fuse_hr"),
    Probe("sparsegrid", "crowdmot.sparsegrid", "fuse_ms"),
    Probe("sparsegrid", "crowdmot.sparsegrid", "topology_report", _count_occupied),
)

# Per-call latency percentiles, reported for these probes in milliseconds.
PERCENTILES = {"tracker.step": (50, 90), "evaluator.match_frame": (50, 90)}

# Counts summed per pass, reported as they are.
PLAIN_COUNTS = {
    "tracker.associate.pairs": "count",
    "evaluator.match_frame.pairs": "count",
    "evaluator.linear_sum_assignment.cells": "count",
    "formats.write_grid.bytes": "bytes",
    "formats.write_pgm.bytes": "bytes",
    "formats.sha256_file.bytes": "bytes",
    "sparsegrid.occupied": "count",
}

# Ratios reported as numerator / denominator over all traced passes.
RATIOS = {
    "tracker.associate.match_ratio": ("tracker.associate.matched", "tracker.associate.dets"),
    "geometry.bev_iou.nonzero_ratio": ("geometry.bev_iou.nonzero", "geometry.bev_iou.calls"),
}


def layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run prints: (name, unit, better)."""
    out = []
    for probe in PROBES:
        out.append((f"{probe.metric}.calls", "count", "lower"))
        out.append((f"{probe.metric}.self_s", "s", "lower"))
        for q in PERCENTILES.get(probe.metric, ()):
            out.append((f"{probe.metric}.p{q}_ms", "ms", "lower"))
    out += [(name, unit, "lower") for name, unit in PLAIN_COUNTS.items()]
    out += [(name, "ratio", "higher") for name in RATIOS]
    for stage in STAGES:
        out.append((f"cli.{stage}.self_s", "s", "lower"))
        out.append((f"cli.{stage}.wall_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("output_mb", "MB", "lower"))
    out.append(("pipeline_s", "s", "lower"))
    return out


@dataclass
class Tracer:
    """Span store for one benchmark run. ``pass_id`` tags spans with their pass."""

    spans: list = field(default_factory=list)  # [name, start, end, parent, pass_id]
    counts: dict = field(default_factory=dict)  # pass_id -> {counter: value}
    pass_id: int = 0
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def pass_counts(self) -> dict:
        return self.counts.setdefault(self.pass_id, Counter())

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        count = probe.count

        def traced(*args, **kwargs):
            span = self.open(probe.metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self.pass_counts(), args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


class Installed:
    """Probes patched into the loaded crowdmot modules; ``remove`` restores them."""

    def __init__(self, tracer: Tracer, probes=PROBES):
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        crowdmot_modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "crowdmot" or n.startswith("crowdmot."))
        ]
        for probe in probes:
            try:
                original = getattr(importlib.import_module(probe.module), probe.name, None)
            except ImportError:
                original = None
            if original is None:
                self.absent.append(probe.metric)
                continue
            wrapper = tracer.wrap(probe, original)
            for module in crowdmot_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def summarize(tracer: Tracer, absent: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, plus the sample count behind each.

    Call counts, self times and counts are per pass: self times are the median
    over traced passes, counts the value of one pass (they repeat exactly).
    """
    passes = sorted({span[4] for span in tracer.spans} | set(tracer.counts))
    selfs = self_times(tracer.spans)
    per_pass = {p: Counter() for p in passes}
    durations: dict[str, list[float]] = {name: [] for name in PERCENTILES}
    for span, self_s in zip(tracer.spans, selfs):
        name, pid = span[0], span[4]
        per_pass[pid][f"{name}.calls"] += 1
        per_pass[pid][f"{name}.self_s"] += self_s
        if name in durations:
            durations[name].append(span[2] - span[1])
    for pid, counts in tracer.counts.items():
        for key, value in counts.items():
            per_pass[pid][key] += value

    percentiles = {f"{base}.p{q}_ms": (base, q) for base, qs in PERCENTILES.items() for q in qs}
    metrics, samples = {}, {}
    for name, _, _ in layer_metrics():
        if name in ("trace.overhead_s", "output_mb", "pipeline_s") or name.endswith(".wall_s"):
            continue  # measured on the untraced passes
        if name in RATIOS:
            num, den = RATIOS[name]
            total_num = sum(per_pass[p][num] for p in passes)
            total_den = sum(per_pass[p][den] for p in passes)
            metrics[name] = total_num / total_den if total_den else 0.0
        elif name in percentiles:
            base, q = percentiles[name]
            values = durations[base]
            metrics[name] = float(np.percentile(values, q)) * 1e3 if values else 0.0
            samples[name] = len(values)
        else:
            values = [per_pass[p][name] for p in passes]
            metrics[name] = float(statistics.median(values)) if values else 0.0
            samples[name] = len(values)
    for metric in absent:
        samples[f"{metric}.calls"] = 0
    return metrics, samples
