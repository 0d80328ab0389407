"""Per-layer metrics from the spans of one traced phase.

Only spans under a benchmark operation count: the client-side
``bench.op`` roots and, on ``monitor-live``, the gateway's
``gateway.session.push`` spans, which are attached below the client
request that carried the same request id.

* A layer's **busy** time sums its outermost spans (a span nested in
  another span of the same layer is not counted twice).
* A span's **self** time is its duration minus the union of its
  children's intervals; the self times of all program layers plus the
  benchmark's own ``bench.op`` self time tile each operation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List

import numpy as np

NS = 1e-9
ROOT = "bench.op"


def percentile(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def _union_ns(intervals: List[tuple]) -> int:
    total, cursor = 0, None
    for lo, hi in sorted(intervals):
        if cursor is None or lo > cursor:
            total += hi - lo
            cursor = hi
        elif hi > cursor:
            total += hi - cursor
            cursor = hi
    return total


class SpanTree:
    """The spans under the benchmark's operations, linked across processes."""

    def __init__(self, spans: List[Dict[str, Any]]):
        by_id = {s["id"]: s for s in spans}
        requests = {
            s["request"]: s for s in spans
            if s["name"] == "gateway.client.request" and s["request"]
        }
        for s in spans:
            if s["name"] == "gateway.session.push" and s["parent"] is None:
                client = requests.get(s["request"])
                s["parent"] = client["id"] if client is not None else None
        children = defaultdict(list)
        for s in spans:
            if s["parent"] in by_id:
                children[s["parent"]].append(s)
        kept: List[Dict[str, Any]] = []
        stack = [s for s in spans if s["name"] == ROOT]
        while stack:
            span = stack.pop()
            kept.append(span)
            stack.extend(children[span["id"]])
        self.by_id = by_id
        self.children = children
        self.spans = kept

    def duration(self, span) -> int:
        return span["end"] - span["start"]

    def self_ns(self, span) -> int:
        lo, hi = span["start"], span["end"]
        covered = [
            (max(lo, c["start"]), min(hi, c["end"]))
            for c in self.children[span["id"]]
        ]
        return self.duration(span) - _union_ns(
            [(a, b) for a, b in covered if b > a]
        )

    def nested_in_same_layer(self, span) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def outermost(self, layer: str) -> List[Dict[str, Any]]:
        return [
            s for s in self.spans
            if s["name"] == layer and not self.nested_in_same_layer(s)
        ]

    def busy_s(self, layer: str) -> float:
        return sum(self.duration(s) for s in self.outermost(layer)) * NS

    def self_s(self, layer: str) -> float:
        return sum(
            self.self_ns(s) for s in self.spans if s["name"] == layer
        ) * NS

    def layers(self) -> List[str]:
        return sorted({s["name"] for s in self.spans} - {ROOT})


def layer_metrics(tree: SpanTree, units: int) -> Dict[str, float]:
    """The per-layer metrics; totals are per workload unit."""
    per = 1.0 / max(1, units)
    fits = tree.outermost("core.inpainting")
    fit_records = sum(s.get("records", 0) for s in fits)
    cell_iters = sum(s.get("cell_iters", 0) for s in fits)
    inpainting_ns = sum(tree.duration(s) for s in fits)
    server_push = {
        s["request"]: tree.duration(s) for s in tree.spans
        if s["name"] == "gateway.session.push"
    }
    requests = [
        s for s in tree.spans
        if s["name"] == "gateway.client.request" and s["request"] in server_push
    ]
    transport_ms = [
        (tree.duration(s) - server_push[s["request"]]) * NS * 1e3
        for s in requests
    ]
    monitor_ms = [
        tree.duration(s) * NS * 1e3 for s in tree.outermost("tfo.monitor.push")
    ]
    metrics = {
        "core.inpainting.busy_s": inpainting_ns * NS * per,
        "core.inpainting.self_s": tree.self_s("core.inpainting") * per,
        "core.inpainting.fit_calls": len(fits) * per,
        "core.inpainting.records_per_fit": (
            fit_records / len(fits) if fits else 0.0
        ),
        "nn.forward.busy_s": tree.busy_s("nn.forward") * per,
        "nn.backward.busy_s": tree.busy_s("nn.backward") * per,
        "nn.optim.busy_s": tree.busy_s("nn.optim") * per,
        "nn.fit.cell_iters": cell_iters * per,
        "nn.fit.ns_per_cell_iter": (
            inpainting_ns / cell_iters if cell_iters else 0.0
        ),
        "core.alignment.busy_s": tree.busy_s("core.alignment") * per,
        "core.masking.busy_s": tree.busy_s("core.masking") * per,
        "core.phase.busy_s": tree.busy_s("core.phase") * per,
        "dsp.stft.busy_s": tree.busy_s("dsp.stft") * per,
        "service.self_s": tree.self_s("service") * per,
        "tfo.spo2.busy_s": tree.busy_s("tfo.spo2") * per,
        "tfo.monitor.push_ms.p50": percentile(monitor_ms, 50),
        "tfo.monitor.push_ms.p99": percentile(monitor_ms, 99),
        "baselines.separate.calls": (
            len(tree.outermost("baselines.separate")) * per
        ),
        "baselines.separate.busy_s": (
            tree.busy_s("baselines.separate") * per
        ),
        "gateway.session.push_ms.p50": percentile(
            (ns * NS * 1e3 for ns in server_push.values()), 50
        ),
        "gateway.transport_ms.p50": percentile(transport_ms, 50),
        "gateway.wire_bytes_per_push": (
            sum(s["wire_bytes"] for s in requests) / len(requests)
            if requests else 0.0
        ),
    }
    return metrics


def exact_counts(tree: SpanTree) -> List[tuple]:
    """``(request, counts)`` per operation: the counts that must repeat
    exactly whenever the same request runs again."""
    out = []
    for root in (s for s in tree.spans if s["name"] == ROOT):
        counts: Dict[str, int] = defaultdict(int)
        stack = list(tree.children[root["id"]])
        while stack:
            span = stack.pop()
            stack.extend(tree.children[span["id"]])
            layer = span["name"]
            if layer in ("core.inpainting", "baselines.separate") \
                    and not tree.nested_in_same_layer(span):
                counts[f"{layer}.calls"] += 1
                for key in ("records", "cell_iters"):
                    if key in span:
                        counts[f"{layer}.{key}"] += span[key]
            if "wire_bytes" in span:
                counts["gateway.wire_bytes_untimed"] += (
                    span["wire_bytes"] - span["timing_bytes"]
                )
        out.append((root["request"], dict(counts)))
    return out


def attributed_s(tree: SpanTree) -> float:
    """Self time of every program layer under the operations."""
    return sum(tree.self_s(layer) for layer in tree.layers())
