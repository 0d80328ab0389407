"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install`
replaces each layer's public function *where the caller looks it up*
(module attributes in the importing module, methods on their class)
with a wrapper that opens a span around the original call.  Nothing in
``src/`` is edited, and an untraced run installs nothing at all.

A span is a dict with ``id``, ``name`` (the layer), ``start``/``end``
(``time.perf_counter_ns``, CLOCK_MONOTONIC on Linux, so spans from the
gateway process and the client process share one clock), ``parent``,
``request`` (a record name, or ``<session id>#<push index>``) and
optional exact counts taken from call arguments and result shapes,
evaluated after the run so that counting costs no span any time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Collects spans in memory; :meth:`finalize` hands them over at the end."""

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[tuple] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """Record one span; children opened inside inherit its request."""
        parent = self._current.get()
        span_id = f"{self._pid}:{next(self._ids)}"
        if request is None and parent is not None:
            request = parent[1]
        record: Dict[str, Any] = {
            "id": span_id, "name": name,
            "parent": parent[0] if parent is not None else None,
            "request": request, "thread": threading.get_ident(),
        }
        token = self._current.set((span_id, request))
        record["start"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._current.reset(token)
            with self._lock:
                self.spans.append(record)

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        counts: Optional[Callable] = None,
        request: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr`` so every call records a ``layer`` span.

        ``counts(args, kwargs, result)`` returns exact counts stored on
        the span; ``request(args, kwargs)`` names the span's request.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            req = request(args, kwargs) if request is not None else None
            with self.span(layer, request=req) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                # Counted in finalize(), outside every span's timing.
                record["pending"] = (counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finalize(self) -> List[Dict[str, Any]]:
        """Evaluate the deferred counts; the spans, ready to write out."""
        with self._lock:
            for record in self.spans:
                pending = record.pop("pending", None)
                if pending is not None:
                    counts, args, kwargs, result = pending
                    record.update(counts(args, kwargs, result))
            return list(self.spans)


# --------------------------------------------------------------------- #
# Exact counts, from call arguments and result shapes
# --------------------------------------------------------------------- #
def _cells(magnitude) -> int:
    rows, cols = magnitude.shape
    return int(rows) * int(cols)


def _single_fit_counts(args, kwargs, result) -> Dict[str, int]:
    return {
        "records": 1,
        "cell_iters": _cells(args[0]) * len(result.losses),
    }


def _batched_fit_counts(args, kwargs, result) -> Dict[str, int]:
    return {
        "records": len(args[0]),
        "cell_iters": sum(
            _cells(mag) * len(fit.losses) for mag, fit in zip(args[0], result)
        ),
    }


def _wire_counts(args, kwargs, result) -> Dict[str, int]:
    """Request + response body bytes of one ``GatewayClient.request``.

    The request body is encoded exactly as the client encodes it, and the
    parsed response is re-encoded with the server's ``json.dumps``
    settings, which reproduces its body byte for byte (float repr
    round-trips, dict order is preserved).  A monitor update carries its
    measured ``elapsed_s``, whose text length varies from run to run;
    ``timing_bytes`` is that part, which the repeat check leaves out.
    """
    body = kwargs.get("body", args[3] if len(args) > 3 else None)
    sent = 0 if body is None else len(json.dumps(body).encode("utf-8"))
    received = 0 if result is None else len(json.dumps(result).encode("utf-8"))
    timing = 0
    if isinstance(result, dict) and "elapsed_s" in result:
        timing = len(json.dumps(result["elapsed_s"]))
    return {"wire_bytes": sent + received, "timing_bytes": timing}


class _SessionPushIds:
    """``<session id>#<push index>`` for server-side session pushes.

    Pushes of one session are serialized by the client, so counting them
    per session reproduces the client's push index.
    """

    def __init__(self):
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def __call__(self, args, kwargs) -> str:
        session_id = args[1]
        with self._lock:
            index = self._counts.get(session_id, 0)
            self._counts[session_id] = index + 1
        return f"{session_id}#{index}"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    import repro.core.dhf as dhf
    import repro.tfo.monitor as monitor
    from repro.baselines.spectral_mask import SpectralMaskingSeparator
    from repro.gateway.client import GatewayClient
    from repro.gateway.sessions import MonitorSessionManager
    from repro.nn.batchfit import BatchedSpAcLUNet
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.nn.unet import SpAcLUNet
    from repro.service.facade import SeparationService

    tracer.patch(dhf, "inpaint_spectrogram", "core.inpainting",
                 counts=_single_fit_counts)
    tracer.patch(dhf, "inpaint_spectrograms", "core.inpainting",
                 counts=_batched_fit_counts)
    tracer.patch(SpAcLUNet, "forward", "nn.forward")
    tracer.patch(BatchedSpAcLUNet, "forward", "nn.forward")
    tracer.patch(Tensor, "backward", "nn.backward")
    # The batched engine's stacked optimizer inherits Adam.step.
    tracer.patch(Adam, "step", "nn.optim")
    for name in ("unwarp", "rewarp"):
        tracer.patch(dhf, name, "core.alignment")
    tracer.patch(dhf, "build_round_masks", "core.masking")
    tracer.patch(dhf, "interpolate_phase_cyclic", "core.phase")
    for name in ("stft", "istft"):
        tracer.patch(dhf, name, "dsp.stft")
    for name in ("separate", "separate_batch"):
        tracer.patch(SeparationService, name, "service")
        tracer.patch(SpectralMaskingSeparator, name, "baselines.separate")
    for name in ("modulation_ratio_at_draws", "fit_spo2"):
        tracer.patch(monitor, name, "tfo.spo2")
    tracer.patch(monitor.SpO2Monitor, "push", "tfo.monitor.push")
    tracer.patch(MonitorSessionManager, "push", "gateway.session.push",
                 request=_SessionPushIds())
    tracer.patch(GatewayClient, "push", "gateway.client.push")
    tracer.patch(GatewayClient, "request", "gateway.client.request",
                 counts=_wire_counts)
