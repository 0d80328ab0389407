"""The three workloads: inputs, set-up, the measured loop and its checks.

Every workload drives the public API only and receives nothing but the
inputs generated here from ``--seed``.  An operation (``Op``) is one
client-visible call; the loop records its latency, whether it failed and
a digest of its outputs, which must not change under tracing.

* ``synth-table2``: closed loop, one client, one DHF
  ``SeparationService.separate`` per Table-1 record (``msig1``-``msig5``,
  30 s).  Every record has its own alignment geometry, so every round is
  a sequential single-record ``inpaint_spectrogram`` fit.
* ``invivo-cohort``: closed loop of ``run_in_vivo_batch`` calls over two
  simulated ewes, 90 s at 740/850 nm.  A subject's two channels share
  their geometry, so every round is one stacked K=2 fit.
* ``monitor-live``: two live ``SpO2Monitor`` sessions on the HTTP
  gateway (its own process), one client thread and connection each,
  pushes due on a fixed schedule (open loop, latency timed from the due
  time).  No deep-prior fit runs; the time goes to transport, wire
  encode/decode, streaming segments and the monitor.

The f0 tracks are fixed realisations and the seed draws the rest of the
input (the sensor noise of each mixture, the SaO2 trajectory of each
ewe): a DHF fit's size follows from the f0 tracks, so the work per
record stays the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

import numpy as np

HERE = Path(__file__).resolve().parent

#: Set-ups measured before the measured loop, and as many again after
#: it; ``setup_s`` is the median of all of them, so it samples the
#: machine at both ends of the run rather than at one moment.
SETUP_REPEATS = 6
#: Record length of the DHF workloads' records, in seconds.
SYNTH_RECORD_S = 30.0
COHORT_RECORD_S = 90.0
#: Fixed f0-track realisations (see the module docstring).
SYNTH_SOURCE_SEED = 2024
COHORT_PPG_SEED = 7
#: monitor-live: pushes due per second per session (about half of one
#: session's closed-loop capacity of ~22 pushes/s), chunk size,
#: and an offline-exact streaming geometry for spectral masking at
#: 100 Hz (n_fft 1200, hop 300: overlap n_fft + hop, advance 4 hops).
PUSH_RATE_HZ = 11.0
CHUNK_SAMPLES = 100
SEGMENT_SAMPLES = 2700
OVERLAP_SAMPLES = 1500
MONITOR_WINDOW_S = 20.0
EWES = ("sheep1", "sheep2")


@dataclass
class Op:
    key: str
    latency_s: float
    ok: bool
    digest: str = ""
    lateness_s: float = 0.0
    error: str = ""


@dataclass
class Phase:
    """One measured phase: its operations and what they produced."""

    ops: List[Op]
    wall_s: float
    #: Record-equivalents separated (one channel at the stated length).
    records: float
    sdr_by_source: Dict[str, float]
    spo2_corr: Optional[float] = None
    #: Verifications outside the timed operations (stream exactness).
    checks: List[Op] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def sdr_linear(self) -> float:
        """Mean linear SDR over every (record, source) pair; the paper's
        Table-2 average row is ``10 log10`` of it."""
        return float(np.mean(10.0 ** (np.asarray(
            list(self.sdr_by_source.values())) / 10.0)))


class CheckFailed(Exception):
    """An output check failed: the operation counts as failed."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(*arrays) -> str:
    h = hashlib.sha1()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64)))
               for a in arrays)


def _timed_op(key: str, fn, tracer) -> tuple:
    """Run ``fn`` as one operation; ``(Op, result)``."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = fn()
        else:
            with tracer.span("bench.op", request=key):
                result = fn()
    except Exception as exc:  # counted as a failed operation
        return Op(key, time.perf_counter() - start, False,
                  error=f"{type(exc).__name__}: {exc}"), None
    return Op(key, time.perf_counter() - start, True), result


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, index])


def ewe_recording(name: str, duration_s: float, seed: int):
    """One simulated ewe at 100 Hz: the seed draws its SaO2 trajectory;
    its f0 tracks, drift and noise are a fixed realisation."""
    from repro.tfo.dataset import SheepRecording
    from repro.tfo.ppg import synthesize_tfo
    from repro.tfo.sao2 import SHEEP_PROFILES, blood_draw_times, sao2_trajectory

    fs = 100.0
    index = EWES.index(name)
    sao2 = sao2_trajectory(SHEEP_PROFILES[name], duration_s, fs,
                           rng=_rng(seed, index))
    signals = synthesize_tfo(
        sao2, fs, rng=_rng(COHORT_PPG_SEED, index)
    )
    draws = blood_draw_times(duration_s)
    at = np.clip((draws * fs).astype(int), 0, signals.n_samples - 1)
    return SheepRecording(name=name, signals=signals, draw_times_s=draws,
                          draw_sao2=sao2[at])


def _probe_setup(root: Path, trace: bool) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--trace", str(int(trace))],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# Closed-loop DHF workloads
# --------------------------------------------------------------------- #
class _ClosedLoop:
    """Shared loop of the two DHF workloads."""

    name = ""

    def setup(self, root: Path, trace: bool, inputs) -> List[float]:
        """Set-up times before the loop, which builds its own service."""
        return [_probe_setup(root, trace) for _ in range(SETUP_REPEATS)]

    def setup_again(self, root: Path, trace: bool, inputs) -> List[float]:
        """Set-up times after the loop."""
        return self.setup(root, trace, inputs)

    def close(self) -> None:
        """Nothing outlives a closed-loop run."""

    def units(self, phase: Phase) -> int:
        """Whole passes over the inputs (the per-layer totals' unit)."""
        return len(phase.ops) // len(self.op_keys(None))

    def run(self, inputs, seconds: float, tracer=None,
            n_ops: Optional[int] = None) -> Phase:
        """Whole passes over the inputs until ``seconds`` have passed, or
        exactly ``n_ops`` operations.  A partial pass would weigh the
        records unequally: throughput and percentiles would then depend
        on where the deadline fell in the cycle."""
        keys = self.op_keys(inputs)
        service = self.service()
        ops: List[Op] = []
        self.begin()
        start = time.perf_counter()
        try:
            while True:
                done = len(ops)
                if n_ops is not None:
                    if done >= n_ops:
                        break
                elif done and done % len(keys) == 0 and \
                        time.perf_counter() - start >= seconds:
                    break
                key = keys[done % len(keys)]
                op, result = _timed_op(
                    key, lambda: self.call(service, inputs, key), tracer
                )
                if op.ok:
                    try:
                        op.digest = self.check(inputs, key, result)
                    except CheckFailed as exc:
                        op.ok, op.error = False, f"check failed: {exc}"
                ops.append(op)
            wall = time.perf_counter() - start
        finally:
            service.close()
        return self.finish(ops, wall)


class SynthTable2(_ClosedLoop):
    name = "synth-table2"

    def make_inputs(self, seed: int, seconds: float):
        from repro.config import SCORING_BAND_HZ
        from repro.dsp.filters import bandpass_filter
        from repro.pipeline.batch import SeparationRecord
        from repro.synth import make_mixture, mixture_names
        from repro.synth.noise import white_noise

        low, high = SCORING_BAND_HZ
        records = {}
        for i, name in enumerate(mixture_names()):
            mix = make_mixture(name, duration_s=SYNTH_RECORD_S,
                               seed=SYNTH_SOURCE_SEED + i)
            noise = white_noise(
                mix.n_samples, mix.spec.noise_std,
                rng=_rng(seed, i),
            )
            records[name] = SeparationRecord(
                mixed=np.sum(list(mix.sources.values()), axis=0) + noise,
                sampling_hz=mix.sampling_hz,
                f0_tracks=mix.f0_tracks,
                name=name,
                references={
                    label: bandpass_filter(src, mix.sampling_hz, low, high)
                    for label, src in mix.sources.items()
                },
            )
        return records

    def op_keys(self, inputs) -> List[str]:
        from repro.synth import mixture_names

        return mixture_names()

    def service(self):
        from repro.config import SCORING_BAND_HZ
        from repro.dsp.filters import bandpass_filter
        from repro.service import SeparationService
        from repro.service.specs import DHFSpec

        low, high = SCORING_BAND_HZ
        return SeparationService(
            DHFSpec.from_preset("smoke"),
            postprocess=lambda est, rec: bandpass_filter(
                est, rec.sampling_hz, low, high
            ),
        )

    def begin(self) -> None:
        self._scores: Dict[str, float] = {}

    def call(self, service, inputs, key):
        return service.separate(inputs[key])

    def check(self, inputs, key, outcome) -> str:
        record = inputs[key]
        estimates = outcome.estimates
        require(set(estimates) == set(record.f0_tracks), "missing sources")
        for source, est in estimates.items():
            require(est.shape == record.mixed.shape, f"{source} shape")
            require(all_finite(est), f"{key}/{source} estimate not finite")
        for source, (sdr, _mse) in outcome.scores.items():
            require(np.isfinite(sdr), f"{key}/{source} SDR not finite")
            self._scores[f"{key}/{source}"] = float(sdr)
        return digest(*(estimates[s] for s in sorted(estimates)))

    def finish(self, ops, wall) -> Phase:
        return Phase(ops=ops, wall_s=wall,
                     records=float(sum(op.ok for op in ops)),
                     sdr_by_source=dict(sorted(self._scores.items())))


class InvivoCohort(_ClosedLoop):
    name = "invivo-cohort"

    def make_inputs(self, seed: int, seconds: float):
        return [ewe_recording(name, COHORT_RECORD_S, seed)
                for name in EWES]

    def op_keys(self, inputs) -> List[str]:
        return ["cohort"]

    def service(self):
        from repro.service import SeparationService
        from repro.service.specs import DHFSpec

        return SeparationService(DHFSpec.from_preset("smoke"))

    def begin(self) -> None:
        self._sdr: Dict[str, float] = {}
        self._corr: Dict[str, float] = {}

    def call(self, service, inputs, key):
        from repro.tfo.monitor import run_in_vivo_batch

        return run_in_vivo_batch(inputs, service)

    def check(self, inputs, key, results) -> str:
        from repro.metrics import sdr_db

        parts = []
        for rec in inputs:
            (result,) = results[rec.name].values()
            fit = result.fit
            require(all_finite(fit.spo2_estimates, fit.ratios),
                    f"{rec.name} SpO2 estimates not finite")
            require(np.isfinite(fit.correlation), f"{rec.name} r not finite")
            self._corr[rec.name] = float(fit.correlation)
            for wl in sorted(result.fetal_estimates):
                est = result.fetal_estimates[wl]
                require(est.shape == rec.signals.ppg[wl].shape, "shape")
                require(all_finite(est), f"{rec.name}:{wl} not finite")
                self._sdr[f"{rec.name}:{wl}/fetal"] = float(
                    sdr_db(est, rec.signals.layers[wl]["fetal"])
                )
                parts.append(est)
            parts.append(fit.spo2_estimates)
        return digest(*parts)

    def finish(self, ops, wall) -> Phase:
        return Phase(ops=ops, wall_s=wall,
                     records=2.0 * len(self._corr) * sum(op.ok for op in ops),
                     sdr_by_source=dict(sorted(self._sdr.items())),
                     spo2_corr=float(np.mean(list(self._corr.values())))
                     if self._corr else None)


# --------------------------------------------------------------------- #
# Open-loop gateway workload
# --------------------------------------------------------------------- #
class GatewayProcess:
    """The gateway in its own process (``perfbench/gateway_proc.py``),
    pinned to ``cpus``."""

    def __init__(self, root: Path, trace: bool, cpus: Set[int]):
        artifacts = root / ".perfbench_out" / f"gateway-{time.time_ns()}"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "gateway_proc.py"),
             "--trace", str(int(trace)), "--artifacts", str(artifacts)],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        os.sched_setaffinity(self.proc.pid, cpus)
        try:
            ready = json.loads(self.proc.stdout.readline())
        except json.JSONDecodeError:
            self.stop()
            raise RuntimeError("gateway process failed to start") from None
        self.url = ready["url"]
        self.startup_s = float(ready["startup_s"])

    def stop(self) -> List[Dict[str, Any]]:
        """Stop the gateway; its spans when it was traced."""
        try:
            out, _ = self.proc.communicate(input="", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else []


class MonitorLive:
    name = "monitor-live"

    def make_inputs(self, seed: int, seconds: float):
        from repro.service import SeparationService
        from repro.tfo.ppg import WAVELENGTHS

        # At least one 90 s record per session: a shorter one has too
        # few blood draws to calibrate.
        n_pushes = max(int(np.ceil(seconds * PUSH_RATE_HZ)),
                       int(COHORT_RECORD_S * 100) // CHUNK_SAMPLES)
        duration = n_pushes * CHUNK_SAMPLES / 100.0
        feeds = []
        with SeparationService("spectral-masking") as offline:
            for name in EWES:
                rec = ewe_recording(name, duration, seed)
                ac_mean = {
                    wl: float(np.mean(rec.signals.ppg[wl] - rec.signals.dc[wl]))
                    for wl in WAVELENGTHS
                }
                reference = {
                    wl: offline.separate(
                        mixed=rec.signals.ppg[wl] - rec.signals.dc[wl]
                        - ac_mean[wl],
                        sampling_hz=rec.sampling_hz,
                        f0_tracks=rec.f0_tracks(),
                    ).estimates["fetal"]
                    for wl in WAVELENGTHS
                }
                feeds.append({"rec": rec, "ac_mean": ac_mean,
                              "reference": reference, "n_pushes": n_pushes})
        return feeds

    def _open_sessions(self, client_url: str, feeds) -> List[str]:
        from repro.gateway import GatewayClient

        ids = []
        with GatewayClient(client_url) as client:
            for feed in feeds:
                rec = feed["rec"]
                sid = client.create_session({
                    "method": "spectral-masking",
                    "sampling_hz": rec.sampling_hz,
                    "segment_samples": SEGMENT_SAMPLES,
                    "overlap_samples": OVERLAP_SAMPLES,
                    "window_s": MONITOR_WINDOW_S,
                    "ac_mean": {str(wl): v for wl, v in feed["ac_mean"].items()},
                })["session_id"]
                client.add_draws(sid, zip(rec.draw_times_s, rec.draw_sao2))
                ids.append(sid)
        return ids

    def _setup_once(self, root: Path, trace: bool, feeds) -> tuple:
        """``(gateway, session ids, set-up seconds)``."""
        gateway = GatewayProcess(root, trace, self._gateway_cpus)
        try:
            t0 = time.perf_counter()
            sessions = self._open_sessions(gateway.url, feeds)
        except BaseException:
            gateway.stop()
            raise
        return gateway, sessions, gateway.startup_s + time.perf_counter() - t0

    def setup(self, root: Path, trace: bool, feeds) -> List[float]:
        """Set-up times; the last gateway and its sessions stay up.

        The client is pinned to one CPU and the gateway to another (to
        the same one when only one is available): unpinned, wake-ups
        moving between CPUs made the push latency swing twice as much
        from run to run on a 2-vCPU VM.
        """
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
        self._gateway_cpus = {cpus[-1]}
        samples = []
        for attempt in range(SETUP_REPEATS):
            if attempt:
                self._gateway.stop()
            self._gateway, self._sessions, seconds = self._setup_once(
                root, trace, feeds
            )
            samples.append(seconds)
        return samples

    def setup_again(self, root: Path, trace: bool, feeds) -> List[float]:
        """Set-up times after the run; no gateway stays up."""
        samples = []
        for _ in range(SETUP_REPEATS):
            gateway, _, seconds = self._setup_once(root, trace, feeds)
            gateway.stop()
            samples.append(seconds)
        return samples

    def units(self, phase: Phase) -> int:
        return 1

    def close(self) -> None:
        """Stop a gateway a failed run left behind."""
        gateway = getattr(self, "_gateway", None)
        if gateway is not None and gateway.proc.poll() is None:
            gateway.stop()

    def run(self, feeds, seconds: float, tracer=None,
            n_ops: Optional[int] = None) -> Phase:
        """Both sessions' full push schedules (fixed by ``seconds``)."""
        gateway, sessions = self._gateway, self._sessions
        interval = 1.0 / PUSH_RATE_HZ
        start = time.perf_counter() + 0.05
        feeds_live = [
            _LiveFeed(gateway.url, sid, feed,
                      start + i * interval / len(feeds), interval, tracer)
            for i, (sid, feed) in enumerate(zip(sessions, feeds))
        ]
        for live in feeds_live:
            live.start()
        for live in feeds_live:
            live.join(timeout=max(120.0, 4 * seconds))
        wall = max(d.last_return for d in feeds_live) - start
        spans = gateway.stop()
        ops = [op for d in feeds_live for op in d.ops]
        checks = [d.check for d in feeds_live]
        hung = [d.sid for d in feeds_live if d.is_alive()]
        if hung:
            checks.append(Op("join", 0.0, False,
                             error=f"live feed(s) {hung} did not finish"))
        pushed = sum(d.pushed_samples for d in feeds_live)
        return Phase(
            ops=ops, wall_s=wall,
            records=pushed / (COHORT_RECORD_S * 100.0),
            sdr_by_source={f"{d.feed['rec'].name}:{wl}/fetal": v
                           for d in feeds_live for wl, v in d.sdr.items()},
            spo2_corr=float(np.mean([d.corr for d in feeds_live]))
            if all(d.corr is not None for d in feeds_live) else None,
            checks=checks, spans=spans,
        )


class _LiveFeed(threading.Thread):
    """One live feed: pushes on schedule, then finish and verify."""

    def __init__(self, url, sid, feed, first_due, interval, tracer):
        super().__init__(daemon=True)
        self.url, self.sid, self.feed = url, sid, feed
        self.first_due, self.interval, self.tracer = first_due, interval, tracer
        self.ops: List[Op] = []
        self.check = Op(f"{sid}/stream", 0.0, False, error="not run")
        self.sdr: Dict[int, float] = {}
        self.corr: Optional[float] = None
        self.pushed_samples = 0
        self.last_return = first_due

    def run(self) -> None:
        from repro.gateway import GatewayClient
        from repro.tfo.ppg import WAVELENGTHS

        rec = self.feed["rec"]
        tracks = rec.f0_tracks()
        pieces: Dict[int, list] = {wl: [] for wl in WAVELENGTHS}
        with GatewayClient(self.url, timeout_s=60.0) as client:
            for k in range(self.feed["n_pushes"]):
                due = self.first_due + k * self.interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lo, hi = k * CHUNK_SAMPLES, (k + 1) * CHUNK_SAMPLES
                sent = time.perf_counter()
                key = f"{self.sid}#{k}"
                op, update = _timed_op(key, lambda: client.push(
                    self.sid,
                    {wl: rec.signals.ppg[wl][lo:hi] for wl in WAVELENGTHS},
                    {wl: rec.signals.dc[wl][lo:hi] for wl in WAVELENGTHS},
                    {s: t[lo:hi] for s, t in tracks.items()},
                ), self.tracer)
                self.last_return = time.perf_counter()
                op.latency_s = self.last_return - due
                op.lateness_s = sent - due
                if op.ok and update.get("index") != k:
                    op.ok, op.error = False, f"update index {update.get('index')}"
                if op.ok:
                    self.pushed_samples += 2 * (hi - lo)
                    for wl in WAVELENGTHS:
                        pieces[wl].append(update["estimates"][str(wl)])
                self.ops.append(op)
            self.check, final = _timed_op(
                f"{self.sid}/stream",
                lambda: client.finish_session(self.sid), None,
            )
            if self.check.ok:
                try:
                    self._verify(pieces, final)
                    client.delete_session(self.sid)
                except Exception as exc:  # any verification error fails it
                    self.check.ok = False
                    self.check.error = f"check failed: {exc!r}"

    def _verify(self, pieces, final) -> None:
        """Stitched stream == offline separation outside cross-fades."""
        from repro.metrics import sdr_db
        from repro.tfo.ppg import WAVELENGTHS

        rec = self.feed["rec"]
        n = rec.signals.n_samples
        streamed = {}
        for wl in WAVELENGTHS:
            stream = np.concatenate(
                [np.asarray(p, dtype=np.float64) for p in pieces[wl]]
                + [np.asarray(final["final_estimates"][str(wl)],
                              dtype=np.float64)]
            )
            reference = self.feed["reference"][wl]
            require(stream.shape == reference.shape, f"{wl} nm length")
            keep = np.ones(n, dtype=bool)
            for lo, hi in final["crossfade_spans"][str(wl)]:
                keep[lo:hi] = False
            require(np.array_equal(stream[keep], reference[keep]),
                    f"{wl} nm stream differs from offline outside cross-fades")
            require(all_finite(stream), f"{wl} nm stream not finite")
            self.sdr[wl] = float(sdr_db(stream, rec.signals.layers[wl]["fetal"]))
            streamed[wl] = stream
        fit = final["fit"]
        require(fit is not None, "calibration never fitted")
        require(all_finite(fit["spo2_estimates"]), "SpO2 not finite")
        self.corr = float(fit["correlation"])
        self.check.digest = digest(*(streamed[wl] for wl in WAVELENGTHS))


WORKLOADS = {w.name: w for w in (SynthTable2, InvivoCohort, MonitorLive)}
