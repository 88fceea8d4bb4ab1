"""Span recorder that wraps spinbattery's public functions from outside.

Each wrapper replaces a module attribute at the name its callers look up, so
no code under ``src/`` changes.  Spans stay in memory with an id, a parent
id and the native thread id, and are written to one JSON file at the end.
Spans opened on a thread whose own stack is empty (sweep worker threads)
take the outermost open span as their parent.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root = None
        self._patched = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a traced version that records span
        ``name``; ``describe(*args, **kwargs)`` adds fields to the span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                tracer._next_id += 1
                span_id = tracer._next_id
                parent = stack[-1] if stack else tracer._root
                if tracer._root is None:
                    tracer._root = span_id
            fields = describe(*args, **kwargs) if describe else {}
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "parent": parent, "name": name,
                        "thread": threading.get_native_id(),
                        "start": start, "end": end, **fields}
                with tracer._lock:
                    tracer.spans.append(span)
                    if tracer._root == span_id:
                        tracer._root = None

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="ascii") as sink:
            json.dump({"meta": meta, "spans": self.spans}, sink)


def _matrix_digest(op) -> str:
    m = op.matrix
    digest = hashlib.sha1()
    for part in (m.data, m.indices, m.indptr):
        digest.update(part.tobytes())
    return digest.hexdigest()


def install(tracer: Tracer, spinbattery) -> None:
    """Wrap each layer's public entry points at the names callers use."""
    runner, dynamics = spinbattery.runner, spinbattery.dynamics
    tracer.wrap(runner, "run", "runner.run",
                lambda config, workers=None, echo=None: {"workers": workers})
    tracer.wrap(runner, "stored_energy_series",
                "metrics.stored_energy_series",
                lambda protocol, grid, backend: {"lam": protocol.lam})
    tracer.wrap(dynamics.ProtocolEvolution, "battery_energy",
                "dynamics.battery_energy",
                lambda engine, times: {"samples": len(times)})
    tracer.wrap(dynamics, "spectrum", "dynamics.spectrum",
                lambda op, want_vectors=False: {"dim": op.dimension,
                                                "vectors": bool(want_vectors)})
    tracer.wrap(dynamics, "ground_state", "dynamics.ground_state",
                lambda op: {"dim": op.dimension,
                            "digest": _matrix_digest(op)})
    tracer.wrap(dynamics, "protocol_hamiltonian",
                "hamiltonians.protocol_hamiltonian",
                lambda p, phase: {"phase": phase.value})
    tracer.wrap(spinbattery.hamiltonians, "assemble", "qubit_ops.assemble",
                lambda terms, num_qubits: {"num_qubits": num_qubits})


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def eigh_gflop(dim: int, vectors: bool) -> float:
    """Computed operation count of one dense symmetric eigensolve:
    4/3 n^3 for eigenvalues only, 9 n^3 with eigenvectors (Golub and
    Van Loan, Matrix Computations, symmetric QR algorithm count)."""
    return (9.0 if vectors else 4.0 / 3.0) * float(dim) ** 3 / 1e9


def layer_metrics(spans, workers: int, files_written: int,
                  bytes_written: int) -> dict:
    """Per-layer figures from one traced ``run()`` call."""
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def group(name):
        return by_name.get(name, [])

    def total_self(name):
        return sum((own[s["id"]] for s in group(name)), 0.0)

    out = {}
    spectra = group("dynamics.spectrum")
    out["dynamics.spectrum.calls"] = (len(spectra), "count")
    out["dynamics.spectrum.self_s"] = (total_self("dynamics.spectrum"), "s")
    out["dynamics.spectrum.dim_max"] = (
        max((s["dim"] for s in spectra), default=0), "count")
    out["dynamics.spectrum.gflop_computed"] = (
        sum((eigh_gflop(s["dim"], s["vectors"]) for s in spectra), 0.0),
        "GFLOP")

    sampling = group("dynamics.battery_energy")
    samples = sum(s["samples"] for s in sampling)
    sampling_self = total_self("dynamics.battery_energy")
    out["dynamics.battery_energy.calls"] = (len(sampling), "count")
    out["dynamics.battery_energy.self_s"] = (sampling_self, "s")
    out["dynamics.battery_energy.samples"] = (samples, "count")
    out["dynamics.battery_energy.samples_per_s"] = (
        samples / sampling_self if sampling_self > 0 else 0.0, "1/s")

    grounds = group("dynamics.ground_state")
    out["dynamics.ground_state.calls"] = (len(grounds), "count")
    out["dynamics.ground_state.self_s"] = (
        total_self("dynamics.ground_state"), "s")
    out["dynamics.ground_state.distinct_ratio"] = (
        len({s["digest"] for s in grounds}) / len(grounds) if grounds
        else 0.0, "ratio")

    points = group("metrics.stored_energy_series")
    durations = [s["end"] - s["start"] for s in points]
    out["metrics.point_s_p50"] = (
        statistics.median(durations) if durations else 0.0, "s")
    out["metrics.point_s_max"] = (max(durations, default=0.0), "s")
    out["metrics.stored_energy_series.self_s"] = (
        total_self("metrics.stored_energy_series"), "s")
    point_ids = {s["id"] for s in points}
    sampled, refine = set(), 0
    for s in sorted(sampling, key=lambda s: s["start"]):
        if s["parent"] in sampled:
            refine += s["samples"]
        elif s["parent"] in point_ids:
            sampled.add(s["parent"])
    out["metrics.refine_samples"] = (refine, "count")

    runs = group("runner.run")
    run_span = sum(s["end"] - s["start"] for s in runs)
    out["metrics.sweep.parallel_efficiency"] = (
        sum(durations) / (run_span * workers) if run_span else 0.0, "ratio")
    out["runner.run.self_s"] = (total_self("runner.run"), "s")
    out["runner.bytes_written"] = (bytes_written, "bytes")
    out["runner.files_written"] = (files_written, "count")

    for name in ("qubit_ops.assemble", "hamiltonians.protocol_hamiltonian"):
        out[f"{name}.calls"] = (len(group(name)), "count")
        out[f"{name}.self_s"] = (total_self(name), "s")
    return out
