"""Span tracing of jcsim's layers, installed from outside the package.

`Tracer` wraps the public functions listed in `LAYERS` at every place jcsim
binds them: each module namespace that holds the same function object (so
`cli.run_circuit`, `trotter.circuit_unitary` and `circuits.apply_operator`
are all caught) and, for methods, the class.  A wrapper records one span
(name, start, end, parent span, request id) in flat in-memory arrays.  The
spans are written out once, at the end of the run, by `save`.

Self time of a span is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so the children never
overlap and the self times of one request sum to its root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

#: Traced layers, as <module>.<function> or <module>.<Class>.<method>.
LAYERS = (
    "linalg.apply_operator",
    "gates.gate_unitary",
    "circuits.run_circuit",
    "trotter.strip_ancilla",
    "models.populations",
    "encoding.leakage_probability",
    "trotter.build_step",
    "trotter.trotter_plan",
    "linalg.sample_measurements",
    "noise.apply_readout_error",
    "trotter.trotter_error",
    "trotter.step_system_unitary",
    "circuits.circuit_unitary",
    "trotter.exact_step_unitary",
    "noise.backend_comparison",
    "models.entropy_trajectory",
    "linalg.partial_trace_factors",
    "linalg.von_neumann_entropy",
    "models.lambda_integrate",
    "models._exact_states",
    "models.analytic_jc2_amplitudes",
    "models.Trajectory.to_csv",
    "models.Trajectory.to_json_dict",
)
ROOT = "cli.request"
MODULES = ("linalg", "gates", "circuits", "encoding", "models", "trotter", "noise", "cli")


class Tracer:
    """Span recorder plus the per-request work counters measured at the wrappers."""

    def __init__(self) -> None:
        self.names = [ROOT, *LAYERS]
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.stack: list[int] = []
        self.request_id = -1
        # per request: [gates applied, distinct gates, gate_unitary calls,
        #               distinct steps, circuit_unitary calls]
        self.counts: list[list[int]] = []
        self._gates: set = set()
        self._steps: set = set()
        self._patches = self._build_patches()

    # -- spans --------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, nid: int, fn, hook=None):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- counters at the layer boundaries ----------------------------------

    def _count_gate(self, gate, *_, **__) -> None:
        row = self.counts[-1]
        row[2] += 1
        key = (gate.kind, gate.targets, gate.angle)
        if key not in self._gates:
            self._gates.add(key)
            row[1] += 1

    def _count_circuit(self, circuit, *_, **__) -> None:
        self.counts[-1][0] += len(circuit.gates)

    def _count_step(self, circuit, *_, **__) -> None:
        row = self.counts[-1]
        row[0] += len(circuit.gates)
        row[4] += 1
        if circuit.gates not in self._steps:
            self._steps.add(circuit.gates)
            row[3] += 1

    # -- installing ---------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        hooks = {
            "gates.gate_unitary": self._count_gate,
            "circuits.run_circuit": self._count_circuit,
            "circuits.circuit_unitary": self._count_step,
        }
        modules = [importlib.import_module(f"jcsim.{m}") for m in MODULES]
        modules.append(importlib.import_module("jcsim"))
        patches = []
        for nid, name in enumerate(self.names):
            if name == ROOT:
                continue
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"jcsim.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(nid, original, hooks.get(name))
            if len(path) > 1:
                patches.append((owner, path[-1], original, wrapper))
                continue
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        patches.append((module, attr, original, wrapper))
            if not any(p[2] is original for p in patches):
                raise RuntimeError(f"layer {name} is bound nowhere in jcsim")
        return patches

    def begin(self) -> int:
        """Install the wrappers and open the root span of the next request."""
        self.request_id = len(self.counts)
        self.counts.append([0, 0, 0, 0, 0])
        self._gates = set()
        self._steps = set()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self._open(0)

    def finish(self, root: int) -> float:
        """Close the root span, remove the wrappers; returns the root duration."""
        self._close(root)
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return self.end[root] - self.start[root]

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) of every span, in seconds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        covered = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], duration[has_parent])
        return duration, duration - covered

    def unaccounted_ms(self) -> float:
        """Worst gap, over requests, between a root span and the self times under it."""
        a = self.arrays()
        duration, own = self.self_times()
        roots = a["name_id"] == 0
        total_self = np.bincount(a["request"], weights=own, minlength=len(self.counts))
        return float(np.max(np.abs(duration[roots] - total_self[a["request"][roots]])) * 1e3)

    def summary(self) -> dict[str, float]:
        """Per-request means of self time (ms) and calls of every layer, self time of the root."""
        requests = len(self.counts)
        a = self.arrays()
        _, own = self.self_times()
        n = len(self.names)
        self_ms = np.bincount(a["name_id"], weights=own, minlength=n) * 1e3 / requests
        calls = np.bincount(a["name_id"], minlength=n) / requests
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.self_ms"] = float(self_ms[nid])
            if name != ROOT:
                out[f"{name}.calls"] = float(calls[nid])
        counts = np.array(self.counts, dtype=float).sum(axis=0)
        out["work.gates_applied"] = counts[0] / requests
        out["work.unitaries_compiled"] = counts[4] / requests
        out["gates.gate_unitary.distinct_ratio"] = counts[1] / counts[2] if counts[2] else 0.0
        out["circuits.circuit_unitary.distinct_ratio"] = counts[3] / counts[4] if counts[4] else 0.0
        return out

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
