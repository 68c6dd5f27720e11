"""Seeded request streams for the three benchmark workloads.

A workload is an endless stream of blocks.  Each block is a small, shuffled,
stratified draw: the sizes that set a request's cost (steps, budgets,
points, n-max) are spread over their whole range inside every block by a
Latin hypercube, so two seeds give request mixes of nearly the same cost
while every other argument is drawn freely.  The program under test sees only the
generated CLI arguments and the `--expect` files written here.

Each `Request` also carries the plain parameters its oracle needs, so the
oracle never has to parse the arguments back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The model's default vacuum coupling g = 2 pi x 25 kHz (rad/s).  The
#: digitized and error-scan workloads express every frequency in units of it.
G = 2.0 * math.pi * 25e3

WORKLOADS = ("digitized", "error-scan", "reference")

#: Reference gate profiles scored by `fidelity`: (one-qubit gates, RCCX blocks).
FIDELITY_PROFILES = {1: (5, 2), 2: (16, 20)}


@dataclass(frozen=True)
class Request:
    """One CLI call: its arguments and what its oracle needs to know."""

    command: str
    args: tuple[str, ...]
    params: dict = field(default_factory=dict)
    #: requests with the same group id must produce the same histogram
    group: int | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def _lhs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n stratified draws in [0, 1), shuffled: one in the middle half of each slice of width 1/n.

    Keeping clear of the slice edges keeps the cost of a block, and so the
    latency quantiles of a run, nearly the same from seed to seed.
    """
    return (rng.permutation(n) + 0.25 + 0.5 * rng.random(n)) / n


class _Stream:
    def __init__(self, seed: int, work_dir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.next_group = 0

    def blocks(self):
        while True:
            yield self.block()


class Digitized(_Stream):
    """3/4 `populations`, 1/4 `sample` (each sample issued twice, same seed)."""

    BLOCK = 16

    def _start(self) -> tuple[list[str], dict]:
        rng = self.rng
        atom = str(rng.choice(["g", "e", "f"]))
        if rng.random() < 2.0 / 3.0:
            fock = int(rng.integers(0, 2))
            return ["--atom", atom, "--fock", str(fock)], {"atom": atom, "fock": fock, "theta_f": None}
        theta = round(float(rng.uniform(0.05, 0.5)), 6)
        return ["--atom", atom, "--theta-f", _fmt(theta)], {"atom": atom, "fock": 0, "theta_f": theta}

    def _steps_and_orders(self, n: int) -> list[tuple[int, int]]:
        """n stratified step counts in 100-400, order 1 and 2 alternating along them."""
        steps = np.sort(100 + np.floor(300 * _lhs(self.rng, n)).astype(int))
        return [(int(s), 1 + j % 2) for j, s in enumerate(steps)]

    def block(self) -> list[Request]:
        rng = self.rng
        samples = self.BLOCK // 8                # each issued twice
        draws = [("populations", *d) for d in self._steps_and_orders(self.BLOCK - 2 * samples)]
        draws += [("sample", *d) for d in self._steps_and_orders(samples)]
        out: list[Request] = []
        for command, steps, order in draws:
            start_args, start = self._start()
            coupling_ef = float(rng.uniform(0.5, 2.0)) * G
            fmt = str(rng.choice(["csv", "json"]))
            common = ["--order", str(order), "--steps", str(steps), *start_args,
                      "--coupling-ef", _fmt(coupling_ef)]
            params = {"order": order, "steps": steps, "coupling_ef": coupling_ef,
                      "format": fmt, **start}
            if command == "populations":
                out.append(Request("populations", ("populations", *common, "--format", fmt), params))
                continue
            shots = int(round(2 ** rng.uniform(10, 13)))
            flip = round(float(rng.uniform(0.0, 0.05)), 6)
            seed = int(rng.integers(0, 2**31))
            args = [*common, "--shots", str(shots), "--seed", str(seed), "--readout-flip", _fmt(flip)]
            params = {**params, "shots": shots, "readout_flip": flip}
            group = self.next_group
            self.next_group += 1
            twin_fmt = "json" if fmt == "csv" else "csv"
            out.append(Request("sample", ("sample", *args, "--format", fmt), params, group))
            out.append(Request("sample", ("sample", *args, "--format", twin_fmt),
                               {**params, "format": twin_fmt}, group))
        # shuffle, then move every twin behind its first issue
        shuffled = [out[i] for i in rng.permutation(len(out))]
        seen: set[int] = set()
        firsts, later = [], []
        for req in shuffled:
            if req.group is None or req.group not in seen:
                if req.group is not None:
                    seen.add(req.group)
                firsts.append(req)
            else:
                later.append(req)
        for req in later:
            first = next(i for i, r in enumerate(firsts) if r.group == req.group)
            firsts.insert(int(rng.integers(first + 1, len(firsts) + 1)), req)
        return firsts


class ErrorScan(_Stream):
    """4 `trotter-compare` with 8-20 budgets, then 1 `fidelity` with `--expect`."""

    BLOCK = 5

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.expect_files = {mq: write_expect_file(work_dir, mq) for mq in range(1, 5)}

    def block(self) -> list[Request]:
        rng = self.rng
        compares = self.BLOCK - 1
        counts = 8 + np.floor(13 * _lhs(rng, compares)).astype(int)
        out: list[Request] = []
        for n in counts:
            budgets: set[float] = set()
            while len(budgets) < n:
                budgets.add(float(f"{math.exp(rng.uniform(math.log(0.005), math.log(0.3))):.6g}"))
            values = [float(b) for b in rng.permutation(sorted(budgets))]
            coupling_ef = float(rng.uniform(0.5, 2.0)) * G
            omega_upper = float(rng.uniform(2.2, 3.0)) * G
            fmt = str(rng.choice(["csv", "json"]))
            args = ("trotter-compare", "--budgets", ",".join(_fmt(b) for b in values),
                    "--coupling-ef", _fmt(coupling_ef), "--omega-upper", _fmt(omega_upper),
                    "--format", fmt)
            out.append(Request("trotter-compare", args, {
                "budgets": values, "coupling_ef": coupling_ef, "omega_upper": omega_upper,
                "format": fmt}))
        mq = int(rng.integers(1, 5))
        fmt = str(rng.choice(["csv", "json"]))
        out.insert(int(rng.integers(0, len(out) + 1)), Request(
            "fidelity",
            ("fidelity", "--measured-qubits", str(mq), "--expect", str(self.expect_files[mq]),
             "--format", fmt),
            {"measured_qubits": mq, "format": fmt}))
        return out


class Reference(_Stream):
    """3 `entropy`, 1 `rabi` and 3 `lambda` requests per block.

    `rabi` takes a few ms and the other two about 100-400 ms; with rabi at one
    in seven the median request lies inside the dense entropy/lambda mass, not
    at its lower edge, where it would swing with every shift between kinds.
    """

    BLOCK = 7

    def block(self) -> list[Request]:
        rng = self.rng
        out: list[Request] = []
        for u, v in zip(_lhs(rng, 3), _lhs(rng, 3)):
            n_max = int(40 + np.floor(61 * v))
            nbar = round(float(rng.uniform(0.5, 5.0)), 6)
            points = int(500 + np.floor(1501 * u))
            unit = str(rng.choice(["nats", "bits"]))
            time_unit = str(rng.choice(["s", "gt"]))
            fmt = str(rng.choice(["csv", "json"]))
            out.append(Request("entropy", (
                "entropy", "--nbar", _fmt(nbar), "--n-max", str(n_max), "--points", str(points),
                "--entropy-unit", unit, "--time-unit", time_unit, "--format", fmt),
                {"nbar": nbar, "n_max": n_max, "points": points, "entropy_unit": unit,
                 "time_unit": time_unit, "format": fmt}))
        for u in _lhs(rng, 1):
            photon_n = int(rng.integers(0, 51))
            points = int(500 + np.floor(1501 * u))
            time_unit = str(rng.choice(["s", "gt"]))
            fmt = str(rng.choice(["csv", "json"]))
            out.append(Request("rabi", (
                "rabi", "--photon-n", str(photon_n), "--points", str(points),
                "--time-unit", time_unit, "--format", fmt),
                {"photon_n": photon_n, "points": points, "time_unit": time_unit, "format": fmt}))
        for u in _lhs(rng, 3):
            ratio = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            omega_c = G
            omega_p = ratio * G
            amps = np.round(rng.normal(size=3) + 1j * rng.normal(size=3), 4)
            if not np.any(amps):
                amps[0] = 1.0
            initial = ",".join(f"{a.real:.4f}{a.imag:+.4f}j" for a in amps)
            points = int(200 + np.floor(1801 * u))
            time_unit = str(rng.choice(["s", "gt"]))
            fmt = str(rng.choice(["csv", "json"]))
            out.append(Request("lambda", (
                "lambda", "--omega-p", _fmt(omega_p), "--omega-c", _fmt(omega_c),
                "--initial", initial, "--points", str(points), "--time-unit", time_unit,
                "--format", fmt),
                {"omega_p": omega_p, "omega_c": omega_c,
                 "initial": [complex(a) for a in amps], "points": points,
                 "time_unit": time_unit, "format": fmt}))
        return [out[i] for i in rng.permutation(len(out))]


STREAMS = {"digitized": Digitized, "error-scan": ErrorScan, "reference": Reference}


def calibration_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "src" / "jcsim" / "calibrations"


def calibrations() -> dict[str, dict]:
    """The bundled calibration JSON files, read as data."""
    return {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(calibration_dir().glob("*.json"))
    }


def expected_fidelities(measured_qubits: int) -> dict[tuple[str, int], tuple[int, int, float]]:
    """(backend, order) -> (n_1q, n_2q, F) with F = exp(-(n_1q e_1q + n_2q e_2q + n_m e_m))."""
    out = {}
    for calib in calibrations().values():
        for order, (n_1q, rccx_blocks) in FIDELITY_PROFILES.items():
            n_2q = rccx_blocks * int(calib["rccx_2q_count"])
            exponent = (n_1q * float(calib["median_1q_error"])
                        + n_2q * float(calib["median_2q_error"])
                        + measured_qubits * float(calib["median_readout_error"]))
            out[(calib["backend"], order)] = (n_1q, n_2q, math.exp(-exponent))
    return out


def write_expect_file(work_dir: Path, measured_qubits: int) -> Path:
    """`fidelity --expect` file holding the oracle's own fidelities."""
    table: dict[str, dict[str, float]] = {}
    for (backend, order), (_, _, f) in expected_fidelities(measured_qubits).items():
        table.setdefault(backend, {})[str(order)] = f
    path = work_dir / f"expect-mq{measured_qubits}.json"
    path.write_text(json.dumps({"tolerance": 1e-9, "fidelity": table}, sort_keys=True),
                    encoding="utf-8")
    return path


def stream(workload: str, seed: int, work_dir: Path):
    """Endless iterator of request blocks for `workload`, fixed by `seed`."""
    if workload not in STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    work_dir.mkdir(parents=True, exist_ok=True)
    return STREAMS[workload](seed, work_dir).blocks()
