"""Checks of the benchmark itself: oracles accept the program and reject bad output.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from click.testing import CliRunner  # noqa: E402

import hostspeed  # noqa: E402
import jcsim  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from jcsim.cli import main  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_every_oracle(workload, trace):
    outcome = run.run(workload, seed=7, seconds=0.1, trace=trace, min_samples=1, probes=0)
    result = outcome["result"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, outcome["detail"]["problems"]
    assert result["correct"]
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float) and entry["unit"]


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_the_ones_benchmark_json_names(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    outcome = run.run("error-scan", seed=3, seconds=0.1, trace=trace, min_samples=1, probes=1)
    metrics = outcome["result"]["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in metrics.items()}
    if trace:
        assert metrics["trotter.trotter_error.calls"]["value"] > 0
        # the layer self times and the root's own time add up to each root span
        assert outcome["detail"]["unaccounted_ms"] < 1e-6


def test_refuses_to_run_without_the_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "digitized",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_factors_scale_to_the_nominal_kernel_time():
    nominal = hostspeed.NOMINAL_KERNEL_MS
    assert hostspeed.speed_factors([2 * nominal] * 4) == [0.5] * 3
    # one interrupted kernel call does not move the factor of its neighbours
    factors = hostspeed.speed_factors([nominal, nominal, 50 * nominal, nominal, nominal, nominal])
    assert factors == [1.0] * 5


def test_plain_run_reports_raw_times_beside_the_scaled_ones():
    outcome = run.run("reference", seed=2, seconds=0.1, trace=False, min_samples=3, probes=1)
    raw, metrics = outcome["detail"]["raw"], outcome["result"]["metrics"]
    assert raw["host_speed"] > 0
    assert set(raw) == {"latency_p50_ms", "latency_p90_ms", "throughput_ops_s", "setup_s",
                        "host_speed"}
    assert metrics["setup_s"]["value"] > 0 and raw["setup_s"] > 0


def test_tracer_restores_the_untraced_functions():
    before = jcsim.circuits.apply_operator
    tracer = Tracer()
    root = tracer.begin()
    assert jcsim.circuits.apply_operator is not before
    tracer.finish(root)
    assert jcsim.circuits.apply_operator is before


# --------------------------------------------------------------------------
# perturbed outputs


def _first_requests() -> dict[str, workloads.Request]:
    found: dict[str, workloads.Request] = {}
    for name in workloads.WORKLOADS:
        block = next(workloads.stream(name, 11, run.OUT / "work"))
        for req in block:
            found.setdefault(req.command, req)
    return found


REQUESTS = _first_requests()


def _edit_column(text: str, fmt: str, column: str, row: int, change) -> str:
    if fmt == "json":
        payload = json.loads(text)
        payload["data"][column][row] = change(payload["data"][column][row])
        return json.dumps(payload)
    meta, _, body = text.partition("\n")
    rows = list(csv.reader(io.StringIO(body)))
    j = rows[0].index(column)
    rows[1 + row % (len(rows) - 1)][j] = repr(change(float(rows[1 + row % (len(rows) - 1)][j])))
    return meta + "\n" + "\n".join(",".join(r) for r in rows) + "\n"


def _move_one_count(text: str, fmt: str) -> str:
    """Move one shot to another bin: the shot count still adds up."""
    meta, _, body = text.partition("\n")
    payload = json.loads(text) if fmt == "json" else None
    if payload is not None:
        counts = payload["data"]["counts"]
    else:
        counts = {b: int(c) for b, c in (r.split(",") for r in body.strip().split("\n")[1:])}
    source = max(counts, key=counts.get)
    target = next(b for b in (format(i, "03b") for i in range(8)) if b != source)
    counts[source] -= 1
    counts[target] = counts.get(target, 0) + 1
    if payload is not None:
        return json.dumps(payload)
    rows = ["bitstring,count"] + [f"{b},{c}" for b, c in sorted(counts.items())]
    return meta + "\n" + "\n".join(rows) + "\n"


def _edit_fidelity(text: str, fmt: str) -> str:
    if fmt == "json":
        payload = json.loads(text)
        payload["data"][0]["F"] += 1e-3
        return json.dumps(payload)
    meta, _, body = text.partition("\n")
    rows = [r.split(",") for r in body.strip().split("\n")]
    rows[1][-1] = repr(float(rows[1][-1]) + 1e-3)
    return meta + "\n" + "\n".join(",".join(r) for r in rows) + "\n"


PERTURB = {
    "populations": lambda t, f: _edit_column(t, f, "P_e", -1, lambda v: v + 1e-3),
    "sample": _move_one_count,
    "trotter-compare": lambda t, f: _edit_column(t, f, "error_order1", 0, lambda v: v * 1.001),
    "entropy": lambda t, f: _edit_column(
        t, f, "entropy_bits" if "entropy_bits" in t else "entropy_nats", 5, lambda v: v + 1e-3),
    "rabi": lambda t, f: _edit_column(t, f, "P_e", 3, lambda v: v + 1e-3),
    "lambda": lambda t, f: _edit_column(t, f, "P1", -1, lambda v: v + 1e-3),
    "fidelity": _edit_fidelity,
}


@pytest.mark.parametrize("command", sorted(PERTURB))
def test_perturbed_output_counts_as_a_failure(command):
    req = REQUESTS[command]
    result = CliRunner().invoke(main, list(req.args))
    checker = oracles.Checker()
    assert checker.check(req, result.exit_code, result.stdout) == []
    bad = PERTURB[command](result.stdout, req.params["format"])
    assert bad != result.stdout
    assert checker.check(req, 0, bad) != []


def test_failed_exit_or_exception_counts_as_a_failure():
    req = REQUESTS["rabi"]
    checker = oracles.Checker()
    assert checker.check(req, 2, "") != []
    assert checker.check(req, 0, "", error="ValueError: boom") != []
    assert checker.check(req, 0, "not an output") != []


def test_same_seed_gives_the_same_requests():
    a = next(workloads.stream("digitized", 5, run.OUT / "work"))
    b = next(workloads.stream("digitized", 5, run.OUT / "work"))
    c = next(workloads.stream("digitized", 6, run.OUT / "work"))
    assert [r.args for r in a] == [r.args for r in b]
    assert [r.args for r in a] != [r.args for r in c]
