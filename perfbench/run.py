"""jcsim benchmark: one closed-loop client driving the `jcsim` CLI in-process.

    python3 perfbench/run.py --workload digitized --seed 1 --seconds 30 --trace 0

Run from a checkout holding `src/jcsim`.  The requests of a workload come
from `--seed` (see `workloads.py`); each goes through click's `CliRunner`
only after the previous one has returned, and every output is checked by an
oracle in `oracles.py` that shares no code with jcsim.  Whole blocks of
requests are timed until `--seconds` of request time have passed and at
least `MIN_SAMPLES` requests are in.  A fixed kernel is timed between
requests, and the reported times are scaled by it to a nominal host speed
(`hostspeed.py`), because a shared host's speed drifts by up to a factor of
two; the raw wall times are in the detail line.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs every request
twice, untraced then with every layer wrapped (`spans.py`), and prints the
per-layer metrics, the work counts and the tracing overhead.  The last
stdout line is the JSON result; the lines above it record the environment.
Spans and results are also written under `.perfbench_out/`.
"""

from __future__ import annotations

import os
import sys

# pin BLAS before numpy is imported, here and in the set-up probes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_SAMPLES = 100        # p90 then has at least 10 samples beyond it
SETUP_PROBES = 5
DEADLINE_S = 140.0       # stop timing blocks past this much wall time


def _setup_probe(workload: str, seed: int) -> None:
    """Child-process body: import, build the first inputs, report and exit."""
    t0 = time.perf_counter()
    import click  # noqa: F401
    import numpy  # noqa: F401
    from click.testing import CliRunner
    import jcsim.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads
    next(workloads.stream(workload, seed, OUT / "work"))
    CliRunner()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
    # after the timed part: this process's host speed, to scale its set-up time
    import hostspeed
    print(json.dumps({"kernel_ms": hostspeed.settled_kernel_ms()}), flush=True)


def measure_setup(workload: str, seed: int, probes: int) -> list[dict]:
    """Spawn fresh interpreters; time each from start to its 'inputs ready' line.

    Each probe then times the host-speed kernel, and `setup_s` is scaled by
    it to the nominal host speed; `raw_setup_s` is the wall time.
    """
    from hostspeed import NOMINAL_KERNEL_MS

    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - t0
            rest = child.stdout.read()
            if child.wait(timeout=60) != 0 or not line:
                raise RuntimeError(f"set-up probe exited with {child.returncode}")
        kernel_ms = json.loads(rest)["kernel_ms"]
        out.append({"setup_s": ready * NOMINAL_KERNEL_MS / kernel_ms, "raw_setup_s": ready,
                    **json.loads(line)})
    return out


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def rk4_steps(req) -> int:
    """RK4 steps a `lambda` request takes, from `lambda_step_size` and its time grid."""
    import numpy as np
    from jcsim.models import lambda_step_size

    p = req.params
    horizon = 20.0 * math.pi / max(p["omega_p"], p["omega_c"], 1e-30)
    h_max = lambda_step_size(p["omega_p"], p["omega_c"], horizon)
    spans = np.diff(np.linspace(0.0, horizon, p["points"]))
    return int(sum(max(1, math.ceil(span / h_max)) for span in spans))


def trotter_steps(req) -> int:
    """Product-formula steps a request evaluates: applied steps, or one per order and dt."""
    if req.command in ("populations", "sample"):
        return req.params["steps"]
    if req.command == "trotter-compare":
        return 2 * len(req.params["budgets"])
    return 0


class Client:
    """The closed loop: one request at a time, each output checked after its block."""

    def __init__(self, workload: str, seed: int) -> None:
        from click.testing import CliRunner
        from jcsim.cli import main

        import oracles
        import workloads

        self.main = main
        self.runner = CliRunner()
        self.blocks = workloads.stream(workload, seed, OUT / "work")
        self.checker = oracles.Checker()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invoke(self, req):
        t0 = time.perf_counter()
        result = self.runner.invoke(self.main, list(req.args))
        return result, time.perf_counter() - t0

    def check(self, req, result) -> bool:
        error = None
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            error = f"{type(result.exception).__name__}: {result.exception}"
        problems = self.checker.check(req, result.exit_code, result.stdout, error)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(req.args)}: {'; '.join(problems)}")
        return not problems

    def warm_up(self, block) -> None:
        """One untimed request of each command, so lazy imports and caches are in place."""
        seen = set()
        for req in block:
            if req.command not in seen:
                seen.add(req.command)
                self.check(req, self.invoke(req)[0])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p50_p90(ms: list[float]) -> tuple[float, float]:
    ms = sorted(ms)
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]


def run_plain(client: Client, seconds: float, min_samples: int, start: float) -> dict:
    """Timed closed loop; latencies are scaled to the nominal host speed (`hostspeed`)."""
    import hostspeed

    raw: list[float] = []
    scaled: list[float] = []
    passed = 0
    peak_rss_mb = None
    for i, block in enumerate(client.blocks):
        if i == 0:
            client.warm_up(block)
        kernel_times = [hostspeed.kernel_ms()]
        results = []
        for req in block:
            results.append((req, *client.invoke(req)))
            kernel_times.append(hostspeed.kernel_ms())
        factors = hostspeed.speed_factors(kernel_times)
        for (req, result, latency), factor in zip(results, factors):
            raw.append(1e3 * latency)
            scaled.append(1e3 * latency * factor)
            passed += client.check(req, result)
        if peak_rss_mb is None and len(raw) >= min_samples:
            peak_rss_mb = _peak_rss_mb()
        if (sum(raw) >= 1e3 * seconds and len(raw) >= min_samples) \
                or time.perf_counter() - start > DEADLINE_S:
            break
    p50, p90 = _p50_p90(scaled)
    raw_p50, raw_p90 = _p50_p90(raw)
    return {
        # after a fixed number of requests, so a faster program is not charged
        # for the allocator growth of the extra requests it fits in the run
        "peak_rss_mb": peak_rss_mb if peak_rss_mb is not None else _peak_rss_mb(),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        # one closed-loop client: requests passed per second of request time
        "throughput_ops_s": 1e3 * passed / sum(scaled),
        "success_rate": passed / len(raw),
        "samples": len(raw),
        "loop_s": sum(raw) / 1e3,
        "raw": {"latency_p50_ms": raw_p50, "latency_p90_ms": raw_p90,
                "throughput_ops_s": 1e3 * passed / sum(raw),
                "host_speed": statistics.median(s / r for s, r in zip(scaled, raw))},
    }


def run_traced(client: Client, seconds: float, start: float) -> tuple[dict, object]:
    from spans import Tracer

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    steps, rk4, out_bytes = [], [], []
    loop_s = 0.0
    for i, block in enumerate(client.blocks):
        if i == 0:
            client.warm_up(block)
        results = []
        t0 = time.perf_counter()
        for req in block:
            result, latency = client.invoke(req)
            root = tracer.begin()
            traced_result = client.runner.invoke(client.main, list(req.args))
            traced.append(tracer.finish(root))
            plain.append(latency)
            results += [(req, result), (req, traced_result)]
            steps.append(trotter_steps(req))
            rk4.append(rk4_steps(req) if req.command == "lambda" else 0)
            out_bytes.append(len(traced_result.stdout_bytes))
        loop_s += time.perf_counter() - t0
        for req, result in results:
            client.check(req, result)
        if loop_s >= seconds or time.perf_counter() - start > DEADLINE_S:
            break
    metrics = tracer.summary()
    metrics["work.trotter_steps"] = statistics.fmean(steps)
    metrics["work.rk4_steps"] = statistics.fmean(rk4)
    metrics["work.output_bytes"] = statistics.fmean(out_bytes)
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))
    metrics["trace.requests"] = float(len(traced))
    return metrics, tracer


UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_ops_s": "1/s",
         "success_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        min_samples: int = MIN_SAMPLES, probes: int = SETUP_PROBES) -> dict:
    """Run one workload; returns the result object printed on the last line."""
    start = time.perf_counter()
    setups = measure_setup(workload, seed, probes) if probes else []
    client = Client(workload, seed)
    detail: dict = {"workload": workload, "environment": environment(seed)}
    if trace:
        metrics, tracer = run_traced(client, seconds, start)
        if setups:
            metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
            metrics["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        detail["computed_counts"] = ["work.gates_applied", "work.trotter_steps",
                                     "work.unitaries_compiled", "work.rk4_steps"]
        detail["unaccounted_ms"] = tracer.unaccounted_ms()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
    else:
        metrics = run_plain(client, seconds, min_samples, start)
        detail["samples"] = metrics.pop("samples")
        detail["loop_s"] = metrics.pop("loop_s")
        detail["raw"] = metrics.pop("raw")
        if setups:
            metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            detail["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    detail["error_rate"] = client.failed / client.attempted
    detail["problems"] = client.problems
    return {
        "detail": detail,
        "result": {
            "correct": client.failed == 0,
            "attempted": client.attempted,
            "failed": client.failed,
            "metrics": {name: {"value": float(value), "unit": _unit(name)}
                        for name, value in sorted(metrics.items())},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "jcsim" / "__init__.py").is_file():
        print(f"perfbench: no jcsim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(outcome, indent=2, sort_keys=True), encoding="utf-8")
    print("# environment: " + json.dumps(outcome["detail"]["environment"], sort_keys=True))
    detail = {k: v for k, v in outcome["detail"].items() if k != "environment"}
    print("# detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
