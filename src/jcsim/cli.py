"""Command-line harness.

Every command resolves its full configuration (flags, seed, defaults) into a
metadata block and writes it next to the data, so a run can be reproduced
from its own output; reruns with the same configuration are byte-identical.
CSV output carries the metadata as a single leading ``# metadata: {...}``
comment line, JSON output nests ``{"metadata": ..., "data": ...}``.

Exit codes: 0 success, 1 validation failure, 2 threshold failure (slope or
fidelity regression, cross-check disagreement).
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .circuits import run_circuit
from .linalg import basis_state, sample_measurements
from .models import (
    DEFAULT_COUPLING,
    ModelParams,
    Trajectory,
    analytic_jc2_amplitudes,
    entropy_trajectory,
    exact_jc2_amplitudes,
    lambda_fastest_drive,
    lambda_integrate,
    populations,
)
from .encoding import leakage_probability
from .noise import (
    apply_readout_error,
    backend_comparison,
    bundled_backend_names,
    bundled_calibration,
    comparison_table_csv,
    comparison_table_json,
    hardware_reference_circuit,
    load_calibration,
)
from .trotter import (
    DEFAULT_PHASE_BUDGET,
    DEFAULT_STEPS,
    build_step,
    choose_dt,
    fit_error_slope,
    prepare_initial_state,
    step_system_unitary,
    strip_ancilla,
    trotter_error,
    trotter_plan,
)

DEFAULT_SEED = 1234
SLOPE_TARGETS = {1: (2.0, 0.3), 2: (3.0, 0.4)}


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("JC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise click.ClickException(f"JC_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _write_payload(out: str, fmt: str, metadata: dict, *, trajectory: Trajectory | None = None,
                   csv_text: str | None = None, json_data=None) -> None:
    if fmt == "csv":
        body = trajectory.to_csv() if trajectory is not None else csv_text
        text = "# metadata: " + json.dumps(metadata, sort_keys=True) + "\n" + body
    else:
        data = trajectory.to_json_dict() if trajectory is not None else json_data
        text = json.dumps({"metadata": metadata, "data": data}, sort_keys=True, indent=2) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _scaled_times(times: np.ndarray, time_unit: str, g: float) -> np.ndarray:
    return times * g if time_unit == "gt" else times


def _horizon(t_max: float | None, default: float) -> float:
    horizon = t_max if t_max is not None else default
    if not 0 < horizon < math.inf:
        raise click.ClickException("--t-max must be positive and finite")
    return horizon


def _fail_threshold(message: str) -> None:
    click.echo(f"threshold failure: {message}", err=True)
    sys.exit(2)


def _output_options(f):
    f = click.option("--out", default="-", show_default=True, help="Output path, '-' for stdout.")(f)
    f = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                     show_default=True, help="Output format.")(f)
    return f


def _time_options(f):
    f = click.option("--time-unit", type=click.Choice(["s", "gt"]), default="s", show_default=True,
                     help="Emit times in seconds or as the dimensionless phase g*t.")(f)
    return f


def _model_options(f):
    f = click.option("--coupling", type=float, default=DEFAULT_COUPLING, show_default=True,
                     help="Exchange coupling g (g<->e), rad/s.")(f)
    f = click.option("--coupling-ef", type=float, default=None,
                     help="e<->f exchange coupling, rad/s [default: same as --coupling].")(f)
    f = click.option("--omega-f", type=float, default=None,
                     help="Field mode frequency, rad/s [default: resonant with e-g].")(f)
    f = click.option("--omega-e", type=float, default=None,
                     help="Level e frequency, rad/s [default: equal to the field frequency].")(f)
    f = click.option("--omega-upper", type=float, default=None,
                     help="Level f frequency, rad/s [default: 2.5x the field frequency].")(f)
    return f


def _build_params(coupling: float, coupling_ef: float | None, omega_f: float | None,
                  omega_e: float | None, omega_upper: float | None, **extra) -> ModelParams:
    if coupling <= 0:
        raise click.ClickException("--coupling must be positive")
    w_f = omega_f if omega_f is not None else coupling
    w_e = omega_e if omega_e is not None else w_f
    w_upper = omega_upper if omega_upper is not None else 2.5 * w_f
    g_ef = coupling_ef if coupling_ef is not None else coupling
    return ModelParams(
        omega_f=w_f,
        omega_levels={"g": 0.0, "e": w_e, "f": w_upper},
        g_couplings={"ge": coupling, "ef": g_ef},
        **extra,
    )


def _params_metadata(p: ModelParams) -> dict:
    return {
        "omega_f": p.omega_f,
        "omega_levels": dict(sorted(p.omega_levels.items())),
        "g_couplings": dict(sorted(p.g_couplings.items())),
        "omega_p": p.omega_p,
        "omega_c": p.omega_c,
        "nbar": p.nbar,
        "n_max": p.n_max,
    }


def _prep_options(f):
    f = click.option("--atom", type=click.Choice(["g", "e", "f"]), default="e", show_default=True,
                     help="Initial atomic level.")(f)
    f = click.option("--fock", type=click.IntRange(0, 1), default=0, show_default=True,
                     help="Initial field photon number.")(f)
    f = click.option("--theta-f", type=float, default=None,
                     help="Weak-excitation RY angle on the field qubit (<= 0.5 rad), overrides --fock.")(f)
    return f


def _step_options(f):
    f = click.option("--order", type=click.IntRange(1, 2), default=1, show_default=True,
                     help="Product-formula order.")(f)
    f = click.option("--dt", type=float, default=None,
                     help="Step length in seconds [default: phase budget / largest coupling].")(f)
    f = click.option("--phase-budget", type=float, default=DEFAULT_PHASE_BUDGET, show_default=True,
                     help="Largest per-step exchange phase g*dt (rad) over both couplings, "
                          "used when --dt is absent.")(f)
    f = click.option("--steps", type=click.IntRange(min=0), default=DEFAULT_STEPS, show_default=True,
                     help="Number of steps.")(f)
    return f


class _Main(click.Group):
    """The one error boundary: ValueError/OSError end as one ``Error:`` line, exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Digitized dynamics of a three-level atom coupled to one field mode."""


@main.command()
@click.option("--photon-n", type=click.IntRange(min=0), default=0, show_default=True,
              help="Field photon number n of the |e,n> start state.")
@click.option("--t-max", type=float, default=None, help="Window end in seconds [default: 10/g].")
@click.option("--points", type=click.IntRange(min=2), default=201, show_default=True)
@click.option("--exact/--no-exact", default=True, show_default=True,
              help="Add exact-propagator columns and cross-check them.")
@_model_options
@_time_options
@_output_options
def rabi(photon_n, t_max, points, exact, coupling, coupling_ef, omega_f, omega_e, omega_upper,
         time_unit, out, fmt) -> None:
    """Vacuum Rabi oscillations |e,n> <-> |g,n+1> from the closed form."""
    p = _build_params(coupling, coupling_ef, omega_f, omega_e, omega_upper)
    g = p.g_couplings["ge"]
    horizon = _horizon(t_max, 10.0 / g)
    times = np.linspace(0.0, horizon, points)
    amps = np.column_stack(analytic_jc2_amplitudes(g, photon_n, times))
    columns = {"P_e": np.abs(amps[:, 0]) ** 2, "P_g": np.abs(amps[:, 1]) ** 2}
    if exact:
        exact_amps = exact_jc2_amplitudes(g, photon_n, times)
        columns["P_e_exact"], columns["P_g_exact"] = np.abs(exact_amps.T) ** 2
        worst = float(np.max(np.abs(exact_amps - amps)))
    trajectory = Trajectory(times=_scaled_times(times, time_unit, g), columns=columns)
    metadata = {
        "command": "rabi", "version": __version__, "params": _params_metadata(p),
        "photon_n": photon_n, "t_max": horizon, "points": points, "time_unit": time_unit,
        "exact_columns": exact,
    }
    if exact:
        metadata["amplitude_crosscheck_max_error"] = worst
    _write_payload(out, fmt, metadata, trajectory=trajectory)
    if exact and not (worst <= 1e-9):
        _fail_threshold(f"analytic and exact amplitudes disagree by {worst:.3e} (> 1e-9)")


@main.command()
@click.option("--nbar", type=float, default=2.0, show_default=True,
              help="Mean photon number of the initial coherent field state.")
@click.option("--n-max", type=click.IntRange(min=1), default=30, show_default=True,
              help="Field truncation.")
@click.option("--t-max", type=float, default=None, help="Window end in seconds [default: 10/g].")
@click.option("--points", type=click.IntRange(min=2), default=200, show_default=True)
@click.option("--entropy-unit", type=click.Choice(["nats", "bits"]), default="nats",
              show_default=True)
@_model_options
@_time_options
@_output_options
def entropy(nbar, n_max, t_max, points, entropy_unit, coupling, coupling_ef, omega_f, omega_e,
            omega_upper, time_unit, out, fmt) -> None:
    """Atomic entanglement entropy under exact evolution, atom starting in e."""
    p = _build_params(coupling, coupling_ef, omega_f, omega_e, omega_upper, nbar=nbar, n_max=n_max)
    g = p.g_couplings["ge"]
    horizon = _horizon(t_max, 10.0 / g)
    times = np.linspace(0.0, horizon, points)
    trajectory = entropy_trajectory(p, times)
    values = trajectory.columns["entropy_nats"]
    name = "entropy_nats"
    if entropy_unit == "bits":
        values = values / math.log(2.0)
        name = "entropy_bits"
    trajectory = Trajectory(times=_scaled_times(times, time_unit, g), columns={name: values})
    metadata = {
        "command": "entropy", "version": __version__, "params": _params_metadata(p),
        "t_max": horizon, "points": points, "time_unit": time_unit, "entropy_unit": entropy_unit,
    }
    _write_payload(out, fmt, metadata, trajectory=trajectory)


@main.command(name="lambda")
@click.option("--omega-p", type=float, default=DEFAULT_COUPLING, show_default=True,
              help="Pump Rabi frequency, rad/s.")
@click.option("--omega-c", type=float, default=DEFAULT_COUPLING, show_default=True,
              help="Coupling Rabi frequency, rad/s.")
@click.option("--initial", default="1,0,0", show_default=True,
              help="Comma-separated complex amplitudes c1,c2,c3 (normalized on input).")
@click.option("--t-max", type=float, default=None,
              help="Window end in seconds [default: 20pi/max(drive); needed when both drives are 0].")
@click.option("--points", type=click.IntRange(min=2), default=200, show_default=True)
@_time_options
@_output_options
def lambda_cmd(omega_p, omega_c, initial, t_max, points, time_unit, out, fmt) -> None:
    """Populations of the driven Lambda configuration (fixed-step RK4)."""
    if not (0 <= omega_p < math.inf and 0 <= omega_c < math.inf):
        raise click.ClickException("drive frequencies must be finite and >= 0")
    try:
        c0 = np.array([complex(part) for part in initial.split(",")], dtype=complex)
    except ValueError as exc:
        raise click.ClickException(f"cannot parse --initial {initial!r}: {exc}") from exc
    if c0.shape != (3,):
        raise click.ClickException("--initial needs exactly three amplitudes")
    largest = np.max(np.abs(c0))
    if not 0 < largest < math.inf:
        raise click.ClickException("--initial amplitudes must be finite and not all zero")
    c0 = c0 / largest  # so the norm below neither under- nor overflows
    c0 = c0 / np.linalg.norm(c0)
    fastest = lambda_fastest_drive(omega_p, omega_c)
    if t_max is None and fastest == 0:
        raise click.ClickException("both drives are 0, so there is no default window; pass --t-max")
    horizon = _horizon(t_max, 20.0 * math.pi / fastest if fastest > 0 else 0.0)
    p = ModelParams(omega_p=omega_p, omega_c=omega_c)
    times = np.linspace(0.0, horizon, points)
    trajectory = lambda_integrate(p, c0, times)
    scale = omega_p if omega_p > 0 else omega_c
    if time_unit == "gt" and scale == 0:
        raise click.ClickException("--time-unit gt needs a non-zero drive frequency")
    trajectory = Trajectory(
        times=_scaled_times(times, time_unit, scale), columns=trajectory.columns
    )
    metadata = {
        "command": "lambda", "version": __version__,
        "omega_p": omega_p, "omega_c": omega_c,
        "initial": [repr(complex(c)) for c in c0],
        "t_max": horizon, "points": points, "time_unit": time_unit,
    }
    _write_payload(out, fmt, metadata, trajectory=trajectory)


@main.command(name="trotter-compare")
@click.option("--budgets", default="0.2,0.1,0.05,0.025", show_default=True,
              help="Comma-separated per-step phases g*dt defining the dt grid.")
@_model_options
@_output_options
def trotter_compare(budgets, coupling, coupling_ef, omega_f, omega_e, omega_upper, out, fmt) -> None:
    """Per-step error of both product formulas against the exact propagator."""
    p = _build_params(coupling, coupling_ef, omega_f, omega_e, omega_upper)
    g = p.g_couplings["ge"]
    try:
        values = [float(b) for b in budgets.split(",")]
    except ValueError as exc:
        raise click.ClickException(f"cannot parse --budgets {budgets!r}: {exc}") from exc
    if len(values) < 4 or len(set(values)) != len(values) or any(b <= 0 for b in values):
        raise click.ClickException("--budgets needs >= 4 distinct positive values")
    dts = np.array(sorted(values, reverse=True)) / g
    errors = {order: np.array([trotter_error(p, order, dt) for dt in dts]) for order in (1, 2)}
    slopes = {order: fit_error_slope(dts, errors[order]) for order in (1, 2)}
    plan = trotter_plan(p, 1, float(dts[0]), 1)
    metadata = {
        "command": "trotter-compare", "version": __version__, "params": _params_metadata(p),
        "budgets": values, "slopes": {str(k): v for k, v in slopes.items()},
        "coarsest_step_plan": plan.to_json_dict(),
    }
    header = "dt,error_order1,error_order2"
    lines = [header]
    for i, dt in enumerate(dts):
        lines.append(",".join([repr(float(dt)), repr(float(errors[1][i])), repr(float(errors[2][i]))]))
    csv_text = "\n".join(lines) + "\n"
    json_data = {
        "dt": [float(d) for d in dts],
        "error_order1": [float(e) for e in errors[1]],
        "error_order2": [float(e) for e in errors[2]],
        "slopes": {str(k): v for k, v in slopes.items()},
    }
    _write_payload(out, fmt, metadata, csv_text=csv_text, json_data=json_data)
    for order, (target, tolerance) in SLOPE_TARGETS.items():
        if not (abs(slopes[order] - target) <= tolerance):
            _fail_threshold(
                f"order-{order} slope {slopes[order]:.3f} outside {target} +/- {tolerance}"
            )
    if not np.all(errors[2] < errors[1]):
        _fail_threshold("second-order error is not smaller at every grid point")


def _compiled_evolution(p: ModelParams, atom: str, fock: int, theta_f: float | None, order: int,
                        dt: float | None, phase_budget: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Step length, prepared 3-qubit start state and the compiled 8x8 step unitary.

    The prepare circuit runs gate by gate; the step is compiled once, with
    the ancilla's return to |0> checked for every column, so the evolution
    is a chain of 8x8 matrix products.
    """
    step_dt = dt if dt is not None else choose_dt(max(p.g_couplings.values()), phase_budget)
    if not 0 < step_dt < math.inf:
        raise click.ClickException("--dt must be positive and finite")
    prep = prepare_initial_state(atom, fock_n=fock, theta_f=theta_f)
    start8 = strip_ancilla(run_circuit(prep, basis_state(0, 4)))
    u8 = step_system_unitary(build_step(p, order, step_dt))
    return step_dt, start8, u8


@main.command(name="populations")
@click.option("--max-pf", type=float, default=None,
              help="Fail (exit 2) if P_f ever exceeds this threshold.")
@_prep_options
@_step_options
@_model_options
@_time_options
@_output_options
def populations_cmd(max_pf, atom, fock, theta_f, order, dt, phase_budget, steps, coupling,
                    coupling_ef, omega_f, omega_e, omega_upper, time_unit, out, fmt) -> None:
    """Level populations and leakage along the digitized evolution."""
    if max_pf is not None and not math.isfinite(max_pf):
        raise click.ClickException("--max-pf must be finite")
    p = _build_params(coupling, coupling_ef, omega_f, omega_e, omega_upper)
    g = p.g_couplings["ge"]
    step_dt, state, u8 = _compiled_evolution(p, atom, fock, theta_f, order, dt, phase_budget)
    states = [state]
    for _ in range(steps):
        states.append(u8 @ states[-1])
    states = np.stack(states, axis=1)
    columns = {f"P_{level}": values for level, values in populations(states).items()}
    columns["leakage"] = leakage_probability(states)
    plan = trotter_plan(p, order, step_dt, steps)
    times = step_dt * np.arange(steps + 1)
    trajectory = Trajectory(times=_scaled_times(times, time_unit, g), columns=columns)
    metadata = {
        "command": "populations", "version": __version__, "params": _params_metadata(p),
        "atom": atom, "fock": fock, "theta_f": theta_f, "time_unit": time_unit,
        "plan": plan.to_json_dict(),
    }
    _write_payload(out, fmt, metadata, trajectory=trajectory)
    worst_leak = float(columns["leakage"].max())
    if not (worst_leak <= 1e-10):
        _fail_threshold(f"leakage {worst_leak:.3e} exceeds 1e-10")
    if max_pf is not None and not (float(columns["P_f"].max()) <= max_pf):
        _fail_threshold(f"P_f reaches {columns['P_f'].max():.3e} above --max-pf {max_pf}")


def _load_expectations(path: str) -> tuple[float, dict[tuple[str, int], float]]:
    """Tolerance and expected fidelities keyed (backend, order) of an --expect file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        tolerance = float(data.get("tolerance", 0.003))
        table = {
            (backend, int(order_key)): float(expected)
            for backend, per_order in data.get("fidelity", {}).items()
            for order_key, expected in per_order.items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed --expect file {path}: {exc}") from exc
    if not (tolerance >= 0) or not all(math.isfinite(v) for v in table.values()):
        raise ValueError(f"--expect file {path} needs finite fidelities and a tolerance >= 0")
    return tolerance, table


@main.command()
@click.option("--calib", "calib_paths", multiple=True, type=click.Path(exists=True, dir_okay=False),
              help="Calibration JSON file; repeatable [default: bundled fixtures].")
@click.option("--measured-qubits", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--expect", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON map backend -> {order -> expected F} with a tolerance; exit 2 on regression.")
@_output_options
def fidelity(calib_paths, measured_qubits, expect, out, fmt) -> None:
    """Calibration-based fidelity table for the reference circuit profiles."""
    expectations = _load_expectations(expect) if expect is not None else None
    if calib_paths:
        calibs = [load_calibration(path) for path in calib_paths]
    else:
        calibs = [bundled_calibration(name) for name in bundled_backend_names()]
    rows = backend_comparison(
        calibs, {1: hardware_reference_circuit(1), 2: hardware_reference_circuit(2)},
        measured_qubits=measured_qubits,
    )
    metadata = {
        "command": "fidelity", "version": __version__,
        "calibrations": [c.to_json_dict() for c in calibs],
        "measured_qubits": measured_qubits,
    }
    _write_payload(out, fmt, metadata, csv_text=comparison_table_csv(rows),
                   json_data=comparison_table_json(rows))
    if expectations is not None:
        tolerance, expected_table = expectations
        table = {(row.backend, row.order): row.fidelity for row in rows}
        for (backend, order), expected in expected_table.items():
            got = table.get((backend, order))
            if got is None:
                raise click.ClickException(f"no computed row for {backend} order {order}")
            if not (abs(got - expected) <= tolerance):
                _fail_threshold(
                    f"{backend} order {order}: F={got:.4f} differs from "
                    f"expected {expected:.4f} by more than {tolerance}"
                )


@main.command()
@click.option("--shots", type=click.IntRange(min=1), default=1024, show_default=True)
@click.option("--seed", type=int, default=None, help="Sampling seed [default: JC_SEED or 1234].")
@click.option("--readout-flip", type=float, default=0.0, show_default=True,
              help="Independent per-bit readout flip probability.")
@_prep_options
@_step_options
@_model_options
@_output_options
def sample(shots, seed, readout_flip, atom, fock, theta_f, order, dt, phase_budget, steps,
           coupling, coupling_ef, omega_f, omega_e, omega_upper, out, fmt) -> None:
    """Measurement histogram of the digitized evolution (3 system qubits)."""
    p = _build_params(coupling, coupling_ef, omega_f, omega_e, omega_upper)
    step_dt, start8, u8 = _compiled_evolution(p, atom, fock, theta_f, order, dt, phase_budget)
    resolved_seed = _resolve_seed(seed)
    system = np.linalg.matrix_power(u8, steps) @ start8
    histogram = sample_measurements(system, shots, resolved_seed)
    histogram = apply_readout_error(histogram, readout_flip, resolved_seed + 1)
    plan = trotter_plan(p, order, step_dt, steps)
    metadata = {
        "command": "sample", "version": __version__, "params": _params_metadata(p),
        "atom": atom, "fock": fock, "theta_f": theta_f, "shots": shots,
        "seed": resolved_seed, "readout_flip": readout_flip, "plan": plan.to_json_dict(),
    }
    if fmt == "csv":
        lines = ["bitstring,count"]
        for key, value in sorted(histogram.counts.items()):
            lines.append(f"{key},{value}")
        _write_payload(out, fmt, metadata, csv_text="\n".join(lines) + "\n")
    else:
        _write_payload(out, fmt, metadata, json_data=histogram.to_json_dict())


if __name__ == "__main__":
    main()
