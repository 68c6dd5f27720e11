"""Command-line harness: outputs, metadata, seeds, and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import jcsim
from jcsim.circuits import run_circuit
from jcsim.cli import main
from jcsim.encoding import leakage_probability
from jcsim.linalg import basis_state, sample_measurements
from jcsim.models import DEFAULT_COUPLING, ModelParams, populations
from jcsim.trotter import build_step, compose_steps, prepare_initial_state, strip_ancilla

G = DEFAULT_COUPLING


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env)


def json_payload(result):
    return json.loads(result.output)


ALL_COMMANDS = ["rabi", "entropy", "lambda", "trotter-compare", "populations", "fidelity", "sample"]


def test_every_command_has_help(runner):
    assert invoke(runner, ["--help"]).exit_code == 0
    for command in ALL_COMMANDS:
        result = invoke(runner, [command, "--help"])
        assert result.exit_code == 0, command


@pytest.mark.parametrize(
    "args",
    [
        ["rabi", "--points", "5"],
        ["entropy", "--points", "4", "--n-max", "20"],
        ["lambda", "--points", "5"],
        ["trotter-compare"],
        ["populations", "--steps", "3"],
        ["fidelity"],
        ["sample", "--shots", "50", "--seed", "1"],
    ],
)
def test_csv_output_carries_parseable_metadata(runner, args):
    result = invoke(runner, args)
    assert result.exit_code == 0, result.output
    first = result.output.splitlines()[0]
    assert first.startswith("# metadata: ")
    metadata = json.loads(first[len("# metadata: "):])
    assert metadata["command"] == args[0]
    assert "version" in metadata


def test_rabi_zero_crossing_and_crosscheck(runner):
    # P_e(t) = cos^2(g t) for n = 0: exactly zero at g t = pi/2
    t_cross = math.pi / (2 * G)
    result = invoke(
        runner,
        ["rabi", "--t-max", str(t_cross), "--points", "2", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json_payload(result)
    assert payload["data"]["P_e"][0] == pytest.approx(1.0, abs=1e-12)
    assert payload["data"]["P_e"][-1] < 1e-9
    assert payload["data"]["P_g"][-1] == pytest.approx(1.0, abs=1e-9)
    assert payload["metadata"]["amplitude_crosscheck_max_error"] < 1e-9


def test_rabi_crosscheck_at_a_large_photon_number(runner):
    result = invoke(runner, ["rabi", "--photon-n", "100000", "--points", "50", "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json_payload(result)
    assert payload["metadata"]["amplitude_crosscheck_max_error"] < 1e-9
    assert np.max(np.abs(np.array(payload["data"]["P_e"]) - payload["data"]["P_e_exact"])) < 1e-9


def test_rabi_higher_photon_number_oscillates_faster(runner):
    # first zero of P_e moves to pi / (2 g sqrt(n+1))
    n = 3
    t_cross = math.pi / (2 * G * math.sqrt(n + 1))
    result = invoke(
        runner,
        ["rabi", "--photon-n", str(n), "--t-max", str(t_cross), "--points", "2",
         "--format", "json"],
    )
    payload = json_payload(result)
    assert payload["data"]["P_e"][-1] < 1e-9


def test_rabi_time_unit_gt_scales_axis(runner):
    result = invoke(
        runner,
        ["rabi", "--time-unit", "gt", "--t-max", str(1.0 / G), "--points", "3",
         "--format", "json"],
    )
    payload = json_payload(result)
    assert payload["data"]["t"][-1] == pytest.approx(1.0, rel=1e-12)
    assert payload["metadata"]["time_unit"] == "gt"


def test_entropy_starts_at_zero_and_obeys_bound(runner):
    result = invoke(
        runner,
        ["entropy", "--points", "12", "--n-max", "24", "--format", "json"],
    )
    assert result.exit_code == 0
    values = json_payload(result)["data"]["entropy_nats"]
    assert values[0] < 1e-9
    assert max(values) <= math.log(2) + 1e-9


def test_entropy_bits_unit(runner):
    result = invoke(
        runner,
        ["entropy", "--points", "6", "--n-max", "20", "--entropy-unit", "bits",
         "--format", "json"],
    )
    values = json_payload(result)["data"]["entropy_bits"]
    assert max(values) <= 1.0 + 1e-9


def test_entropy_with_an_underflowed_poisson_tail_ends_with_one_error_line():
    # a subprocess, so that a search that never ends fails the test by timeout
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(jcsim.__file__))}
    result = subprocess.run([sys.executable, "-m", "jcsim.cli", "entropy", "--nbar", "900"],
                            capture_output=True, text=True, timeout=30, env=env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "Error: n_max=30 keeps only 0.000000000 of the coherent-state weight for nbar=900.0; "
        "increase n_max to at least 1046"
    ]


def test_entropy_rejects_too_small_truncation(runner):
    result = invoke(runner, ["entropy", "--n-max", "6"])
    assert result.exit_code == 1
    assert "increase n_max" in result.output


def test_lambda_dark_state_stays_dark(runner):
    amp = 1.0 / math.sqrt(2.0)
    result = invoke(
        runner,
        ["lambda", "--initial", f"{amp},-{amp},0", "--points", "40", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json_payload(result)
    assert max(payload["data"]["P3"]) < 1e-10


@pytest.mark.parametrize("scaled,plain", [("1e-170,0,0", "1,0,0"), ("1e300,1e300,0", "1,1,0")])
def test_lambda_initial_amplitudes_are_scale_free(runner, scaled, plain):
    runs = [invoke(runner, ["lambda", "--initial", amps, "--points", "20", "--format", "json"])
            for amps in (scaled, plain)]
    assert [r.exit_code for r in runs] == [0, 0], runs[0].output
    first, second = (json_payload(r) for r in runs)
    assert first["data"] == second["data"]
    assert first["metadata"]["initial"] == second["metadata"]["initial"]


def test_lambda_rejects_bad_initial(runner):
    assert invoke(runner, ["lambda", "--initial", "1,0"]).exit_code == 1
    assert invoke(runner, ["lambda", "--initial", "0,0,0"]).exit_code == 1
    assert invoke(runner, ["lambda", "--initial", "a,b,c"]).exit_code == 1


def test_trotter_compare_slopes_and_pointwise_ordering(runner):
    result = invoke(runner, ["trotter-compare", "--format", "json"])
    assert result.exit_code == 0
    payload = json_payload(result)
    slopes = payload["data"]["slopes"]
    assert abs(slopes["1"] - 2.0) <= 0.3
    assert abs(slopes["2"] - 3.0) <= 0.4
    e1 = payload["data"]["error_order1"]
    e2 = payload["data"]["error_order2"]
    assert all(b < a for a, b in zip(e1, e2))
    assert payload["metadata"]["coarsest_step_plan"]["angle_table"]


def test_trotter_compare_fails_on_degenerate_spectrum(runner):
    # a perfectly harmonic resonant ladder commutes with the interaction,
    # the splitting becomes exact, and no slope can be fitted
    result = invoke(runner, ["trotter-compare", "--omega-upper", str(2 * G)])
    assert result.exit_code == 2
    assert "threshold failure" in result.output


def test_trotter_compare_rejects_bad_grid(runner):
    assert invoke(runner, ["trotter-compare", "--budgets", "0.2,0.1"]).exit_code == 1
    assert invoke(runner, ["trotter-compare", "--budgets", "0.2,0.2,0.1,0.05"]).exit_code == 1
    assert invoke(runner, ["trotter-compare", "--budgets", "0.2,x,0.1,0.05"]).exit_code == 1


def test_populations_conserve_probability_and_leakage(runner):
    result = invoke(
        runner,
        ["populations", "--atom", "e", "--fock", "1", "--steps", "8", "--order", "2",
         "--format", "json"],
    )
    assert result.exit_code == 0
    data = json_payload(result)["data"]
    assert max(data["leakage"]) < 1e-10
    for i in range(len(data["t"])):
        total = data["P_g"][i] + data["P_e"][i] + data["P_f"][i]
        assert total == pytest.approx(1.0, abs=1e-9)
    # the exchange actually moves population out of the start level
    assert min(data["P_e"]) < 0.99


START_STATES = [
    (atom, fock, theta) for atom in ("g", "e", "f") for fock, theta in ((0, None), (1, None), (0, 0.4))
]


def _start_args(atom, fock, theta):
    args = ["--atom", atom, "--fock", str(fock)]
    return args + (["--theta-f", str(theta)] if theta is not None else [])


def _gate_level_reference(metadata, atom, fock, theta):
    """The run's prepare and step circuits, rebuilt from its metadata."""
    params = metadata["params"]
    p = ModelParams(omega_f=params["omega_f"], omega_levels=params["omega_levels"],
                    g_couplings=params["g_couplings"])
    plan = metadata["plan"]
    step = build_step(p, plan["order"], plan["dt"])
    return prepare_initial_state(atom, fock_n=fock, theta_f=theta), step


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("atom,fock,theta", START_STATES)
def test_populations_match_gate_by_gate_simulation(runner, order, atom, fock, theta):
    steps = 25
    result = invoke(runner, ["populations", "--order", str(order), "--steps", str(steps),
                             "--coupling-ef", str(1.7 * G), "--format", "json",
                             *_start_args(atom, fock, theta)])
    assert result.exit_code == 0, result.output
    payload = json_payload(result)
    prep, step = _gate_level_reference(payload["metadata"], atom, fock, theta)
    state = run_circuit(prep, basis_state(0, 4))
    expected = {"P_g": [], "P_e": [], "P_f": [], "leakage": []}
    for k in range(steps + 1):
        if k:
            state = run_circuit(step, state)
        system = strip_ancilla(state)
        for level, value in populations(system).items():
            expected[f"P_{level}"].append(value)
        expected["leakage"].append(leakage_probability(system))
    data = payload["data"]
    assert data["t"] == pytest.approx([k * payload["metadata"]["plan"]["dt"] for k in range(steps + 1)],
                                      rel=1e-15)
    for name, values in expected.items():
        assert np.max(np.abs(np.array(data[name]) - values)) <= 1e-12, name


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("atom,fock,theta", START_STATES)
def test_sample_matches_gate_by_gate_simulation(runner, order, atom, fock, theta):
    steps, shots, seed = 25, 4096, 5
    result = invoke(runner, ["sample", "--order", str(order), "--steps", str(steps),
                             "--shots", str(shots), "--seed", str(seed), "--coupling-ef", str(1.7 * G),
                             "--format", "json", *_start_args(atom, fock, theta)])
    assert result.exit_code == 0, result.output
    payload = json_payload(result)
    prep, step = _gate_level_reference(payload["metadata"], atom, fock, theta)
    system = strip_ancilla(run_circuit(prep.extended(compose_steps(step, steps)), basis_state(0, 4)))
    assert payload["data"] == sample_measurements(system, shots, seed).to_json_dict()


def test_populations_metadata_carries_plan(runner):
    result = invoke(runner, ["populations", "--steps", "2", "--format", "json"])
    plan = json_payload(result)["metadata"]["plan"]
    assert plan["order"] == 1
    assert plan["steps"] == 2
    assert len(plan["angle_table"]) == 6


def test_populations_max_pf_threshold(runner):
    result = invoke(runner, ["populations", "--atom", "f", "--steps", "2", "--max-pf", "0.5"])
    assert result.exit_code == 2
    assert "threshold failure" in result.output


def test_fidelity_reproduces_reported_values(runner):
    result = invoke(runner, ["fidelity", "--format", "json"])
    assert result.exit_code == 0
    rows = json_payload(result)["data"]
    table = {(row["backend"], row["order"]): row["F"] for row in rows}
    assert abs(table[("ibm_torino", 1)] - 0.9007) < 1e-4
    assert table[("ibm_marrakesh", 1)] == pytest.approx(0.946, abs=3e-3)
    assert table[("ibm_fez", 2)] == pytest.approx(0.881, abs=3e-3)


def test_fidelity_expectation_file(runner, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"tolerance": 0.003, "fidelity": {"ibm_torino": {"1": 0.9007}}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tolerance": 0.003, "fidelity": {"ibm_torino": {"1": 0.95}}}))
    assert invoke(runner, ["fidelity", "--expect", str(good)]).exit_code == 0
    result = invoke(runner, ["fidelity", "--expect", str(bad)])
    assert result.exit_code == 2
    assert "threshold failure" in result.output


def test_fidelity_accepts_custom_calibration_files(runner, tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(
        json.dumps(
            {
                "backend": "local_device",
                "median_1q_error": 1e-4,
                "median_2q_error": 1e-3,
                "median_readout_error": 1e-2,
                "rccx_2q_count": 3,
            }
        )
    )
    result = invoke(runner, ["fidelity", "--calib", str(path), "--format", "json"])
    assert result.exit_code == 0
    rows = json_payload(result)["data"]
    assert {row["backend"] for row in rows} == {"local_device"}


def test_sample_is_byte_deterministic(runner):
    args = ["sample", "--shots", "300", "--seed", "11", "--readout-flip", "0.02"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_sample_seed_from_environment(runner):
    via_env = invoke(runner, ["sample", "--shots", "200", "--format", "json"],
                     env={"JC_SEED": "77"})
    via_flag = invoke(runner, ["sample", "--shots", "200", "--seed", "77", "--format", "json"])
    assert json_payload(via_env)["metadata"]["seed"] == 77
    assert json_payload(via_env)["data"] == json_payload(via_flag)["data"]
    bad = invoke(runner, ["sample"], env={"JC_SEED": "abc"})
    assert bad.exit_code == 1


def test_sample_default_seed_is_stable(runner):
    result = invoke(runner, ["sample", "--shots", "10", "--format", "json"], env={"JC_SEED": None})
    assert json_payload(result)["metadata"]["seed"] == 1234


def test_sample_without_steps_measures_the_prepared_state(runner):
    result = invoke(
        runner,
        ["sample", "--atom", "e", "--steps", "0", "--shots", "64", "--format", "json"],
    )
    payload = json_payload(result)
    assert payload["data"]["counts"] == {"010": 64}


def test_sample_readout_flip_statistics(runner):
    shots = 4096
    result = invoke(
        runner,
        ["sample", "--atom", "g", "--steps", "0", "--shots", str(shots),
         "--readout-flip", "0.03", "--seed", "2", "--format", "json"],
    )
    counts = json_payload(result)["data"]["counts"]
    survive = 0.97**3
    sigma = math.sqrt(shots * survive * (1 - survive))
    assert abs(counts["000"] - shots * survive) < 5 * sigma


def test_validation_failures_exit_one(runner, tmp_path):
    assert invoke(runner, ["rabi", "--t-max", "-1"]).exit_code == 1
    assert invoke(runner, ["populations", "--dt", "-0.1"]).exit_code == 1
    assert invoke(runner, ["sample", "--theta-f", "0.8"]).exit_code == 1
    assert invoke(runner, ["populations", "--coupling", "0"]).exit_code == 1
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    bad_order = tmp_path / "bad_order.json"
    bad_order.write_text(json.dumps({"fidelity": {"ibm_fez": {"first": 0.9}}}))
    rejected = [
        ["populations", "--phase-budget", "5"],
        ["populations", "--dt", "nan"],
        ["populations", "--dt", "inf"],
        ["sample", "--phase-budget", "5"],
        ["sample", "--dt", "nan"],
        ["fidelity", "--expect", str(malformed)],
        ["fidelity", "--expect", str(bad_order)],
        ["rabi", "--points", "3", "--out", str(tmp_path / "missing" / "x.csv")],
        ["rabi", "--t-max", "nan"],
        ["entropy", "--t-max", "nan"],
        ["lambda", "--t-max", "nan"],
        ["lambda", "--t-max", "inf"],
        ["lambda", "--initial", "nan,0,0"],
        ["lambda", "--initial", "1,inf,0"],
        ["populations", "--max-pf", "nan"],
        ["lambda", "--omega-p", "0", "--omega-c", "0"],
        ["lambda", "--omega-p", "nan"],
        ["lambda", "--omega-c", "inf"],
        ["lambda", "--points", "5", "--t-max", "1e300"],
        ["lambda", "--omega-c", "1e300", "--t-max", "357740934.0"],
        ["lambda", "--points", "2", "--t-max", "5e-324"],
        ["sample", "--readout-flip", "nan"],
        ["sample", "--readout-flip", "-inf"],
    ]
    for args in rejected:
        result = invoke(runner, args)
        assert result.exit_code == 1, (args, result.output)
        assert isinstance(result.exception, SystemExit), (args, result.exception)
        assert "nan" not in result.stdout.lower(), args
        assert "Traceback" not in result.output, args
        assert [line for line in result.output.splitlines() if line.startswith("Error:")], args


@pytest.mark.parametrize("order", [1, 2])
def test_default_dt_keeps_every_exchange_within_the_phase_budget(runner, order):
    budget = 0.15
    result = invoke(runner, ["populations", "--coupling-ef", "5e6", "--steps", "3",
                             "--order", str(order), "--phase-budget", str(budget),
                             "--format", "json"])
    assert result.exit_code == 0, result.output
    plan = json_payload(result)["metadata"]["plan"]
    exchanges = [row for row in plan["angle_table"] if row["term"].startswith("exchange")]
    assert len(exchanges) == 2
    for row in exchanges:
        # one rounding of budget / g is allowed
        assert abs(row["coefficient"]) * plan["dt"] <= budget * (1 + 1e-12), row


def test_out_writes_file_and_keeps_stdout_clean(runner, tmp_path):
    target = tmp_path / "out.csv"
    result = invoke(runner, ["rabi", "--points", "3", "--out", str(target)])
    assert result.exit_code == 0
    assert result.output == ""
    lines = target.read_text().splitlines()
    assert lines[0].startswith("# metadata: ")
    assert lines[1] == "t,P_e,P_g,P_e_exact,P_g_exact"
    assert len(lines) == 5


# -- bounded fuzz over every command ---------------------------------------------

EDGE_FLOATS = [math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 0.0, -1.0, 0.3, 2.0, G]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
MODEL_FLOAT_OPTIONS = ["--coupling", "--coupling-ef", "--omega-f", "--omega-e", "--omega-upper"]
FLOAT_OPTIONS = {
    "rabi": ["--t-max", *MODEL_FLOAT_OPTIONS],
    "entropy": ["--nbar", "--t-max", *MODEL_FLOAT_OPTIONS],
    "lambda": ["--omega-p", "--omega-c", "--t-max"],
    "trotter-compare": MODEL_FLOAT_OPTIONS,
    "populations": ["--max-pf", "--theta-f", "--dt", "--phase-budget", *MODEL_FLOAT_OPTIONS],
    "fidelity": [],
    "sample": ["--readout-flip", "--theta-f", "--dt", "--phase-budget", *MODEL_FLOAT_OPTIONS],
}
INT_OPTIONS = {
    "rabi": {"--points": (2, 50), "--photon-n": (0, 10**6)},
    "entropy": {"--points": (2, 50), "--n-max": (1, 20)},
    "lambda": {"--points": (2, 50)},
    "trotter-compare": {},
    "populations": {"--steps": (0, 20), "--order": (1, 2), "--fock": (0, 1)},
    "fidelity": {"--measured-qubits": (0, 8)},
    "sample": {"--steps": (0, 20), "--shots": (1, 100), "--order": (1, 2), "--seed": (-2, 2**40)},
}
LIST_OPTIONS = {"lambda": ("--initial", 3), "trotter-compare": ("--budgets", 4)}


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(ALL_COMMANDS))
    args = [command, "--format", "json"]
    for option in FLOAT_OPTIONS[command]:
        if draw(st.booleans()):
            args += [option, repr(draw(FLOATS))]
    for option, (lo, hi) in INT_OPTIONS[command].items():
        if draw(st.booleans()):
            args += [option, str(draw(st.integers(lo, hi)))]
    if command in LIST_OPTIONS and draw(st.booleans()):
        option, size = LIST_OPTIONS[command]
        args += [option, ",".join(repr(v) for v in draw(st.lists(FLOATS, min_size=size, max_size=size)))]
    return args


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_every_command_ends_cleanly_on_any_input(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    if result.exit_code == 0:
        assert _all_finite(json.loads(result.stdout)), (args, result.stdout)
