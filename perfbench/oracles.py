"""Independent checks of every CLI output.

Nothing here imports jcsim: each oracle rebuilds what it needs from the
request's own parameters with plain numpy, from the model as the README
specifies it (encoded basis, Hamiltonian, defaults).  The checks:

- populations / sample: every row equals the hand-built Lie (order 1) or
  Strang (order 2) split applied k times, to 1e-9, and lies within the
  accumulated bound 2 k eps of the exact evolution, where eps is the
  per-step error of that split; leakage <= 1e-10.  Histograms sum to the shot
  count, agree bin by bin with the split's distribution after readout flips
  (6 sigma), and a repeated request with the same seed gives the same
  histogram.
- trotter-compare: the dt grid, every per-step error (recomputed from the
  hand-built splits) and both fitted slopes.
- entropy: a per-manifold closed form of the resonant two-level model.
- lambda: the exact 3x3 propagator exp(i M t / 2).
- rabi: P_e = cos^2, P_e + P_g = 1, and the exact-propagator columns.
- fidelity: exp(-sum n e) from the calibration JSON files.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import G, Request, expected_fidelities

#: Physical basis indices of the encoded (q2 q1 q0) register.
VALID = np.array([0, 1, 2, 3, 6, 7])
LEVEL_OF = {0: "g", 1: "g", 2: "e", 3: "e", 6: "f", 7: "f"}
LEAKAGE_LIMIT = 1e-10
PHASE_BUDGET = 0.15


class OutputError(ValueError):
    """The output does not parse as the command's documented format."""


# --------------------------------------------------------------------------
# parsing


def _split(text: str, fmt: str):
    if fmt == "json":
        payload = json.loads(text)
        return payload["metadata"], payload["data"]
    first, _, body = text.partition("\n")
    prefix = "# metadata: "
    if not first.startswith(prefix):
        raise OutputError("CSV output lacks its metadata line")
    rows = [row for row in csv.reader(io.StringIO(body)) if row]
    return json.loads(first[len(prefix):]), rows


def _columns(text: str, fmt: str) -> tuple[dict, dict[str, np.ndarray]]:
    meta, data = _split(text, fmt)
    if fmt == "json":
        return meta, {name: np.asarray(values, dtype=float) for name, values in data.items()
                      if isinstance(values, list)}
    header, *rows = data
    table = np.array([[float(v) for v in row] for row in rows], dtype=float)
    if table.shape != (len(rows), len(header)):
        raise OutputError("ragged CSV table")
    return meta, {name: table[:, j] for j, name in enumerate(header)}


def _histogram(text: str, fmt: str) -> tuple[dict, dict[str, int]]:
    meta, data = _split(text, fmt)
    if fmt == "json":
        return meta, {str(k): int(v) for k, v in data["counts"].items()}
    header, *rows = data
    if header != ["bitstring", "count"]:
        raise OutputError(f"unexpected histogram header {header}")
    return meta, {row[0]: int(row[1]) for row in rows}


# --------------------------------------------------------------------------
# the encoded three-level model, built by hand


def three_level_parts(coupling_ef: float, omega_upper: float | None = None):
    """(diagonal H_d, exchange H_x) on the 8-dim register, CLI default frequencies."""
    w_f = G
    w_e = w_f
    w_u = 2.5 * w_f if omega_upper is None else omega_upper
    energy = {0: 0.0, 1: w_f, 2: w_e, 3: w_f + w_e, 6: w_u, 7: w_f + w_u}
    h_d = np.zeros((8, 8))
    for index, e in energy.items():
        h_d[index, index] = e
    h_x = np.zeros((8, 8))
    h_x[1, 2] = h_x[2, 1] = G              # |g,1> <-> |e,0>
    h_x[3, 6] = h_x[6, 3] = coupling_ef    # |e,1> <-> |f,0>
    return h_d, h_x


def _expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def split_step(h_d: np.ndarray, h_x: np.ndarray, order: int, dt: float) -> np.ndarray:
    """Lie (order 1) or Strang (order 2) product of the two parts."""
    diag = np.diag(h_d)
    exchange = _expm_hermitian(h_x, dt)
    if order == 1:
        return exchange @ np.diag(np.exp(-1j * diag * dt))
    half = np.diag(np.exp(-0.5j * diag * dt))
    return half @ exchange @ half


def aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Spectral norm of u - e^{i phi} v on the physical block, best Frobenius phase."""
    a = u[np.ix_(VALID, VALID)]
    b = v[np.ix_(VALID, VALID)]
    overlap = np.trace(b.conj().T @ a)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.linalg.norm(a - phase * b, 2))


def step_error(h_d: np.ndarray, h_x: np.ndarray, order: int, dt: float) -> float:
    return aligned_distance(split_step(h_d, h_x, order, dt), _expm_hermitian(h_d + h_x, dt))


def initial_state(atom: str, fock: int, theta_f: float | None) -> np.ndarray:
    base = {"g": 0, "e": 2, "f": 6}[atom]
    psi = np.zeros(8, dtype=complex)
    if theta_f is None:
        psi[base + fock] = 1.0
    else:
        psi[base] = math.cos(theta_f / 2)
        psi[base + 1] = math.sin(theta_f / 2)
    return psi


def level_populations(states: np.ndarray) -> dict[str, np.ndarray]:
    """P_g, P_e, P_f of columns of 8-dim states."""
    prob = np.abs(states) ** 2
    return {level: sum(prob[i] for i in VALID if LEVEL_OF[int(i)] == level)
            for level in ("g", "e", "f")}


def _digitized_reference(req: Request, meta: dict):
    """(dt, states under the hand-built split, exact states, per-step error eps) at k dt."""
    p = req.params
    plan = meta["plan"]
    if int(plan["order"]) != p["order"] or int(plan["steps"]) != p["steps"]:
        raise OutputError("plan order/steps differ from the request")
    dt = float(plan["dt"])
    if not 0 < dt <= PHASE_BUDGET / G * (1 + 1e-12):
        raise OutputError(f"step dt={dt} outside (0, budget/g]")
    h_d, h_x = three_level_parts(p["coupling_ef"])
    psi = initial_state(p["atom"], p["fock"], p["theta_f"])
    step = split_step(h_d, h_x, p["order"], dt)
    split = np.empty((8, p["steps"] + 1), dtype=complex)
    for k in range(p["steps"] + 1):
        split[:, k] = psi
        psi = step @ psi
    w, v = np.linalg.eigh(h_d + h_x)
    times = dt * np.arange(p["steps"] + 1)
    exact = v @ (np.exp(-1j * np.outer(w, times)) * (v.conj().T @ split[:, 0])[:, None])
    return dt, split, exact, step_error(h_d, h_x, p["order"], dt)


# --------------------------------------------------------------------------
# per-command checks; each returns a list of problems


def _close(name: str, got, want, atol: float, rtol: float = 0.0) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(excess <= 0):        # NaN-safe
        i = int(np.nanargmax(np.where(np.isnan(excess), np.inf, excess)))
        return [f"{name}[{i}]: {got.flat[i]!r} vs {want.flat[i]!r}"]
    return []


def check_populations(req: Request, text: str, state: dict) -> list[str]:
    meta, cols = _columns(text, req.params["format"])
    dt, split, exact, eps = _digitized_reference(req, meta)
    k = np.arange(req.params["steps"] + 1)
    problems = _close("t", cols["t"], k * dt, atol=0.0, rtol=1e-12)
    digitized = level_populations(split)
    exact = level_populations(exact)
    bound = 2.0 * k * eps + 1e-9
    for level in ("g", "e", "f"):
        got = cols[f"P_{level}"]
        problems += _close(f"P_{level}", got, digitized[level], atol=1e-9)
        excess = np.abs(got - exact[level]) - bound
        if not np.all(excess <= 0):
            i = int(np.argmax(np.where(np.isnan(excess), np.inf, excess)))
            problems.append(f"P_{level} at step {i} misses the exact value by more than "
                            f"2*k*eps={bound[i]:.3e}")
    if not np.all(cols["leakage"] <= LEAKAGE_LIMIT):
        problems.append(f"leakage {np.nanmax(cols['leakage'])!r} above {LEAKAGE_LIMIT}")
    return problems


def _flip_distribution(prob: np.ndarray, flip: float) -> np.ndarray:
    """Distribution of 3-bit outcomes after independent per-bit flips."""
    out = np.zeros(8)
    for i in range(8):
        for j in range(8):
            d = bin(i ^ j).count("1")
            out[j] += prob[i] * flip**d * (1.0 - flip) ** (3 - d)
    return out


def check_sample(req: Request, text: str, state: dict) -> list[str]:
    p = req.params
    meta, counts = _histogram(text, p["format"])
    problems = []
    shots = p["shots"]
    if sum(counts.values()) != shots:
        problems.append(f"histogram sums to {sum(counts.values())}, not {shots} shots")
    if any(len(b) != 3 or set(b) - {"0", "1"} or c < 0 for b, c in counts.items()):
        problems.append("histogram has a malformed bin")
        return problems
    dt, split, exact, eps = _digitized_reference(req, meta)
    if not np.all(np.abs(np.abs(split[:, -1]) ** 2 - np.abs(exact[:, -1]) ** 2)
                  <= 2.0 * p["steps"] * eps + 1e-9):
        problems.append("hand-built split leaves the accumulated error bound")
    expected = shots * _flip_distribution(np.abs(split[:, -1]) ** 2, p["readout_flip"])
    for j in range(8):
        got = counts.get(format(j, "03b"), 0)
        sigma = math.sqrt(expected[j] * max(0.0, 1.0 - expected[j] / shots))
        if abs(got - expected[j]) > 6.0 * sigma + 4.0:
            problems.append(f"bin {j:03b}: {got} counts, exact distribution expects "
                            f"{expected[j]:.1f}")
    twins = state.setdefault("histograms", {})
    if req.group in twins:
        if twins[req.group] != counts:
            problems.append("same request and seed gave a different histogram")
    else:
        twins[req.group] = counts
    return problems


def check_trotter_compare(req: Request, text: str, state: dict) -> list[str]:
    p = req.params
    meta, cols = _columns(text, p["format"])
    dts = np.array(sorted(p["budgets"], reverse=True)) / G
    problems = _close("dt", cols["dt"], dts, atol=0.0, rtol=1e-12)
    if problems:
        return problems
    h_d, h_x = three_level_parts(p["coupling_ef"], p["omega_upper"])
    for order in (1, 2):
        want = [step_error(h_d, h_x, order, dt) for dt in dts]
        got = cols[f"error_order{order}"]
        problems += _close(f"error_order{order}", got, want, atol=1e-12, rtol=1e-6)
        slope = float(np.polyfit(np.log(dts), np.log(np.maximum(got, 1e-300)), 1)[0])
        problems += _close(f"slope{order}", meta["slopes"][str(order)], slope, atol=1e-9)
    return problems


def check_entropy(req: Request, text: str, state: dict) -> list[str]:
    p = req.params
    meta, cols = _columns(text, p["format"])
    times = np.linspace(0.0, 10.0 / G, p["points"])
    shown = times * G if p["time_unit"] == "gt" else times
    problems = _close("t", cols["t"], shown, atol=0.0, rtol=1e-12)
    # coherent amplitudes, renormalized over 0..n_max
    ns = np.arange(p["n_max"] + 1)
    log_w = -p["nbar"] + ns * math.log(p["nbar"]) - np.array([math.lgamma(n + 1) for n in ns])
    c = np.sqrt(np.exp(log_w) / np.exp(log_w).sum())
    # manifold n: |n,e> <-> |n+1,g> at rate g sqrt(n+1); |n_max,e> has no partner
    rate = G * np.sqrt(ns + 1.0)
    rate[-1] = 0.0
    phase = np.outer(times, rate)
    cos, sin = np.cos(phase), np.sin(phase)
    rho_ee = (c**2 * cos**2).sum(axis=1)
    rho_eg = (c[1:] * c[:-1] * cos[:, 1:] * sin[:, :-1]).sum(axis=1)
    radius = np.sqrt((rho_ee - 0.5) ** 2 + rho_eg**2)
    lam = np.clip(np.stack([0.5 + radius, 0.5 - radius]), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam > 0, -lam * np.log(np.where(lam > 0, lam, 1.0)), 0.0)
    entropy = terms.sum(axis=0)
    name = "entropy_nats"
    if p["entropy_unit"] == "bits":
        entropy = entropy / math.log(2.0)
        name = "entropy_bits"
    return problems + _close(name, cols[name], entropy, atol=1e-8)


def check_rabi(req: Request, text: str, state: dict) -> list[str]:
    p = req.params
    meta, cols = _columns(text, p["format"])
    times = np.linspace(0.0, 10.0 / G, p["points"])
    shown = times * G if p["time_unit"] == "gt" else times
    problems = _close("t", cols["t"], shown, atol=0.0, rtol=1e-12)
    p_e = np.cos(G * math.sqrt(p["photon_n"] + 1) * times) ** 2
    problems += _close("P_e", cols["P_e"], p_e, atol=1e-12)
    problems += _close("P_e + P_g", cols["P_e"] + cols["P_g"], np.ones_like(times), atol=1e-12)
    problems += _close("P_e_exact", cols["P_e_exact"], p_e, atol=1e-9)
    problems += _close("P_g_exact", cols["P_g_exact"], 1.0 - p_e, atol=1e-9)
    return problems


def check_lambda(req: Request, text: str, state: dict) -> list[str]:
    p = req.params
    meta, cols = _columns(text, p["format"])
    w_p, w_c = p["omega_p"], p["omega_c"]
    times = np.linspace(0.0, 20.0 * math.pi / max(w_p, w_c), p["points"])
    shown = times * w_p if p["time_unit"] == "gt" else times
    problems = _close("t", cols["t"], shown, atol=0.0, rtol=1e-12)
    c0 = np.array(p["initial"], dtype=complex)
    c0 = c0 / np.linalg.norm(c0)
    m = np.array([[0.0, 0.0, w_p], [0.0, 0.0, w_c], [w_p, w_c, 0.0]])
    w, v = np.linalg.eigh(m)
    amps = v @ (np.exp(0.5j * np.outer(w, times)) * (v.T @ c0)[:, None])
    for k in range(3):
        problems += _close(f"P{k + 1}", cols[f"P{k + 1}"], np.abs(amps[k]) ** 2, atol=1e-8)
    return problems


def check_fidelity(req: Request, text: str, state: dict) -> list[str]:
    p = req.params
    meta, data = _split(text, p["format"])
    if p["format"] == "json":
        rows = [(r["backend"], int(r["order"]), int(r["n_1q"]), int(r["n_2q"]), int(r["n_meas"]),
                 float(r["F"])) for r in data]
    else:
        header, *body = data
        col = {name: j for j, name in enumerate(header)}
        rows = [(r[col["backend"]], int(r[col["order"]]), int(r[col["n_1q"]]),
                 int(r[col["n_2q"]]), int(r[col["n_meas"]]), float(r[col["F"]])) for r in body]
    want = expected_fidelities(p["measured_qubits"])
    if {(r[0], r[1]) for r in rows} != set(want) or len(rows) != len(want):
        return [f"rows {sorted((r[0], r[1]) for r in rows)} differ from {sorted(want)}"]
    problems = []
    for backend, order, n_1q, n_2q, n_meas, f in rows:
        w_1q, w_2q, w_f = want[(backend, order)]
        if (n_1q, n_2q, n_meas) != (w_1q, w_2q, p["measured_qubits"]):
            problems.append(f"{backend} order {order}: units {(n_1q, n_2q, n_meas)}")
        problems += _close(f"F[{backend},{order}]", f, w_f, atol=0.0, rtol=1e-12)
    return problems


CHECKS = {
    "populations": check_populations,
    "sample": check_sample,
    "trotter-compare": check_trotter_compare,
    "entropy": check_entropy,
    "rabi": check_rabi,
    "lambda": check_lambda,
    "fidelity": check_fidelity,
}


class Checker:
    """Checks outputs against the oracles; remembers histograms across requests."""

    def __init__(self) -> None:
        self.state: dict = {}

    def check(self, req: Request, exit_code: int, text: str, error: str | None = None) -> list[str]:
        if error is not None:
            return [f"raised {error}"]
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            return CHECKS[req.command](req, text, self.state)
        except (OutputError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]
