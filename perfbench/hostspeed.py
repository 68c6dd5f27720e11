"""Host-speed calibration: a fixed kernel timed beside every request.

On a shared host the speed of a vCPU changes by up to a factor of two over
seconds to minutes, while the process keeps its CPU (CPU time tracks wall
time).  Every timing a run reports would carry that drift.  So the
benchmark times `kernel` right before and after each request and scales the
request's wall time by `NOMINAL_KERNEL_MS / kernel time nearby`: the result
is the request's time on a host where the kernel takes `NOMINAL_KERNEL_MS`.

The kernel is the benchmark's own code and imports nothing from jcsim, so a
change to the program cannot move it.  It runs the same kinds of small
numpy calls as the program's layers, because how much a busy host slows a
piece of code depends on what the code does: a kernel of mat-vecs alone
tracked the circuit layers' slow-downs to only about 15 %, this one to
about 5 % on every workload.  Raw wall times are kept in the run's detail
line beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's time in ms on the host speed the scaled timings refer to.
#: A round figure near its time on an idle 2-vCPU Intel Xeon VM; it only fixes
#: the unit and never changes, so runs on any host stay comparable.
NOMINAL_KERNEL_MS = 3.0

_rng = np.random.default_rng(0)
_GATE = np.linalg.qr(_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4)))[0].reshape(2, 2, 2, 2)
_H8 = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_H8 = _H8 + _H8.conj().T
_A = (_rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))) / 8.0
_V0 = _rng.normal(size=16) + 0j


def kernel() -> float:
    """Fixed work in the shapes jcsim's layers use, in roughly their proportions.

    Two-qubit gates applied to a 4-qubit state by tensordot/moveaxis (the
    circuit layers), partial traces and small Hermitian eigensolves (entropy),
    normalised 16x16 mat-vecs (small linear steps) and plain dict arithmetic.
    """
    state = _V0 / np.linalg.norm(_V0)
    for k in range(100):
        axes = [3 - k % 4, 3 - (k + 1) % 4]
        out = np.tensordot(_GATE, state.reshape(2, 2, 2, 2), axes=([2, 3], axes))
        state = np.moveaxis(out, range(2), axes).reshape(-1)
    rho = np.outer(state, state.conj()).reshape(4, 4, 4, 4)
    acc = 0.0
    for k in range(20):
        reduced = np.einsum("abcb->ac", rho)
        acc += float(np.linalg.eigvalsh(_H8 + k * np.eye(8))[0]) + float(reduced[0, 0].real)
    v = _V0.copy()
    for k in range(100):
        v = _A @ v
        v /= np.linalg.norm(v)
        acc += float(abs(v[k % 16]))
    table: dict[int, float] = {}
    for k in range(1000):
        table[k % 97] = table.get(k % 97, 0.0) + 0.5 * k
    return acc + table[0]


def kernel_ms() -> float:
    """Wall time of one `kernel` call, in ms."""
    t0 = time.perf_counter()
    kernel()
    return 1e3 * (time.perf_counter() - t0)


def settled_kernel_ms(repeats: int = 5) -> float:
    """Median kernel time after one untimed call, for a process that just started."""
    kernel()
    return statistics.median(kernel_ms() for _ in range(repeats))


def speed_factors(kernel_times: list[float]) -> list[float]:
    """Scale factor of each request from kernel times taken between requests.

    `kernel_times[j]` is taken before request j and `kernel_times[j + 1]`
    after it.  Request j uses the median of the four times around it, so one
    interrupted kernel call does not skew it.
    """
    return [NOMINAL_KERNEL_MS / statistics.median(kernel_times[max(0, j - 1):j + 3])
            for j in range(len(kernel_times) - 1)]
