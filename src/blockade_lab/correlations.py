"""Photon statistics and atomic coherence from numerically obtained states."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .lindblad import RK4Propagator, _check_step, vectorize
from .quantum_core import (
    HilbertConfig,
    SystemParams,
    _read_only,
    lowering_operators,
    partial_trace_cavity,
)


@dataclass(frozen=True)
class CorrelationCurve:
    """g2 values over a grid of delays, normalized by the stationary <a'a>^2."""

    tau: np.ndarray
    values: np.ndarray
    normalization: float


@cache
def _photon_operators(h: HilbertConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only a'a and a'a'aa on truncation h, built once per truncation.

    The products are taken left to right, as in the expressions
    Tr(a'a rho) and Tr(a'a'aa rho) they stand for, so each observable keeps
    the bits of that expression.
    """
    a, _ = lowering_operators(h)
    ad = a.conj().T
    return _read_only(ad @ a), _read_only(ad @ ad @ a @ a)


def mean_photon(rho: np.ndarray, h: HilbertConfig) -> float:
    """Stationary intracavity photon number Tr(rho a'a)."""
    number, _ = _photon_operators(h)
    val = complex(np.trace(number @ rho))
    return float(val.real)


def _g2_numerator(rho: np.ndarray, h: HilbertConfig) -> float:
    _, pairs = _photon_operators(h)
    return float(np.trace(pairs @ rho).real)


def _require_two_photons(h: HilbertConfig) -> None:
    if h.n_max < 2:
        raise ValueError(f"g2 needs n_max >= 2: a'a'aa is the zero operator at n_max {h.n_max}")


def g2_zero_numeric(rho_ss: np.ndarray, h: HilbertConfig) -> float:
    """Equal-time second-order correlation Tr(rho a'a'aa) / Tr(rho a'a)^2.

    rho_ss is Hermitian, so both traces are real. Undefined for an empty
    cavity, where Tr(rho a'a) <= 1e-14, and for n_max < 2, where no two
    photons fit in the cavity; both raise ValueError.
    """
    _require_two_photons(h)
    nbar = mean_photon(rho_ss, h)
    if nbar <= 1e-14:
        raise ValueError(f"mean photon number {nbar:.3e} too small for g2")
    return _g2_numerator(rho_ss, h) / nbar**2


def atom_coherence_numeric(rho_ss: np.ndarray, h: HilbertConfig) -> float:
    """l1-norm coherence of the reduced atomic state.

    For a 2x2 Hermitian state this is twice the modulus of the off-diagonal
    element. Tiny negative eigenvalues from numerics are left alone; the
    off-diagonal is used as is.
    """
    rho_atom = partial_trace_cavity(rho_ss, h)
    return float(2.0 * abs(rho_atom[0, 1]))


def default_tau_grid(p: SystemParams, n_points: int = 200) -> np.ndarray:
    """Delay grid spanning [0, 20 / min(kappa, gamma)].

    The first tenth of the points is linear from zero (a geometric grid cannot
    reach it), the rest geometric out to the endpoint.
    """
    slowest = min(p.kappa, p.gamma)
    if slowest <= 0:
        raise ValueError("default tau grid needs kappa > 0 and gamma > 0")
    if n_points < 4:
        raise ValueError("n_points must be at least 4")
    t_max = 20.0 / slowest
    t_knee = t_max / 1000.0
    n_head = max(2, n_points // 10)
    head = np.linspace(0.0, t_knee, n_head, endpoint=False)
    tail = np.geomspace(t_knee, t_max, n_points - n_head)
    return np.concatenate([head, tail])


def g2_tau(rho_ss: np.ndarray, liou: np.ndarray, h: HilbertConfig,
           tau_grid: np.ndarray, dt: float) -> CorrelationCurve:
    """Delayed second-order correlation via the regression theorem.

    G2(tau) = Tr[a'a exp(L tau)(a rho_ss a')], normalized by the stationary
    <a'a>^2. The collapsed state a rho_ss a' is Hermitian, so its real
    coordinates are propagated by the real Liouvillian liou, and the trace
    is their dot product with the coordinates of a'a. The state is propagated
    once, sequentially through the ascending grid, each delay reusing the
    segment before it; one RK4 propagator, and so one set of step-matrix
    powers, serves the whole grid. Raises ValueError for n_max < 2.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size < 1:
        raise ValueError("tau_grid must be a 1d array")
    if tau_grid[0] != 0.0 or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau_grid must ascend strictly from 0")
    _check_step(liou, dt)
    _require_two_photons(h)

    a, _ = lowering_operators(h)
    num_op, _ = _photon_operators(h)
    nbar = mean_photon(rho_ss, h)
    if nbar <= 1e-14:
        raise ValueError(f"mean photon number {nbar:.3e} too small for g2")
    norm = nbar**2

    propagator = RK4Propagator(liou, dt)
    number = vectorize(num_op)
    vec = vectorize(a @ rho_ss @ a.conj().T)
    values = np.empty(tau_grid.size, dtype=float)
    previous = 0.0
    for k, tau in enumerate(tau_grid):
        if tau > previous:
            vec = propagator.advance(vec, tau - previous)
            previous = tau
        values[k] = (number @ vec) / norm
    return CorrelationCurve(tau=tau_grid, values=values, normalization=norm)
