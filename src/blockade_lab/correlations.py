"""Photon statistics and atomic coherence from numerically obtained states."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import first_failures
from .lindblad import RK4Propagator, _check_step, vectorize
from .quantum_core import (
    HilbertConfig,
    SystemParams,
    _photon_counts,
    _read_only,
    lowering_operators,
)


@dataclass(frozen=True)
class CorrelationCurve:
    """g2 values over a grid of delays, normalized by the stationary <a'a>^2."""

    tau: np.ndarray
    values: np.ndarray
    normalization: float


@cache
def _functionals(h: HilbertConfig) -> np.ndarray:
    """Read-only (4, n) matrix whose rows read observables off real coordinates.

    For a Hermitian operator O, Tr(O rho) is the dot product of the real
    coordinates of O and of rho, since the basis of the coordinates is
    orthonormal and real. The rows are those of a'a, a'a'aa and the two
    Hermitian halves of s+ = |e><g| (x) 1, (s+ + s-)/2 and (s+ - s-)/2i,
    whose expectations are the real and imaginary parts of
    Tr(s+ rho) = rho_atom[0, 1]. a'a and a'a'aa are the diagonals n and
    n (n - 1) of the photon counts, exact integers; the products a' @ a and
    a' @ a' @ a @ a would round them (to 2.0000000000000004 at n = 2 and
    6.000000000000001 at n = 3).
    """
    _, sm = lowering_operators(h)
    sp = sm.conj().T
    n = _photon_counts(h)
    ops = (np.diag(n), np.diag(n * (n - 1)), (sp + sm) / 2, (sp - sm) / 2j)
    return _read_only(np.array([vectorize(op) for op in ops]))


def steady_observables(vecs: np.ndarray, h: HilbertConfig) -> tuple[dict[str, np.ndarray], dict]:
    """The numeric outputs at each row of (N, n) steady-state coordinates.

    Returns the columns mean_photon (Tr(rho a'a)), g2_numeric
    (Tr(rho a'a'aa) / Tr(rho a'a)^2) and coh_numeric (the l1-norm coherence
    of the reduced atomic state, 2 |rho_atom[0, 1]|), and a dict from each row
    where g2 is undefined to its ValueError. g2 is undefined for an empty
    cavity, where Tr(rho a'a) <= 1e-14, and at n_max < 2, where no two photons
    fit in the cavity; it is NaN there. Each expectation is an elementwise
    product with the functionals, summed along the row, so a row's bits do
    not depend on the rows evaluated with it.
    """
    number, pairs, re, im = np.sum(vecs[:, None, :] * _functionals(h), axis=-1).T
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = pairs / number**2
    failures = first_failures(
        (np.full(len(vecs), h.n_max < 2), lambda r: ValueError(
            f"g2 needs n_max >= 2: a'a'aa is the zero operator at n_max {h.n_max}")),
        (number <= 1e-14, lambda r: ValueError(
            f"mean photon number {number[r]:.3e} too small for g2")),
    )
    g2[list(failures)] = np.nan
    return {"mean_photon": number, "g2_numeric": g2, "coh_numeric": 2.0 * np.hypot(re, im)}, failures


def _observables(rho: np.ndarray, h: HilbertConfig) -> tuple[dict[str, float], dict]:
    values, failures = steady_observables(vectorize(rho)[None], h)
    return {name: float(column[0]) for name, column in values.items()}, failures


def mean_photon(rho: np.ndarray, h: HilbertConfig) -> float:
    """Stationary intracavity photon number Tr(rho a'a) of a Hermitian rho."""
    return _observables(rho, h)[0]["mean_photon"]


def g2_zero_numeric(rho_ss: np.ndarray, h: HilbertConfig) -> float:
    """Equal-time second-order correlation Tr(rho a'a'aa) / Tr(rho a'a)^2.

    rho_ss is Hermitian, so both traces are real. Undefined for an empty
    cavity, where Tr(rho a'a) <= 1e-14, and for n_max < 2, where no two
    photons fit in the cavity; both raise ValueError.
    """
    values, failures = _observables(rho_ss, h)
    if failures:
        raise failures[0]
    return values["g2_numeric"]


def atom_coherence_numeric(rho_ss: np.ndarray, h: HilbertConfig) -> float:
    """l1-norm coherence of the reduced atomic state of a Hermitian rho.

    For a 2x2 Hermitian state this is twice the modulus of the off-diagonal
    element. Tiny negative eigenvalues from numerics are left alone; the
    off-diagonal is used as is.
    """
    return _observables(rho_ss, h)[0]["coh_numeric"]


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
    coordinates x are propagated by the real Liouvillian liou, and the trace
    is their dot product with the coordinates c of a'a. exp(L tau) is taken
    as RK4Propagator.advance takes it: n full steps of dt and one shortened
    step r, split from tau by RK4Propagator.split. The state advances by
    whole steps only, through the ascending grid, each delay reusing the
    steps before it; the shortened step is never carried forward. Being the
    Taylor polynomial sum_{j<=4} (r L)^j / j!, it is read off the state at
    n dt as sum_j r^j (w_j . x), with the rows w_j = (L^T)^j c / j! formed
    once per call. A delay's value therefore does not depend on the other
    delays of the grid. Raises ValueError where g2_zero_numeric does: for an
    empty cavity and for n_max < 2.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size < 1:
        raise ValueError("tau_grid must be a 1d array")
    if not (tau_grid[0] == 0.0 and np.all(np.diff(tau_grid) > 0) and tau_grid[-1] < np.inf):
        raise ValueError("tau_grid must be finite and ascend strictly from 0")
    _check_step(liou, dt)
    stationary, failures = _observables(rho_ss, h)
    if failures:
        raise failures[0]
    norm = stationary["mean_photon"]**2
    a, _ = lowering_operators(h)

    propagator = RK4Propagator(liou, dt)
    rows = [_functionals(h)[0]]
    for j in (1, 2, 3, 4):
        rows.append(rows[-1] @ liou / j)
    taylor = np.array(rows)
    vec = vectorize(a @ rho_ss @ a.conj().T)
    values = np.empty(tau_grid.size, dtype=float)
    done = 0
    for k, tau in enumerate(tau_grid.tolist()):
        n, r = propagator.split(tau)
        vec = propagator.steps(vec, n - done)
        done = n
        w0, w1, w2, w3, w4 = (taylor @ vec).tolist()
        values[k] = ((((w4 * r + w3) * r + w2) * r + w1) * r + w0) / norm
    return CorrelationCurve(tau=tau_grid, values=values, normalization=norm)
