"""Helpers shared by more than one test module."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from blockade_lab import SystemParams
from blockade_lab.analytic import _ode_matrix
from blockade_lab.errors import SolverError
from blockade_lab.lindblad import RK4Propagator, _check_step, unvectorize, vectorize

_FIG1 = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.01, delta_a=1.0, delta=1.0)

# Fine rows between the failing kinds: a lossless row (no dissipation), one
# whose entries overflow, one with a singular pivot and an exactly singular M,
# one that the block bound does not certify but the dense solve does
# (from n_max 2 up), and one that neither certifies.
MIXED_ROWS = np.concatenate([
    _FIG1.row(), replace(_FIG1, kappa=0.0, gamma=0.0).row(),
    replace(_FIG1, delta_a=1.7e308, delta=1.7e308).row(), replace(_FIG1, g=0.0, gamma=0.0).row(),
    SystemParams(g=4.0, kappa=0.01, gamma=0.0, eta=0.3, delta_a=1.6, delta=1.6).row(),
    SystemParams(g=0.0, kappa=0.3, gamma=1e-12, eta=0.05, delta_a=0.5, delta=0.2).row(),
    replace(_FIG1, delta_a=0.5, delta=0.5).row()])


def undrifted(pattern):
    """pattern with a zero drift, for the block kernel's solve before its refinement step.

    Solving through it, the kernel's refinement step finds no residual but
    the trace's, so it only rescales x by 2 - Tr x.
    """
    return SimpleNamespace(slots=pattern.slots, product=lambda values, vecs: np.zeros_like(vecs))


def evolve(liou: np.ndarray, rho0: np.ndarray, t_final: float, dt: float) -> np.ndarray:
    """Propagate a Hermitian density matrix to t_final with fixed-step RK4.

    The real coordinates of rho0 are propagated by L_r, so rho0 must be
    Hermitian (vectorize refuses it otherwise). No renormalization is
    applied; the trace is monitored and a drift beyond 1e-8 (relative to the
    initial trace) raises, since the generator preserves the trace exactly
    and any drift signals an unstable step.
    """
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be >= 0 and finite, got {t_final!r}")
    _check_step(liou, dt)
    rho0 = np.asarray(rho0)
    trace0 = float(np.trace(rho0).real)
    vec = RK4Propagator(liou, dt).advance(vectorize(rho0), t_final)
    rho = unvectorize(vec, rho0.shape[0])
    drift = abs(float(np.trace(rho).real) - trace0)
    if not drift <= 1e-8 * max(1.0, abs(trace0)):
        raise SolverError(f"trace drift {drift:.3e} over the run; step too coarse")
    return rho


def stage_loop_rk4(gen, vec, duration, dt, drive=0.0):
    """Reference: the stage-by-stage RK4 loop for x' = gen x + drive.

    Full steps of dt, then a shortened step landing on `duration` unless it
    is shorter than 1e-9 dt.
    """
    n_full = int(duration / dt)
    remainder = duration - n_full * dt
    steps = [dt] * n_full + ([remainder] if remainder > 1e-9 * dt else [])
    for h in steps:
        k1 = gen @ vec + drive
        k2 = gen @ (vec + 0.5 * h * k1) + drive
        k3 = gen @ (vec + 0.5 * h * k2) + drive
        k4 = gen @ (vec + h * k3) + drive
        vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return vec


def _amplitude_rk4(p, t_final, dt):
    """(c1g, c0e, c2g, c1e) at t_final from the vacuum, with no gate.

    The propagation of integrate_amplitude_odes: RK4Propagator on the
    generator [[M, b], [0, 0]] of _ode_matrix, advanced to 0.9 t_final and
    then on to t_final. Use it to look at a transient.
    """
    propagator = RK4Propagator(_ode_matrix(p), dt)
    t_mark = 0.9 * t_final
    z = propagator.advance(np.array([0, 0, 0, 0, 1], dtype=complex), t_mark)
    return propagator.advance(z, t_final - t_mark)[:4]


@pytest.fixture
def amplitude_rk4():
    return _amplitude_rk4
