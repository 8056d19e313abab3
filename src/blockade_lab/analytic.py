"""Truncated analytic branch: the two-excitation amplitude model.

With at most two excitations kept, the pure-state ansatz

    |psi> = c0g |0,g> + c1g |1,g> + c0e |0,e> + c2g |2,g> + c1e |1,e>

closes under the non-Hermitian effective evolution once c0g is frozen at 1.
Everything here is expressed through the two complex half-width detunings

    alpha = gamma/2 + i delta,     beta = kappa/2 + i delta_a,

and the recurring denominators D1 = g^2 + alpha beta and
D2 = g^2 + beta^2 + alpha beta.

The amplitude ODE (integrate_amplitude_odes) is why this module imports
RK4Propagator, its one import from lindblad, rather than copy that RK4 map;
no Liouvillian is used here, so the two branches stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotConvergedError, SingularDenominatorError, StepTooLargeError,
                     first_failures)
from .lindblad import RK4Propagator
from .quantum_core import PARAM_FIELDS, SystemParams

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class AmplitudeSet:
    """The five ansatz amplitudes with c0g first."""

    c0g: complex
    c1g: complex
    c0e: complex
    c2g: complex
    c1e: complex

    @property
    def p1(self) -> float:
        """One-photon probability |c1g|^2."""
        return abs(self.c1g) ** 2

    @property
    def p2(self) -> float:
        """Two-photon probability |c2g|^2."""
        return abs(self.c2g) ** 2


def _mul(a, b):
    """Product of complex numbers held as (real, imaginary) pairs of arrays.

    Each part is a correctly rounded real operation taken elementwise, so a
    row's bits do not depend on the rows beside it. The parts are the ones
    Python's complex product forms, so D1 and D2, which steady_amplitudes goes
    on to use as Python complex numbers, are those Python's arithmetic gives.
    """
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _abs2(a):
    """|a|^2 as the real part of a conj(a): re re - im (-im), that is re re + im im."""
    return a[0] * a[0] + a[1] * a[1]


def _denominators(rows: np.ndarray):
    """alpha, beta, g^2, D1, |D1| and D2 at each (N, 6) parameter row, and the singular rows.

    Columns are read by their PARAM_FIELDS names. Each complex quantity is
    a (real, imaginary) pair of arrays. g^2 is taken with the C library's
    pow, as Python's float power takes it. The singular rows are a (mask,
    make) case of first_failures: those where |D1| or |D2| is below 1e-12,
    with a SingularDenominatorError each.
    """
    col = dict(zip(PARAM_FIELDS, rows.T))
    alpha, beta = (col["gamma"] / 2.0, col["delta"]), (col["kappa"] / 2.0, col["delta_a"])
    gg = np.float_power(col["g"], 2.0)
    ab = _mul(alpha, beta)
    bb = _mul(beta, beta)
    d1 = (gg + ab[0], ab[1])
    d2 = (gg + bb[0] + ab[0], bb[1] + ab[1])
    abs1, abs2 = np.hypot(*d1), np.hypot(*d2)
    singular = (np.minimum(abs1, abs2) < 1e-12, lambda r: SingularDenominatorError(
        f"|D1|={abs1[r]:.3e}, |D2|={abs2[r]:.3e}; lossless parameters"))
    return alpha, beta, gg, d1, abs1, d2, singular


def closed_forms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict, dict]:
    """Closed-form weak-drive g2(0) and atomic coherence at each (N, 6) parameter row.

    Returns g2 and coherence arrays, NaN where they fail, and for each a dict
    from each failed row to its error: SingularDenominatorError where a
    denominator vanishes (lossless parameters, or alpha ~ 0 for g2), and
    OverflowError where an intermediate or the result is not finite in
    double precision. The formulas are those of g2_zero_analytic and
    atom_coherence_analytic, which evaluate this function on one row. The
    arithmetic is elementwise, so a row's bits do not depend on the other
    rows, and it runs with floating-point warnings off.
    """
    col = dict(zip(PARAM_FIELDS, rows.T))
    with np.errstate(all="ignore"):
        alpha, beta, gg, d1, abs1, d2, singular = _denominators(rows)
        aab = _mul(alpha, (alpha[0] + beta[0], alpha[1] + beta[1]))
        aa = _abs2(alpha)
        x, y, z = _abs2(d1), _abs2((gg - aab[0], -aab[1])), aa * aa * _abs2(d2)
        xy = x * y
        g2 = xy / z
        coh = 2.0 * col["g"] * col["eta"] / abs1
        # x, y and z are not negative. If x or y overflows, so does g2, and
        # if z does, g2 is NaN or 0; the finite z test catches the 0.
        tiny = z < 1e-300 * np.maximum(1.0, xy)
        g2_overflow = ~(np.isfinite(g2) & np.isfinite(z))
        coh_overflow = ~(np.isfinite(coh) & np.isfinite(abs1))

    def overflow(r):
        return OverflowError("closed form is not finite in double precision at these parameters")

    g2_failures = first_failures(
        singular,
        (tiny, lambda r: SingularDenominatorError(f"|z|={z[r]:.3e} too small (alpha ~ 0)")),
        (g2_overflow, overflow),
    )
    coh_failures = first_failures(singular, (coh_overflow, overflow))
    g2[list(g2_failures)] = np.nan
    coh[list(coh_failures)] = np.nan
    return g2, coh, g2_failures, coh_failures


def steady_amplitudes(p: SystemParams) -> AmplitudeSet:
    """Closed-form steady amplitudes of the truncated model, c0g frozen at 1.

    The g = 0 limit reproduces a coherent state up to two photons:
    c1g = -i eta / beta and c2g = c1g^2 / sqrt(2).

    Raises
    ------
    OverflowError
        If D1 or D2 is not finite in double precision.
    SingularDenominatorError
        If D1 or D2 vanishes.
    """
    with np.errstate(all="ignore"):
        alpha, beta, _, d1, _, d2, singular = _denominators(p.row())
    if not np.isfinite([*d1, *d2]).all():
        raise OverflowError("D1 or D2 is not finite in double precision at these parameters")
    failures = first_failures(singular)
    if failures:
        raise failures[0]
    alpha, beta, d1, d2 = (complex(z[0][0], z[1][0]) for z in (alpha, beta, d1, d2))
    eta = p.eta
    c1g = -1j * eta * alpha / d1
    c0e = -p.g * eta / d1
    c2g = eta**2 * (p.g**2 - alpha**2 - alpha * beta) / (_SQRT2 * d1 * d2)
    c1e = 1j * p.g * eta**2 * (alpha + beta) / (d1 * d2)
    return AmplitudeSet(c0g=1.0 + 0.0j, c1g=c1g, c0e=c0e, c2g=c2g, c1e=c1e)


def _ode_matrix(p: SystemParams) -> np.ndarray:
    """Generator [[M, b], [0, 0]] of z = (c1g, c0e, c2g, c1e, 1): z' = gen z is u' = M u + b."""
    alpha, beta = complex(p.gamma / 2.0, p.delta), complex(p.kappa / 2.0, p.delta_a)
    g, eta = p.g, p.eta
    return np.array(
        [
            [-beta, -1j * g, -_SQRT2 * 1j * eta, 0.0, -1j * eta],
            [-1j * g, -alpha, 0.0, -1j * eta, 0.0],
            [-_SQRT2 * 1j * eta, 0.0, -2.0 * beta, -_SQRT2 * 1j * g, 0.0],
            [0.0, -1j * eta, -_SQRT2 * 1j * g, -(alpha + beta), 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )


def integrate_amplitude_odes(p: SystemParams, t_final: float, dt: float) -> AmplitudeSet:
    """RK4 integration of the amplitude equations from the vacuum to the steady state.

    Initial condition is |0,g>, i.e. all excited amplitudes zero and c0g = 1
    (held fixed throughout). The affine system u' = M u + b is integrated as
    the linear one z' = [[M, b], [0, 0]] z of _ode_matrix on z = (u, 1), on
    which RK4 acts stage for stage as it does on the affine system. A state
    that is not finite at the end raises StepTooLargeError: dt is beyond
    RK4's stability bound for M. A relative change of the amplitude vector
    above 1e-6 over the final tenth of the run raises NotConvergedError.
    """
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be >= 0 and finite, got {t_final!r}")
    propagator = RK4Propagator(_ode_matrix(p), dt)
    t_mark = 0.9 * t_final
    with np.errstate(over="ignore", invalid="ignore"):
        u_mark = propagator.advance(np.array([0, 0, 0, 0, 1], dtype=complex), t_mark)
        u = propagator.advance(u_mark, t_final - t_mark)[:4]
    if not np.isfinite(u).all():
        raise StepTooLargeError(f"amplitudes not finite by t={t_final:g}: dt = {dt:g} too coarse")
    drift = float(np.max(np.abs(u - u_mark[:4]))) / max(float(np.max(np.abs(u))), 1e-30)
    if not drift <= 1e-6:
        raise NotConvergedError(f"amplitude drift {drift:.3e} over the final 10% of t={t_final:g}")
    return AmplitudeSet(c0g=1.0 + 0.0j, c1g=u[0], c0e=u[1], c2g=u[2], c1e=u[3])


def g2_zero_analytic(p: SystemParams) -> float:
    """Closed-form weak-drive g2(0).

    Assembled as x*y/z with x = |D1|^2, y = |g^2 - alpha(alpha+beta)|^2 and
    z = |alpha|^4 |D2|^2, each factor a number times its own conjugate, so
    the quotient is real. The drive amplitude cancels exactly. Equals
    2 p2 / p1^2 of the closed-form amplitudes, and reduces to 1 identically
    at g = 0. Evaluated by closed_forms on one row.

    Raises
    ------
    SingularDenominatorError
        If D1, D2 or z vanishes.
    OverflowError
        If the value is not finite in double precision.
    """
    g2, _, failures, _ = closed_forms(p.row())
    if failures:
        raise failures[0]
    return float(g2[0])


def atom_coherence_analytic(p: SystemParams) -> float:
    """Leading-order l1 coherence of the atom, 2 g eta / |D1|.

    Linear in the drive amplitude by construction; vanishes at g = 0 (the
    atom decouples) and at eta = 0 (nothing to excite). Evaluated by
    closed_forms on one row, and raises as g2_zero_analytic does, except
    that z does not enter.
    """
    _, coh, _, failures = closed_forms(p.row())
    if failures:
        raise failures[0]
    return float(coh[0])
