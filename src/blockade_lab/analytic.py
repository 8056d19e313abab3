"""Truncated analytic branch: the two-excitation amplitude model.

With at most two excitations kept, the pure-state ansatz

    |psi> = c0g |0,g> + c1g |1,g> + c0e |0,e> + c2g |2,g> + c1e |1,e>

closes under the non-Hermitian effective evolution once c0g is frozen at 1.
Everything here is expressed through the two complex half-width detunings

    alpha = gamma/2 + i delta,     beta = kappa/2 + i delta_a,

and the recurring denominators D1 = g^2 + alpha beta and
D2 = g^2 + beta^2 + alpha beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError, SingularDenominatorError, first_failures
from .lindblad import RK4Propagator
from .quantum_core import SystemParams

_SQRT2 = math.sqrt(2.0)


def alpha_beta(p: SystemParams) -> tuple[complex, complex]:
    """The complex rates alpha = gamma/2 + i delta, beta = kappa/2 + i delta_a."""
    return complex(p.gamma / 2.0, p.delta), complex(p.kappa / 2.0, p.delta_a)


@dataclass(frozen=True)
class DressedLevel:
    """Energies of the n-excitation dressed doublet at equal detunings."""

    n: int
    energy_plus: float
    energy_minus: float


def dressed_energies(p: SystemParams, n: int) -> DressedLevel:
    """Dressed-state energies n*Delta +/- g*sqrt(n).

    Only defined when the two detunings coincide (delta_a = delta = Delta);
    otherwise the doublet is not symmetric and this form does not apply.
    """
    if p.delta_a != p.delta:
        raise ValueError(
            f"unequal detunings: delta_a={p.delta_a}, delta={p.delta}"
        )
    if n < 1:
        raise ValueError("excitation number must be >= 1")
    center = n * p.delta_a
    split = p.g * math.sqrt(n)
    return DressedLevel(n=n, energy_plus=center + split, energy_minus=center - split)


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

    The two parts are formed as Python's complex product forms them, so the
    closed forms below carry the bits of the same expressions written with
    Python complex scalars.
    """
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _abs2(a):
    """|a|^2 as the real part of a conj(a): re re - im (-im), that is re re + im im."""
    return a[0] * a[0] + a[1] * a[1]


def _denominators(rows: np.ndarray):
    """alpha, beta, g^2, D1, |D1| and D2 at each (N, 6) parameter row, and the singular rows.

    Each complex quantity is a (real, imaginary) pair of arrays. g^2 is
    taken with the C library's pow, as Python's float power takes it. The
    singular rows are a (mask, make) case of first_failures: those where
    |D1| or |D2| is below 1e-12, with a SingularDenominatorError each.
    """
    g, kappa, gamma, _, delta_a, delta = rows.T
    alpha, beta = (gamma / 2.0, delta), (kappa / 2.0, delta_a)
    gg = np.float_power(g, 2.0)
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
    g, eta = rows[:, 0], rows[:, 3]
    with np.errstate(all="ignore"):
        alpha, beta, gg, d1, abs1, d2, singular = _denominators(rows)
        aab = _mul(alpha, (alpha[0] + beta[0], alpha[1] + beta[1]))
        aa = _abs2(alpha)
        x, y, z = _abs2(d1), _abs2((gg - aab[0], -aab[1])), aa * aa * _abs2(d2)
        xy = x * y
        g2 = xy / z
        coh = 2.0 * g * eta / abs1
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
    if g2_failures or coh_failures:
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
        *_, d1, _, d2, singular = _denominators(p.row())
    if not np.isfinite([*d1, *d2]).all():
        raise OverflowError("D1 or D2 is not finite in double precision at these parameters")
    failures = first_failures(singular)
    if failures:
        raise failures[0]
    alpha, beta = alpha_beta(p)
    d1, d2 = complex(d1[0][0], d1[1][0]), complex(d2[0][0], d2[1][0])
    eta = p.eta
    c1g = -1j * eta * alpha / d1
    c0e = -p.g * eta / d1
    c2g = eta**2 * (p.g**2 - alpha**2 - alpha * beta) / (_SQRT2 * d1 * d2)
    c1e = 1j * p.g * eta**2 * (alpha + beta) / (d1 * d2)
    return AmplitudeSet(c0g=1.0 + 0.0j, c1g=c1g, c0e=c0e, c2g=c2g, c1e=c1e)


def _ode_matrix(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Generator and drive vector for the amplitude vector (c1g, c0e, c2g, c1e)."""
    alpha, beta = alpha_beta(p)
    g, eta = p.g, p.eta
    mat = np.array(
        [
            [-beta, -1j * g, -_SQRT2 * 1j * eta, 0.0],
            [-1j * g, -alpha, 0.0, -1j * eta],
            [-_SQRT2 * 1j * eta, 0.0, -2.0 * beta, -_SQRT2 * 1j * g],
            [0.0, -1j * eta, -_SQRT2 * 1j * g, -(alpha + beta)],
        ],
        dtype=complex,
    )
    drive = np.array([-1j * eta, 0.0, 0.0, 0.0], dtype=complex)
    return mat, drive


def integrate_amplitude_odes(p: SystemParams, t_final: float, dt: float,
                             check_convergence: bool = True) -> AmplitudeSet:
    """RK4 integration of the amplitude equations from the vacuum.

    Initial condition is |0,g>, i.e. all excited amplitudes zero and c0g = 1
    (held fixed throughout). The affine system u' = M u + b is integrated as
    the linear one z' = [[M, b], [0, 0]] z on z = (u, 1), on which RK4 acts
    stage for stage as it does on the affine system. With check_convergence
    on, a relative change of the amplitude vector above 1e-6 over the final
    tenth of the run raises NotConvergedError; pass False when evaluating a
    transient on purpose.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    mat, drive = _ode_matrix(p)
    gen = np.zeros((5, 5), dtype=complex)
    gen[:4, :4] = mat
    gen[:4, 4] = drive
    propagator = RK4Propagator(gen, dt)
    z = np.array([0, 0, 0, 0, 1], dtype=complex)
    t_mark = 0.9 * t_final
    z = propagator.advance(z, t_mark)
    u_mark = z[:4]
    z = propagator.advance(z, t_final - t_mark)
    u = z[:4]
    if check_convergence:
        drift = float(np.max(np.abs(u - u_mark))) / max(float(np.max(np.abs(u))), 1e-30)
        if drift > 1e-6:
            raise NotConvergedError(
                f"amplitude drift {drift:.3e} over the final 10% of t={t_final:g}"
            )
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


def atom_rho_from_amplitudes(amps: AmplitudeSet) -> np.ndarray:
    """Reduced 2x2 atomic state of the ansatz, normalized by its trace."""
    gg = abs(amps.c0g) ** 2 + abs(amps.c1g) ** 2 + abs(amps.c2g) ** 2
    ee = abs(amps.c0e) ** 2 + abs(amps.c1e) ** 2
    ge = amps.c0g * np.conjugate(amps.c0e) + amps.c1g * np.conjugate(amps.c1e)
    rho = np.array([[gg, ge], [np.conjugate(ge), ee]], dtype=complex)
    return rho / rho.trace().real


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
