"""Independent reference values for the benchmark's correctness checks.

The operators and the Liouvillian are rebuilt here from their definitions
with numpy, and the steady state comes from scipy's null space, refined in
long double, rather than from the library's solve. Delayed correlations are
propagated with ``scipy.linalg.expm`` instead of RK4. scipy is imported
lazily so that the timed part of a run never loads it.
"""

from __future__ import annotations

import numpy as np


def operators(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Cavity annihilation and atomic lowering on the atom-major composite space."""
    cav = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = np.kron(np.eye(2), cav).astype(complex)
    s = np.kron(sm, np.eye(n_max + 1)).astype(complex)
    return a, s


def liouvillian(p: dict, n_max: int) -> np.ndarray:
    """Column-stacking superoperator of the driven, damped atom-cavity model."""
    a, s = operators(n_max)
    ad, sp = a.conj().T, s.conj().T
    ham = (p["delta_a"] * ad @ a + p["delta"] * sp @ s
           + p["g"] * (sp @ a + ad @ s) + p["eta"] * (ad + a))
    eye = np.eye(a.shape[0])
    liou = -1j * (np.kron(eye, ham) - np.kron(ham.T, eye))
    for c, rate in ((a, p["kappa"]), (s, p["gamma"])):
        cdc = c.conj().T @ c
        liou = liou + rate * (np.kron(c.conj(), c)
                              - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye))
    return liou


def steady_rho(liou: np.ndarray) -> np.ndarray:
    """Trace-one state spanning the null space of L, refined in extended precision.

    scipy's SVD null space certifies that the null space is one dimensional,
    but its vector is only accurate to about 1e-16 relative to its largest
    entry. At weak drive the two-photon populations that set g2 sit near
    1e-12, so the vector is refined with residuals in long double. The system
    drops the balance equation of the last population, which the others
    imply because L preserves the trace, and adds the trace condition. Every
    remaining row keeps the grading of L, so small populations come out
    with small relative error.
    """
    import scipy.linalg as sla

    null = sla.null_space(liou)
    if null.shape[1] != 1:
        raise ArithmeticError(f"null space has dimension {null.shape[1]}")
    d = int(round(np.sqrt(liou.shape[0])))
    diagonal = np.arange(d) * (d + 1)
    system = liou.copy()
    system[-1, :] = 0.0
    system[-1, diagonal] = 1.0
    rhs = np.zeros(d * d, dtype=np.clongdouble)
    rhs[-1] = 1.0
    lu = sla.lu_factor(system)
    wide = system.astype(np.clongdouble)
    x = (null[:, 0] / null[diagonal, 0].sum()).astype(np.clongdouble)
    for _ in range(3):
        residual = rhs - wide @ x
        x = x + sla.lu_solve(lu, residual.astype(complex))
    return x.reshape((d, d), order="F")


def point_values(p: dict, n_max: int) -> dict[str, float]:
    """g2(0), atomic l1 coherence and mean photon number at one parameter point."""
    rho = steady_rho(liouvillian(p, n_max))
    c = n_max + 1
    pops = rho.diagonal().real.reshape(2, c).sum(axis=0)
    n = np.arange(c)
    nbar = (n * pops).sum()
    g2 = (n * (n - 1) * pops).sum() / nbar**2
    rho_ge = np.trace(rho[:c, c:])
    return {"g2_numeric": float(g2), "coh_numeric": float(2.0 * abs(rho_ge)),
            "mean_photon": float(nbar)}


def g2_tau_values(p: dict, n_max: int, taus) -> np.ndarray:
    """g2(tau) by the regression theorem with exact matrix-exponential propagation."""
    import scipy.linalg as sla

    a, _ = operators(n_max)
    ad = a.conj().T
    liou = liouvillian(p, n_max)
    rho = steady_rho(liou).astype(complex)
    d = a.shape[0]
    nbar = np.trace(ad @ a @ rho).real
    vec = (a @ rho @ ad).reshape(-1, order="F")
    out = []
    for tau in taus:
        evolved = (sla.expm(liou * tau) @ vec).reshape((d, d), order="F")
        out.append(np.trace(ad @ a @ evolved).real / nbar**2)
    return np.array(out)


def relative_error(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)
