"""The steady-state solve against an extended-precision reference.

The reference solves the bordered system M x = e0 of the same real
Liouvillian in double and refines x four times with residuals e0 - M x
taken in numpy's long double, the way bench/oracle.py refines its state.
Each refinement step gains about a factor cond(M) eps of accuracy, so four
of them bring x to the accuracy of the long double residual, far below the
errors measured here. The outputs compared are those a sweep prints, from
evaluate, which solves the grid in chunks.
"""

from dataclasses import replace

import numpy as np
import pytest

from blockade_lab.cli import fig1_spec, fig3_spec, fig4_spec
from blockade_lab.correlations import _functionals, steady_observables
from blockade_lab.lindblad import _basis, liouvillians, vectorize
from blockade_lab.quantum_core import SystemParams
from blockade_lab.sweep import _grid_rows, _mesh, evaluate
from conftest import undrifted

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double here, so no extended-precision reference can be built")

_NUMERIC = ("g2_numeric", "coh_numeric", "mean_photon")


def reference_outputs(rows, h):
    """g2, the coherence and the mean photon number of each row, from the refined solve in long double."""
    d = h.dim
    trace = np.flatnonzero(vectorize(np.eye(d)))
    rhs = np.zeros(d * d, dtype=np.longdouble)
    rhs[0] = 1.0
    functionals = _functionals(h).astype(np.longdouble)
    out = {name: [] for name in _NUMERIC}
    for liou in liouvillians(rows, h):
        m = liou.copy()
        m[0, :] = 0.0
        m[0, trace] = 1.0
        wide = m.astype(np.longdouble)
        x = np.linalg.solve(m, rhs.astype(float)).astype(np.longdouble)
        for _ in range(4):
            x = x + np.linalg.solve(m, (rhs - wide @ x).astype(float))
        number, pairs, re, im = functionals @ x
        out["g2_numeric"].append(pairs / number**2)
        out["coh_numeric"].append(2 * np.sqrt(re * re + im * im))
        out["mean_photon"].append(number)
    return {name: np.array(column) for name, column in out.items()}


def _fig3_rows():
    spec = fig3_spec(nmax=10, grid=5)
    extra = [replace(SystemParams(g=21.5, kappa=1.0, gamma=0.5, eta=0.1, delta_a=0.0, delta=0.0),
                     delta_a=delta, delta=delta).row() for delta in (37.0, -37.0)]
    return np.concatenate([_grid_rows(spec, _mesh(spec.axes))] + extra), spec.hilbert


def _grid(spec):
    return _grid_rows(spec, _mesh(spec.axes)), spec.hilbert


def _fig4_corner():
    """fig4's small-kappa corner, kappa = 0.01 at eta = 0.001, where g2 rests on populations near 1e-12."""
    spec = fig4_spec(grid=11)
    rows = _grid_rows(spec, _mesh(spec.axes))
    return rows[rows[:, 1] == 0.01], spec.hilbert


# The bounds of the first three cases are 3x the worst relative errors
# measured on the solve of c5e92a3, per output: g2, coherence, mean photon
# number. g2 and the mean photon number of fig4 rest on populations near
# 1e-12 at eta = 0.001 and small kappa, where the solve loses most. The
# errors are rounding errors, which another BLAS build or another CPU's
# kernels may order differently, and 3x leaves room for that while still
# failing a solve that loses a decimal digit.
#
# fig4_corner_points takes the kappa = 0.01 rows of fig4_grid11 as point
# queries, and that case's bounds. On these rows alone c5e92a3 erred by up
# to 2.9e-12 in g2 and the complex top-down solve with one refinement step
# by 1.2e-11, the worst of the grid for it.
#
# fig1_grid401 is the whole fig1 preset. Its bounds are 3x the worst errors
# measured on the solve of 842fd79, not c5e92a3: g2 3.2e-13, coherence
# 2.5e-15, mean photon number 1.6e-13. Its coherence bound lies above
# fig1_grid41's: it holds the complex top-down solve of 0885f92 to its own
# worst coherence error on this grid, 3.5x c5e92a3's 7.2e-16, and does not
# ask for that accuracy back, so the coherence loss of 0885f92 that
# CHANGES.md records stays open.
_CASES = {
    "fig4_grid11": (lambda: _grid(fig4_spec(grid=11)), (2.9e-11, 1.4e-15, 1.5e-11)),
    "fig3_nmax10_grid5": (_fig3_rows, (4.3e-12, 1.3e-15, 2.1e-12)),
    "fig1_grid41": (lambda: _grid(fig1_spec(grid=41)), (5.1e-13, 2.2e-15, 2.6e-13)),
    "fig1_grid401": (lambda: _grid(fig1_spec()), (9.6e-13, 7.5e-15, 4.8e-13)),
    # each row a point query, solved by steady_state on its dense L
    "fig4_corner_points": (_fig4_corner, (2.9e-11, 1.4e-15, 1.5e-11)),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_outputs_stay_within_their_bounds_of_the_reference(case):
    build, bounds = _CASES[case]
    rows, h = build()
    if case.endswith("_points"):
        points = [evaluate(row[None], h, _NUMERIC) for row in rows]
        assert not any(failed for _, failed in points)
        values = {name: np.concatenate([one[name] for one, _ in points]) for name in _NUMERIC}
    else:
        values, failed = evaluate(rows, h, _NUMERIC)
        assert not failed
    want = reference_outputs(rows, h)
    for name, bound in zip(_NUMERIC, bounds):
        error = np.abs(values[name] - want[name]) / np.abs(want[name])
        assert error.max() <= bound, (name, float(error.max()), rows[error.argmax()])


def test_the_refinement_step_recovers_what_the_top_down_order_loses_on_fig4():
    # Eliminating from the top coherence order down forms S_0 last, and the
    # rounding of that Schur complement costs fig4's smallest populations up
    # to 7.5e-10 in g2; one refinement step brings it back to about 1e-11.
    rows, h = _grid(fig4_spec(grid=11))
    basis = _basis(h)
    kernel = basis.pattern.kernel
    values = basis.assemble(rows)
    want = reference_outputs(rows, h)["g2_numeric"]
    errors = []
    for pattern in (undrifted(basis.pattern), basis.pattern):
        got, _ = steady_observables(kernel.solve(pattern, values)[0], h)
        errors.append((np.abs(got["g2_numeric"] - want) / np.abs(want)).max())
    unrefined, refined = errors
    assert refined <= unrefined / 10, (unrefined, refined)
