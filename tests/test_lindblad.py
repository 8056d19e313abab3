"""Master-equation engine: generator construction, steady states, propagation."""

import math
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockade_lab import cli, lindblad
from blockade_lab.analytic import _ode_matrix
from blockade_lab.cli import fig1_spec, fig2_params, fig3_spec
from blockade_lab.correlations import (
    _functionals,
    atom_coherence_numeric,
    g2_zero_numeric,
    mean_photon,
)
from blockade_lab.errors import (
    DegenerateSteadyStateError,
    NoDissipationError,
    SolverError,
    StepTooLargeError,
)
from blockade_lab.lindblad import (
    LindbladModel,
    LiouvillianBasis,
    RK4Propagator,
    build_liouvillian,
    default_step,
    liouvillian,
    liouvillians,
    model_for,
    steady_state,
    steady_states_at,
    unvectorize,
    vectorize,
)
from blockade_lab.quantum_core import (
    HilbertConfig,
    SystemParams,
    annihilation,
    build_hamiltonian,
    lowering_operators,
)
from blockade_lab.sweep import _grid_rows, _mesh, run_sweep
from conftest import MIXED_ROWS, evolve, undrifted

H4 = HilbertConfig(4)
FIG1 = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.01, delta_a=1.0, delta=1.0)


def dense_master_rhs(p, h, rho):
    """Right-hand side of the master equation written out with matrix products."""
    a, sm = lowering_operators(h)
    H = build_hamiltonian(p, h)
    out = -1j * (H @ rho - rho @ H)
    for c, rate in ((a, p.kappa), (sm, p.gamma)):
        cd = c.conj().T
        out = out + rate * (c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c))
    return out


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_generator_matches_dense_master_equation():
    rng = np.random.default_rng(7)
    p = SystemParams(g=1.3, kappa=0.4, gamma=0.25, eta=0.1, delta_a=-0.8, delta=0.6)
    liou = liouvillian(p, H4)
    for _ in range(5):
        rho = random_density(rng, H4.dim)
        direct = dense_master_rhs(p, H4, rho)
        via_liou = unvectorize(liou @ vectorize(rho), H4.dim)
        assert np.max(np.abs(direct - via_liou)) < 1e-13 * np.max(np.abs(direct))


def test_trace_functional_is_left_null_vector():
    liou = liouvillian(FIG1, H4)
    trace_row = vectorize(np.eye(H4.dim, dtype=complex)).conj()
    assert np.max(np.abs(trace_row @ liou)) < 1e-10 * np.max(np.abs(liou))


def test_trace_preserved_on_random_states():
    rng = np.random.default_rng(11)
    liou = liouvillian(FIG1, H4)
    trace_row = vectorize(np.eye(H4.dim, dtype=complex)).conj()
    for _ in range(5):
        rho = random_density(rng, H4.dim)
        assert abs(trace_row @ (liou @ vectorize(rho))) < 1e-12


def test_empty_cavity_number_decays_at_kappa():
    # the convention pin: photon number of an undriven empty cavity decays at
    # exactly kappa, not 2*kappa
    p = SystemParams(g=0.0, kappa=0.8, gamma=0.0, eta=0.0, delta_a=0.3, delta=0.0)
    liou = liouvillian(p, H4)
    rho0 = np.zeros((H4.dim, H4.dim), dtype=complex)
    rho0[1, 1] = 1.0  # |g,1>
    rho_t = evolve(liou, rho0, 1.0 / p.kappa, default_step(p))
    assert mean_photon(rho_t, H4) == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_steady_state_structure():
    liou = liouvillian(FIG1, H4)
    rho = steady_state(liou)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert np.max(np.abs(liou @ vectorize(rho))) < 1e-10


def test_undriven_system_relaxes_to_vacuum():
    p = SystemParams(g=1.0, kappa=0.2, gamma=0.1, eta=0.0, delta_a=0.4, delta=0.4)
    rho = steady_state(liouvillian(p, H4))
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_driven_empty_cavity_is_coherent():
    """g = 0 steady state: amplitude -i eta / (kappa/2 + i Delta_a), g2 = 1."""
    p = SystemParams(g=0.0, kappa=0.3, gamma=0.1, eta=0.003, delta_a=0.17, delta=0.0)
    rho = steady_state(liouvillian(p, H4))
    a, _ = lowering_operators(H4)
    amp = np.trace(a @ rho)
    expected = -1j * p.eta / (p.kappa / 2 + 1j * p.delta_a)
    assert abs(amp - expected) < 1e-8
    assert g2_zero_numeric(rho, H4) == pytest.approx(1.0, abs=1e-6)
    assert atom_coherence_numeric(rho, H4) < 1e-10


def test_weak_drive_population_hierarchy():
    # at the blockade point the two-excitation manifold is strongly suppressed
    rho = steady_state(liouvillian(FIG1, H4))
    p1 = rho[1, 1].real + rho[5, 5].real  # |g,1>, |e,0>
    p2 = rho[2, 2].real + rho[6, 6].real  # |g,2>, |e,1>
    assert p1 / p2 > 100


def test_no_dissipation_raises():
    p = SystemParams(g=1.0, kappa=0.0, gamma=0.0, eta=0.01, delta_a=0.0, delta=0.0)
    with pytest.raises(NoDissipationError):
        steady_state(liouvillian(p, H4))


def test_degenerate_null_space_raises():
    # lossless decoupled atom: its populations are conserved, so the null
    # space is two dimensional and no unique steady state exists
    p = SystemParams(g=0.0, kappa=0.3, gamma=0.0, eta=0.0, delta_a=0.5, delta=0.2)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(liouvillian(p, H4))


def test_driven_decoupled_lossless_atom_is_caught_only_by_the_gap_check():
    # A decoupled atom that decays at 1e-12 relaxes its populations almost
    # not at all: the null space of L is one dimensional, but s[-2] is about
    # 6e-13 against s[0] = 2.3. The bordered system is invertible in exact
    # arithmetic, and the solve alone returns a trace-one state without
    # complaint; only the uniqueness certificate refuses it.
    p = SystemParams(g=0.0, kappa=0.3, gamma=1e-12, eta=0.05, delta_a=0.5, delta=0.2)
    liou = liouvillian(p, H4)
    rho = bordered_solve_state(liou)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateSteadyStateError, match="null-space gap not certified"):
        steady_state(liou)


def passes_singular_value_gap_test(liou):
    """The uniqueness test the inverse-based certificate must never be laxer than."""
    s = np.linalg.svd(liou, compute_uv=False)
    return s[-2] >= 1e6 * s[-1] and s[-2] > 1e-12 * s[0]


@settings(max_examples=200, deadline=None)
@given(
    log_g=st.floats(-12.0, 1.0),
    log_kappa=st.floats(-12.0, 1.0),
    log_gamma=st.one_of(st.none(), st.floats(-12.0, 1.0)),
    eta=st.floats(0.0, 0.5),
    delta=st.floats(-2.0, 2.0),
    nmax=st.sampled_from((1, 2, 4)),
)
def test_certificate_is_never_laxer_than_the_singular_value_gap(
    log_g, log_kappa, log_gamma, eta, delta, nmax
):
    gamma = 0.0 if log_gamma is None else 10.0**log_gamma
    p = SystemParams(g=10.0**log_g, kappa=10.0**log_kappa, gamma=gamma, eta=eta,
                     delta_a=delta, delta=delta)
    h = HilbertConfig(nmax)
    try:
        steady_state(liouvillian(p, h))
    except (DegenerateSteadyStateError, SolverError):
        return
    # the test is taken on L in the column-stacking basis, whose singular
    # values the real Liouvillian shares
    assert passes_singular_value_gap_test(dense_weighted_sum(p, dense_unit_parts(h)))


def bordered_solve_state(liou):
    """Reference steady state: the bordered system solved for one right-hand side."""
    d2 = liou.shape[0]
    rhs = np.zeros(d2)
    rhs[0] = 1.0
    return unvectorize(np.linalg.solve(bordered(liou), rhs), int(round(np.sqrt(d2))))


@pytest.mark.parametrize("spec", [fig1_spec(), fig3_spec(nmax=10, grid=5)],
                         ids=["fig1", "fig3_5x5_nmax10"])
def test_certificate_accepts_every_preset_point(spec, monkeypatch):
    solved, dense_solve = [], lindblad._dense_solve

    def counted(pattern, values):
        solved.append(len(values))
        return dense_solve(pattern, values)

    monkeypatch.setattr(lindblad, "_dense_solve", counted)
    for row in _grid_rows(spec, _mesh(spec.axes)):
        liou = liouvillian(SystemParams(*row), spec.hilbert)
        rho = steady_state(liou)
        assert np.max(np.abs(rho - bordered_solve_state(liou))) <= 1e-13
    # the bound of the block factors certified every row: none took the dense solve
    assert solved == []


def complex_basis_state(liou):
    """Reference steady state in the column-stacking basis.

    liou is a dense complex L; its first row is replaced by the trace row,
    which is one at the d entries of vec(rho) on the diagonal, and the system
    is solved by np.linalg.solve.
    """
    d2 = liou.shape[0]
    d = int(round(np.sqrt(d2)))
    mat = liou.copy()
    mat[0, :] = 0.0
    mat[0, np.arange(d) * (d + 1)] = 1.0
    rhs = np.zeros(d2, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(mat, rhs).reshape((d, d), order="F")


def test_real_solve_keeps_the_accuracy_of_the_complex_basis():
    # The coordinate order is part of the numerics: with the diagonal
    # coordinates first, the same real solve is up to 2.7e-5 off in g2 on
    # these points, while the lower-triangle order agrees with the complex
    # solve to 2.8e-12.
    spec = fig3_spec(nmax=10, grid=5)
    h = spec.hilbert
    points = [SystemParams(*row) for row in _grid_rows(spec, _mesh(spec.axes))]
    points += [SystemParams(g=21.5, kappa=1.0, gamma=0.5, eta=0.1, delta_a=delta, delta=delta)
               for delta in (37.0, -37.0)]
    parts = dense_unit_parts(h)
    observables = (g2_zero_numeric, atom_coherence_numeric, mean_photon)
    for p in points:
        rho = steady_state(liouvillian(p, h))
        want = complex_basis_state(dense_weighted_sum(p, parts))
        for observable in observables:
            got, ref = observable(rho, h), observable(want, h)
            assert abs(got - ref) <= 1e-9 * abs(ref), (p, observable.__name__, got, ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_steady_state_refuses_a_non_finite_liouvillian(bad):
    liou = liouvillian(FIG1, H4)
    liou[3, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        steady_state(liou)


# --- the coherence-order block kernel of steady_state ----------------------


def coherence_orders(h):
    """q = |N_i - N_j| of each real coordinate, N the photon number plus the atomic excitation.

    Read off the element each unit coordinate vector stands for, with the
    basis index atom * (n_max + 1) + n of the atom-major convention.
    """
    index = np.arange(h.dim)
    excitation = index // h.cavity_dim + index % h.cavity_dim
    orders = []
    for k in range(h.dim**2):
        i, j = np.nonzero(unvectorize(np.eye(h.dim**2)[k], h.dim))
        assert len(set(np.abs(excitation[i] - excitation[j]))) == 1
        orders.append(abs(excitation[i[0]] - excitation[j[0]]))
    return np.array(orders)


@pytest.mark.parametrize("nmax", [1, 2, 4, 10, 11])
def test_only_the_drive_changes_the_coherence_order(nmax):
    h = HilbertConfig(nmax)
    q = coherence_orders(h)
    n = h.dim**2
    for field, (idx, vals) in LiouvillianBasis(h)._parts.items():
        assert np.all(vals != 0)
        step = np.abs(q[idx // n] - q[idx % n])
        assert step.max() <= 1, field
        assert step.max() == (1 if field == "eta" else 0), field


@pytest.mark.parametrize("nmax", [1, 2, 4, 7, 10])
@settings(max_examples=25, deadline=None)
@given(g=st.floats(0.0, 30.0), kappa=st.floats(0.0, 2.0), gamma=st.floats(0.0, 2.0),
       eta=st.floats(0.0, 1.0), delta_a=st.floats(-1e3, 1e3), delta=st.floats(-1e3, 1e3))
def test_the_coherences_of_order_q_at_least_1_evolve_complex_linearly(nmax, g, kappa, gamma, eta, delta_a, delta):
    # with (u, v) the pairs of the block kernel, to the bit: M[v_e, v_f] =
    # M[u_e, u_f] and M[u_e, v_f] = -M[v_e, u_f] on q >= 1, so each block of
    # q >= 1 is the real form of a complex matrix of half its size
    h = HilbertConfig(nmax)
    kernel = lindblad._basis(h).pattern.kernel
    p = SystemParams(g=g, kappa=kappa, gamma=gamma, eta=eta, delta_a=delta_a, delta=delta)
    m = liouvillian(p, h)[np.ix_(kernel.order, kernel.order)][kernel.sizes[0]:, kernel.sizes[0]:]
    u, v = np.arange(0, len(m), 2), np.arange(1, len(m), 2)
    assert np.array_equal(m[np.ix_(v, v)], m[np.ix_(u, u)])
    assert np.array_equal(m[np.ix_(u, v)], -m[np.ix_(v, u)])


def bordered(liou):
    """L_r with its first row replaced by the trace row."""
    d = int(round(np.sqrt(liou.shape[0])))
    mat = liou.copy()
    mat[0, :] = 0.0
    mat[0, np.flatnonzero(vectorize(np.eye(d)))] = 1.0
    return mat


def kernel_solve(stack, dense=False):
    """The block kernel's states, betas and singular pivots on a dense stack, read through the basis pattern.

    Each matrix must lie on the pattern of the LiouvillianBasis of its
    dimension, as every Liouvillian the library assembles does. The kernel
    takes its refinement step; with dense on, these are the dense solve's.
    """
    d = math.isqrt(stack.shape[-1])
    pattern = lindblad._basis(HilbertConfig(d // 2 - 1)).pattern
    flat = stack.reshape(len(stack), -1)
    values = flat[:, pattern.idx]
    assert np.count_nonzero(values) == np.count_nonzero(flat), "a matrix off the basis pattern"
    if dense:
        return lindblad._dense_solve(pattern, values)
    return pattern.kernel.solve(pattern, values)


def block_solve(liou, dense=False):
    """The state and beta of the block kernel, or the dense solve, on one L_r; NaN beta if it is not solved.

    As in steady_state, an overflow is left to the gates, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vecs, beta, _ = kernel_solve(liou[None], dense)
    return vecs[0], beta[0]


@pytest.mark.parametrize("spec", [fig1_spec(), fig3_spec(nmax=10, grid=5)],
                         ids=["fig1", "fig3_5x5_nmax10"])
def test_block_solve_is_column_0_of_the_dense_inverse(spec):
    for row in _grid_rows(spec, _mesh(spec.axes)):
        liou = liouvillian(SystemParams(*row), spec.hilbert)
        want = np.linalg.inv(bordered(liou))
        exact = np.abs(want).sum(axis=0).max()
        vec, beta = block_solve(liou)
        assert np.max(np.abs(vec - want[:, 0])) <= 1e-12 * np.max(np.abs(want[:, 0])), row
        assert exact <= beta <= 4.0 * exact, row
        # the dense solve's state is the dense inverse's, and its bound that inverse's norm
        vec, beta = block_solve(liou, dense=True)
        assert np.array_equal(vec, want[:, 0]), row
        assert abs(beta - exact) <= 1e-13 * exact, row


def block_factor_bound(liou, kernel):
    """beta = u l of the kernel's docstring, from the top-down block factors of M formed densely in real form."""
    order = np.argsort(kernel.position)
    m = bordered(liou)[np.ix_(order, order)]
    spans = kernel.spans
    block = lambda i, j: m[spans[i], spans[j]]  # noqa: E731
    norm = lambda x: np.abs(x).sum(axis=0).max()  # noqa: E731
    last = len(spans) - 1
    schur, pivots, steps, gains = block(last, last), [0.0] * (last + 1), [0.0] * last, [0.0] * last
    for k in range(last, -1, -1):
        inverse = np.linalg.inv(schur)
        pivots[k] = norm(inverse)
        if k:
            f = inverse @ block(k, k - 1)  # F_{k-1} = S_k^-1 B_{k-1}
            steps[k - 1] = norm(f)
            gains[k - 1] = norm(block(k - 1, k) @ inverse)  # G_{k-1} = U_{k-1} S_k^-1
            schur = block(k - 1, k - 1) - block(k - 1, k) @ f
    upper = 0.0
    for k in range(last + 1):
        chain = total = 1.0
        for j in range(k, last):
            chain *= steps[j]
            total += chain
        upper = max(upper, pivots[k] * total)
    lower = 1.0
    for top in range(last):
        chain = total = 1.0
        for j in range(top, -1, -1):
            chain *= gains[j]
            total += chain
        lower = max(lower, total)
    return upper * lower


# the rows of fig1 at grid 41 and fig3 at grid 5 on the smallest and odd
# block layouts, n_max 1, 2 and 7 (g2 is not asked for: n_max 1 has no g2)
_SMALL_LAYOUTS = {
    f"{name}_nmax{nmax}": replace(make(grid=grid), outputs=("coh_numeric",), hilbert=HilbertConfig(nmax))
    for nmax in (1, 2, 7) for name, make, grid in (("fig1_grid41", fig1_spec, 41), ("fig3_grid5", fig3_spec, 5))}


@pytest.mark.parametrize("spec, every", [(fig1_spec(), 10), (fig3_spec(nmax=10, grid=2), 1)]
                         + [(spec, 1) for spec in _SMALL_LAYOUTS.values()],
                         ids=["fig1", "fig3_2x2_nmax10", *_SMALL_LAYOUTS])
def test_beta_is_the_bound_of_the_block_factors(spec, every):
    kernel = lindblad._basis(spec.hilbert).pattern.kernel
    for row in _grid_rows(spec, _mesh(spec.axes))[::every]:
        liou = liouvillian(SystemParams(*row), spec.hilbert)
        want = block_factor_bound(liou, kernel)
        assert abs(block_solve(liou)[1] - want) <= 1e-10 * want, row


@settings(max_examples=200, deadline=None)
@given(
    log_g=st.floats(-12.0, 1.0),
    log_kappa=st.floats(-12.0, 1.0),
    log_gamma=st.one_of(st.none(), st.floats(-12.0, 1.0)),
    eta=st.floats(0.0, 0.5),
    delta=st.floats(-2.0, 2.0),
    nmax=st.sampled_from((1, 2, 4)),
)
def test_the_block_bound_is_never_below_the_norm_of_the_inverse(
    log_g, log_kappa, log_gamma, eta, delta, nmax
):
    # the space of the certificate test
    gamma = 0.0 if log_gamma is None else 10.0**log_gamma
    p = SystemParams(g=10.0**log_g, kappa=10.0**log_kappa, gamma=gamma, eta=eta,
                     delta_a=delta, delta=delta)
    liou = liouvillian(p, HilbertConfig(nmax))
    _, beta = block_solve(liou)
    if np.isnan(beta):  # a singular pivot: the row goes to the dense solve
        return
    try:
        exact = np.abs(np.linalg.inv(bordered(liou))).sum(axis=0).max()
    except np.linalg.LinAlgError:  # M is singular to LAPACK: there is no norm to bound
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liou)
        return
    assert beta >= (1.0 - 1e-12) * exact


@pytest.mark.parametrize("g, kappa, eta, delta, nmax", [
    (1e-11, 1.0, 6.103515625e-05, 1.0, 1), (1e-12, 10.0 ** -0.9949, 0.02689, 0.9877, 4),
    (10.0 ** -9.359, 10.0 ** -0.2757, 0.4388, -1.73, 4)], ids=["nmax1", "nmax4_g1e-12", "nmax4_g4e-10"])
def test_a_numerically_singular_pivot_gives_an_infinite_bound(g, kappa, eta, delta, nmax):
    # A lossless atom coupled at g <= 1e-9: ||M^-1||_1 is 1e17 or more, and the
    # top-down S_0, formed last, is singular to working precision. Its computed
    # inverse norm came out up to 800 times below the dense one, so the
    # kernel bounds such a row by infinity, and the dense solve refuses it.
    p = SystemParams(g=g, kappa=kappa, gamma=0.0, eta=eta, delta_a=delta, delta=delta)
    liou = liouvillian(p, HilbertConfig(nmax))
    assert np.abs(np.linalg.inv(bordered(liou))).sum(axis=0).max() > 1e17
    assert block_solve(liou)[1] == np.inf
    want = dense_steady_state(liou)
    assert isinstance(want, DegenerateSteadyStateError)
    with pytest.raises(DegenerateSteadyStateError) as raised:
        steady_state(liou)
    assert str(raised.value) == str(want)


def dense_steady_state(liou):
    """Test-side reference of steady_state: the dense inverse of M and the same gates.

    Returns the real coordinates, or the error steady_state would raise.
    """
    n = liou.shape[0]
    scale = np.max(np.abs(liou))
    top_hi = np.linalg.norm(liou)
    if not np.isfinite(scale):
        return ValueError("Liouvillian has a non-finite entry")
    if not np.any(liou + liou.T):
        return NoDissipationError("no dissipative part; steady state is not unique")
    try:
        inv = np.linalg.inv(bordered(liou))
    except np.linalg.LinAlgError as exc:
        return DegenerateSteadyStateError(f"trace-constrained solve failed: {exc}")
    vec = inv[:, 0].copy()
    drift = liou @ vec
    gap_lo = 1.0 / (np.sqrt(n) * np.abs(inv).sum(axis=0).max())
    null_hi = max(np.linalg.norm(drift) / np.linalg.norm(vec), np.finfo(float).eps * top_hi)
    if not gap_lo >= 1e6 * null_hi:
        return DegenerateSteadyStateError(
            f"null-space gap not certified: s[-2] >= {gap_lo:.3e}, "
            f"s[-1] <= {null_hi:.3e}, s[0] <= {top_hi:.3e}")
    residual = np.abs(drift).max()
    if not residual <= 1e-6 * max(1.0, scale):
        return SolverError(f"steady-state residual too large: {residual:.3e}")
    return vec


@settings(max_examples=200, deadline=None)
@given(
    log_g=st.floats(-12.0, 1.0),
    log_kappa=st.one_of(st.none(), st.floats(-12.0, 1.0)),
    log_gamma=st.one_of(st.none(), st.floats(-12.0, 1.0)),
    eta=st.floats(0.0, 0.5),
    delta=st.floats(-2.0, 2.0),
    nmax=st.sampled_from((1, 2, 4)),
)
def test_block_solve_keeps_the_status_and_message_of_the_dense_solve(
    log_g, log_kappa, log_gamma, eta, delta, nmax
):
    # the space of the certificate test above, with kappa = 0 as well
    kappa, gamma = (0.0 if x is None else 10.0**x for x in (log_kappa, log_gamma))
    p = SystemParams(g=10.0**log_g, kappa=kappa, gamma=gamma, eta=eta,
                     delta_a=delta, delta=delta)
    liou = liouvillian(p, HilbertConfig(nmax))
    want = dense_steady_state(liou)
    try:
        got = steady_state(liou, coordinates=True)
    except (ValueError, SolverError) as exc:
        assert (type(exc), str(exc)) == (type(want), str(want))
        return
    assert isinstance(want, np.ndarray), want
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_a_nonzero_outside_the_block_pattern_gets_the_dense_solve():
    liou = liouvillian(FIG1, H4)
    q = coherence_orders(H4)
    assert np.isfinite(block_solve(liou)[1])
    # the trace row replaces row 0 of L_r, so its nonzeros do not reach the state
    balance = liou.copy()
    balance[0, balance[0] != 0] = 0.5
    assert np.array_equal(block_solve(balance)[0], block_solve(liou)[0])
    i, j = np.argwhere(np.abs(q[:, None] - q[None, :]) == 2)[5]
    liou[i, j] = 1e-9
    want = dense_steady_state(liou)
    assert isinstance(want, np.ndarray), want
    assert np.array_equal(steady_state(liou, coordinates=True), want)
    # a singular pivot leaves its row NaN, with LAPACK's error kept: with no
    # loss and no detuning, the top block is exactly zero
    resonant = liouvillian(replace(FIG1, kappa=0.0, gamma=0.0, delta_a=0.0, delta=0.0), H4)
    vecs, beta, singular = kernel_solve(resonant[None])
    assert list(singular) == [0] and np.isnan(vecs).all() and np.isnan(beta).all()
    # an exactly singular M whose pivots LAPACK does not find singular is
    # refused by the certificate, and steady_state raises the error of the
    # dense solve
    lossless = liouvillian(replace(FIG1, g=0.0, gamma=0.0), H4)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, beta, singular = kernel_solve(lossless[None])
    assert not singular and beta[0] > 1e20
    want = dense_steady_state(lossless)
    assert str(want).startswith("trace-constrained solve failed: ")
    with pytest.raises(DegenerateSteadyStateError) as raised:
        steady_state(lossless)
    assert str(raised.value) == str(want)


def test_an_l_on_the_block_pattern_but_off_the_basis_pattern_gets_only_the_dense_solve(monkeypatch):
    liou = liouvillian(FIG1, H4)
    q = coherence_orders(H4)
    # entries of L_r within one coherence order of their row's, below row 0,
    # which the trace row replaces, and not among the basis's nonzeros
    on_blocks = np.flatnonzero(np.abs(q[:, None] - q[None, :]) <= 1)
    spare = np.setdiff1d(on_blocks[on_blocks >= q.size], LiouvillianBasis(H4).pattern.idx)
    assert spare.size == 5235
    blocked, solved = [], []
    dense_solve, kernel_solve = lindblad._dense_solve, lindblad._BlockKernel.solve

    def counted(pattern, values):
        solved.append(len(values))
        return dense_solve(pattern, values)

    def block_counted(kernel, pattern, values):
        blocked.append(len(values))
        return kernel_solve(kernel, pattern, values)

    monkeypatch.setattr(lindblad._BlockKernel, "solve", block_counted)
    monkeypatch.setattr(lindblad, "_dense_solve", counted)
    picked = spare[np.linspace(0, spare.size - 1, 9).astype(int)]
    for k in picked:
        hand = liou.copy()
        hand.flat[k] = 1e-9
        want = dense_steady_state(hand)
        assert isinstance(want, np.ndarray), (k, want)
        assert np.array_equal(steady_state(hand, coordinates=True), want), k
    assert blocked == [] and solved == [1] * picked.size
    # the L on the basis pattern is the block kernel's
    steady_state(liou)
    assert blocked == [1] and solved == [1] * picked.size


def test_a_liouvillian_of_odd_dimension_gets_the_dense_solve():
    # a damped, driven cavity alone at n_max 2: d = 3, not atom x cavity
    a = annihilation(2)
    ham = 0.3 * (a.conj().T @ a) + 0.05 * (a + a.conj().T)
    liou = dense_real_part(dense_hamiltonian_superop(ham)) + 0.4 * dense_real_part(
        dense_dissipator_superop(a))
    assert liou.shape == (9, 9)
    want = dense_steady_state(liou)
    assert isinstance(want, np.ndarray), want
    assert np.array_equal(steady_state(liou, coordinates=True), want)
    rho = steady_state(liou)
    amplitude = -1j * 0.05 / (0.4 / 2 + 1j * 0.3)
    assert abs(np.trace(a @ rho) - amplitude) < 1e-3 * abs(amplitude)


def test_a_refused_liouvillian_of_odd_dimension_is_inverted_once(monkeypatch):
    # a cavity at kappa = 1e-13: d = 3, and its steady state is not certified
    a = annihilation(2)
    ham = 0.3 * (a.conj().T @ a) + 0.05 * (a + a.conj().T)
    liou = dense_real_part(dense_hamiltonian_superop(ham)) + 1e-13 * dense_real_part(
        dense_dissipator_superop(a))
    calls, pivot_inverse = [], lindblad._pivot_inverse

    def counted(stack, singular):
        calls.append(stack.shape)
        return pivot_inverse(stack, singular)

    monkeypatch.setattr(lindblad, "_pivot_inverse", counted)
    with pytest.raises(DegenerateSteadyStateError, match="not certified"):
        steady_state(liou)
    assert calls == [(1, 9, 9)]


@pytest.mark.parametrize("nmax", range(1, 11))
def test_steady_states_at_is_steady_states_of_the_dense_stack(nmax, monkeypatch):
    h = HilbertConfig(nmax)

    def no_full_pattern(n):
        raise AssertionError("a library Liouvillian read through the full pattern")

    # each dense library Liouvillian is read through the basis pattern
    monkeypatch.setattr(lindblad, "_full_pattern", no_full_pattern)
    want, want_failures = np.full((len(MIXED_ROWS), h.dim**2), np.nan), {}
    for r, liou in enumerate(liouvillians(MIXED_ROWS, h)):
        try:
            want[r] = steady_state(liou, coordinates=True)
        except (ValueError, SolverError) as exc:
            want_failures[r] = exc
    retried, dense, dense_solve, to_dense = [], [], lindblad._dense_solve, lindblad._dense

    def counted(pattern, values):
        retried.append(len(values))
        return dense_solve(pattern, values)

    def formed(dim, idx, values):
        dense.append(values.shape[0])
        return to_dense(dim, idx, values)

    monkeypatch.setattr(lindblad, "_dense_solve", counted)
    monkeypatch.setattr(lindblad, "_dense", formed)
    vecs, failures = steady_states_at(MIXED_ROWS, h)
    assert vecs.tobytes() == want.tobytes()
    assert ({r: (type(e), str(e)) for r, e in failures.items()}
            == {r: (type(e), str(e)) for r, e in want_failures.items()})
    assert sorted(failures) == [1, 2, 3, 5]
    assert np.isfinite(vecs[[0, 4, 6]]).all()
    assert retried
    # no dense L is formed, not even for the row whose diagonal is zero: the
    # only dense stacks are the bordered M of the rows the dense solve retries
    assert dense == retried
    vecs, failures = steady_states_at(MIXED_ROWS[:0], h)
    assert vecs.shape == (0, h.dim**2) and failures == {}


def complex_block(m, rows, cols):
    """X[e, f] = M[u_e, u_f] + i M[v_e, u_f] of a real block with rows (and cols) paired as (u, v).

    cols may be a list, of the real coordinates of q = 0, which pair with nothing.
    """
    cols = cols if isinstance(cols, list) else cols[0::2]
    return m[np.ix_(rows[0::2], cols)] + 1j * m[np.ix_(rows[1::2], cols)]


@pytest.mark.parametrize("nmax", range(1, 12))
def test_every_basis_nonzero_has_the_slot_the_dense_loader_gathers_it_to(nmax):
    h = HilbertConfig(nmax)
    basis = LiouvillianBasis(h)
    rows = np.concatenate([MIXED_ROWS[[0, 1, 4, 6]], _delta_line(FIG1, [-3.0, 0.0, 0.7])])
    liou = liouvillians(rows, h)
    # the dense solve scatters every nonzero to its own place
    assert np.array_equal(lindblad._dense(h.dim, basis.pattern.idx, basis.assemble(rows)), liou)
    kernel = basis.pattern.kernel
    take, at = basis.pattern.slots
    assert np.unique(at).size == at.size
    kernel._load(basis.assemble(rows), (take, at))
    steps = kernel._buffers(len(rows)).steps
    spans = [kernel.order[span] for span in kernel.spans]
    for r, full in enumerate(liou):
        m = full[np.ix_(kernel.order, kernel.order)]
        # A_0 and U_0 as they stand, then B~_0^T, then A_k^T, U_k^T and B_k^T
        s0, s1 = kernel.sizes[:2]
        assert np.array_equal(steps[0].a[r], m[:s0, :s0])
        assert np.array_equal(steps[0].u[r], m[:s0, s0:s0 + s1])
        assert np.array_equal(steps[0].b[r], complex_block(full, spans[1], list(spans[0])).T)
        for k in range(1, kernel.last + 1):
            assert np.array_equal(steps[k].a[r], complex_block(full, spans[k], spans[k]).T)
            if k < kernel.last:
                assert np.array_equal(steps[k].u[r], complex_block(full, spans[k], spans[k + 1]).T)
                assert np.array_equal(steps[k].b[r], complex_block(full, spans[k + 1], spans[k]).T)
    # the entries left out are the columns v of the complex blocks, which
    # repeat the others: M[v_e, v_f] = M[u_e, u_f], M[u_e, v_f] = -M[v_e, u_f]
    n = h.dim ** 2
    left = np.setdiff1d(np.arange(basis.pattern.idx.size), take)
    r, c = np.divmod(basis.pattern.idx[left], n)
    # (each block of q >= 1 opens at an even position, so a pair is (even, odd))
    assert (kernel.position[r] >= kernel.sizes[0]).all() and (kernel.position[c] >= kernel.sizes[0]).all()
    assert (kernel.position[c] % 2 == 1).all()
    pair = kernel.order[kernel.position[c] - 1]
    partner = kernel.order[kernel.position[r] ^ 1]
    sign = np.where(kernel.position[r] % 2 == 1, 1.0, -1.0)
    for full in liou:
        assert np.array_equal(full[r, c], sign * full[partner, pair])


@pytest.mark.parametrize("nmax", range(1, 11))
def test_the_transpose_map_points_each_nonzero_at_its_mirror(nmax):
    n = HilbertConfig(nmax).dim ** 2
    for pattern in (LiouvillianBasis(HilbertConfig(nmax)).pattern, lindblad._full_pattern(n)):
        rows, cols = np.divmod(pattern.idx, n)
        mirror = cols * n + rows
        paired = pattern._transpose >= 0
        assert np.array_equal(pattern.idx[pattern._transpose[paired]], mirror[paired])
        assert not np.isin(mirror[~paired], pattern.idx).any()


@pytest.mark.parametrize("nmax", range(1, 15))
def test_every_row_of_a_pattern_holds_an_entry(nmax):
    # _Pattern.product gives row i of L_r x the i-th run of the pattern's rows;
    # the full pattern is that of a hand-built L of any dimension, odd too
    h = HilbertConfig(nmax)
    for pattern in (lindblad._basis(h).pattern, lindblad._full_pattern((nmax + 1) ** 2)):
        rows = pattern.idx // pattern.n
        assert np.array_equal(rows[pattern._starts], np.arange(pattern.n))


def _on_a_fresh_thread(call):
    """call() on a thread of its own, which holds no kernel buffers yet, and its result."""
    result = []
    thread = threading.Thread(target=lambda: result.append(call()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return result[0]


def test_a_fig1_sweep_fills_buffers_only_in_its_own_kernel():
    def sweep():
        run_sweep(fig1_spec())
        # the kernels that hold buffers for this thread, in their own thread-locals
        return [nmax for nmax in range(1, 11)
                if vars(lindblad._basis(HilbertConfig(nmax)).pattern.kernel._local)]

    assert _on_a_fresh_thread(sweep) == [H4.n_max]


def test_a_thread_solves_no_rows_then_each_dimension_in_turn_as_it_does_alone():
    # a thread's first solve allocates its buffers, for no rows too, and each
    # kernel holds its own, so moving between n_max 4 and 10 changes no bit
    calls = [(MIXED_ROWS[:0], H4), (MIXED_ROWS, H4), (MIXED_ROWS, HilbertConfig(10)), (MIXED_ROWS, H4)]

    def solve(rows, h):
        vecs, failures = steady_states_at(rows, h)
        return vecs.shape, vecs.tobytes(), {r: (type(e), str(e)) for r, e in failures.items()}

    in_turn = _on_a_fresh_thread(lambda: [solve(*call) for call in calls])
    assert in_turn[0] == ((0, H4.dim ** 2), b"", {})
    assert in_turn == [_on_a_fresh_thread(lambda: solve(*call)) for call in calls]
    assert sorted(in_turn[2][2]) == [1, 2, 3, 5]


@pytest.mark.parametrize("nmax", range(1, 12))
def test_the_photon_number_operators_are_exact_integer_diagonals(nmax):
    # a' @ a rounds n = 2 to 2.0000000000000004, a' @ a' @ a @ a n = 3 to 6.000000000000001
    h = HilbertConfig(nmax)
    n = np.arange(h.dim) % h.cavity_dim  # the photon number of |atom, n>
    zero = SystemParams(g=0.0, kappa=0.0, gamma=0.0, eta=0.0, delta_a=0.0, delta=0.0)
    assert np.array_equal(build_hamiltonian(replace(zero, delta_a=1.0), h), np.diag(n))
    _, _, off, first = lindblad._layout(h.dim)
    diagonal = first[~off]
    for row, want in zip(_functionals(h), (n, n * (n - 1))):
        assert np.array_equal(row[diagonal], want)
        assert not np.delete(row, diagonal).any()


def _delta_line(p, deltas):
    """Parameter rows at p with delta_a = delta set to each of deltas in turn."""
    rows = np.repeat(p.row(), len(deltas), axis=0)
    rows[:, -2:] = np.asarray(deltas, dtype=float)[:, None]
    return rows


def _bits(stack):
    """Each row of a stack as its bytes."""
    return [row.tobytes() for row in stack]


@pytest.mark.parametrize("nmax", range(1, 12))
def test_a_delta_line_loads_the_same_step_0_inputs_on_every_row(nmax):
    # with a'a exact, the delta_a and delta parts of L cancel to the bit on
    # every q = 0 entry where delta_a = delta, so block row 0 and B~_0, the
    # blocks of step 0, load alike on every row; the blocks of q >= 1 keep Delta
    rng = np.random.default_rng(nmax)
    deltas = np.concatenate([fig1_spec().axis1.values()[::40], rng.uniform(-40.0, 40.0, 5)])
    h, rows = HilbertConfig(nmax), _delta_line(FIG1, deltas)
    basis = LiouvillianBasis(h)
    kernel = basis.pattern.kernel
    kernel._load(basis.assemble(rows), basis.pattern.slots)
    steps = kernel._buffers(len(rows)).steps
    for block in (steps[0].a, steps[0].u, steps[0].b):
        assert _bits(block) == _bits(block[:1]) * len(rows)
    assert len(set(_bits(steps[1].a))) == len(rows)


# Delta lines: fine rows, lossless rows and rows with g = gamma = 0, whose M
# is exactly singular
_LINES = {
    "fine": _delta_line(FIG1, [0.0, 0.3, 1.0, 1.7, 40.0]),
    "lossless": _delta_line(replace(FIG1, kappa=0.0, gamma=0.0), [0.0, 0.5, 1.0, 2.0]),
    "singular": _delta_line(replace(FIG1, g=0.0, gamma=0.0), [0.0, 0.5, 1.0, 2.0]),
}


def outcome(vecs, beta, singular):
    return vecs.tobytes(), beta.tobytes(), {r: (type(e), str(e)) for r, e in singular.items()}


@pytest.mark.parametrize("nmax", [1, 2, 4, 10])
@pytest.mark.parametrize("line", sorted(_LINES))
def test_a_shared_step_0_gives_each_row_the_solve_it_gets_alone(line, nmax):
    # the rows of a Delta line share the inputs of step 0, but S_0 is formed
    # last, from blocks that keep Delta, so each row is solved on its own:
    # by the kernel and by steady_states_at, as it is alone
    h, rows = HilbertConfig(nmax), _LINES[line]
    basis = LiouvillianBasis(h)
    kernel = basis.pattern.kernel
    pattern, values = basis.pattern, basis.assemble(rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vecs, beta, singular = kernel.solve(pattern, values)
        want = [outcome(vecs[r:r + 1], beta[r:r + 1], {0: singular[r]} if r in singular else {})
                for r in range(len(rows))]
        for r in range(len(rows)):
            assert outcome(*kernel.solve(pattern, values[r:r + 1])) == want[r], r
    chunk, failures = steady_states_at(rows, h)
    for r in range(len(rows)):
        one, one_failures = steady_states_at(rows[r:r + 1], h)
        assert one.tobytes() == chunk[r:r + 1].tobytes()
        assert ({k: (type(e), str(e)) for k, e in one_failures.items()}
                == ({0: (type(failures[r]), str(failures[r]))} if r in failures else {}))
    assert len(failures) == (0 if line == "fine" else len(rows))
    if line == "fine":
        assert not singular and np.isfinite(chunk).all()


@pytest.mark.parametrize("nmax", [1, 4, 10])
def test_every_pivot_is_inverted_for_each_row_when_only_b0_differs(nmax, monkeypatch):
    h = HilbertConfig(nmax)
    basis = LiouvillianBasis(h)
    kernel = basis.pattern.kernel
    pattern, values = basis.pattern, basis.assemble(_delta_line(FIG1, [0.5, 1.0, 1.5]))
    unedited = values.copy()
    # one nonzero of B~_0, made larger in the last row
    take, at = pattern.slots
    start, shape, _ = kernel._regions["b", 0]
    in_b0 = np.flatnonzero((at >= start) & (at < start + 2 * shape[0] * shape[1]))
    values[-1, take[in_b0[0]]] *= 1.5
    pivots, pivot_inverse = [], lindblad._pivot_inverse

    def pivot(stack, singular):
        pivots.append(stack.shape[0])
        return pivot_inverse(stack, singular)

    monkeypatch.setattr(lindblad, "_pivot_inverse", pivot)
    vecs, beta, singular = kernel.solve(pattern, values)
    # each pivot, S_0 too, is inverted for every row
    assert pivots == [3] * (kernel.last + 1) and not singular
    vecs, beta = vecs.copy(), beta.copy()
    for r in range(3):
        assert outcome(*kernel.solve(pattern, values[r:r + 1])) == outcome(vecs[r:r + 1], beta[r:r + 1], {})
    # and the edit moves the last row's state
    assert not np.array_equal(kernel.solve(pattern, unedited[-1:])[0], vecs[-1:])


@pytest.mark.parametrize("solve", ["unrefined", "refined", "dense"])
@pytest.mark.parametrize("nmax", range(1, 11))
def test_a_stacked_solve_gives_each_row_the_solve_it_gets_alone(nmax, solve):
    # the state, beta and singular pivots, to the bit: of the kernel with and
    # without the drift of its refinement step, whose complex products must
    # not batch rows, and of the dense solve, which steady_states_at gives
    # any subset of a stack's rows to retry
    h = HilbertConfig(nmax)
    basis = LiouvillianBasis(h)
    kernel = basis.pattern.kernel
    rows = np.concatenate(list(_LINES.values()) + [MIXED_ROWS])
    values = basis.assemble(rows)
    pattern = undrifted(basis.pattern) if solve == "unrefined" else basis.pattern
    solved = lindblad._dense_solve if solve == "dense" else kernel.solve

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vecs, beta, singular = solved(pattern, values)
        vecs, beta = vecs.copy(), beta.copy()
        for r in range(len(rows)):
            one = outcome(*solved(pattern, values[r:r + 1]))
            want = outcome(vecs[r:r + 1], beta[r:r + 1], {0: singular[r]} if r in singular else {})
            if solve == "unrefined" and r in singular:
                # the zero drift meets the NaN of a singular pivot in the step's
                # products, whose NaN sign a stack and a row may pick apart
                one, want = (tuple(np.isnan(np.frombuffer(bits)).all() for bits in got[:2]) + got[2:]
                             for got in (one, want))
            assert one == want, r
    assert np.isfinite(vecs[:5]).all() and np.isfinite(beta[:5]).all()
    # the lossless resonant row meets an exactly singular top block
    assert 5 in singular


def test_steady_state_only_reads_its_argument():
    points = [FIG1, replace(FIG1, kappa=0.0, gamma=0.0), replace(FIG1, delta=1e11),
              SystemParams(g=0.0, kappa=0.3, gamma=0.0, eta=0.05, delta_a=0.5, delta=0.2)]
    stack = np.stack([liouvillian(p, H4) for p in points] + [liouvillian(FIG1, H4)])
    stack[-1, 3, 5] = np.nan
    before = stack.copy()
    stack.setflags(write=False)
    failed = []
    for r, liou in enumerate(stack):
        try:
            vec = steady_state(liou, coordinates=True)
        except (ValueError, SolverError):
            failed.append(r)
        else:
            assert np.isfinite(vec).all()
    assert failed == [1, 2, 3, 4]
    assert np.array_equal(stack, before, equal_nan=True)
    assert stack.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_steady_state_takes_a_real_matrix_of_any_dtype_as_float64(dtype):
    def outcome(liou):
        try:
            return steady_state(liou, coordinates=True).tobytes()
        except (ValueError, SolverError) as exc:
            return repr(exc)

    # the integer casts are not Liouvillians, so the gates may refuse them,
    # but they do so as they refuse the float64 copy
    for liou in (liouvillian(FIG1, H4), liouvillian(FIG1, H4) * 1e3):
        liou = liou.astype(dtype)
        assert outcome(liou) == outcome(liou.astype(float))


@pytest.mark.parametrize("shape", [(1, 0, 0), (0, 0, 0), (2, 3, 3), (2, 4, 9),
                                   (), (4,), (1, 4, 4), (3, 3), (4, 9), (0, 0)])
def test_steady_states_refuses_a_stack_that_is_not_of_d2_by_d2_matrices(shape):
    # steady_state takes one d^2 x d^2 matrix: no stack, not even of one
    with pytest.raises(ValueError, match="expected a d\\^2 x d\\^2 Liouvillian"):
        steady_state(np.zeros(shape))


def test_threads_solving_at_once_get_the_bits_of_one_thread():
    rng = np.random.default_rng(7)
    rows = np.column_stack([rng.uniform(0.5, 2.0, 16), rng.uniform(0.05, 0.5, 16),
                            rng.uniform(0.05, 0.5, 16), rng.uniform(0.005, 0.05, 16),
                            *2 * [rng.uniform(-2.0, 2.0, 16)]])
    stacks = [rows[i::4] for i in range(4)]
    want = [steady_states_at(stack, H4)[0] for stack in stacks]
    got = [[] for _ in stacks]

    def solve(i):
        for _ in range(25):
            got[i].append(steady_states_at(stacks[i], H4)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(stacks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for vecs, expected in zip(got, want):
        assert len(vecs) == 25
        assert all(np.array_equal(v, expected) for v in vecs)


@settings(max_examples=50, deadline=None)
@given(
    g=st.floats(0.0, 10.0),
    eta=st.floats(0.0, 1.0),
    delta_a=st.floats(-1e12, 1e12),
    delta=st.floats(-1e12, 1e12),
    nmax=st.sampled_from((1, 2, 4, 10)),
)
def test_a_unitary_liouvillian_is_exactly_antisymmetric(g, eta, delta_a, delta, nmax):
    p = SystemParams(g=g, kappa=0.0, gamma=0.0, eta=eta, delta_a=delta_a, delta=delta)
    h = HilbertConfig(nmax)
    builds = [liouvillian(p, h)]
    if nmax < 10:
        builds.append(build_liouvillian(model_for(p, h)))
    for liou in builds:
        assert not np.any(liou + liou.T)
        with pytest.raises(NoDissipationError):
            steady_state(liou)


def dense_hamiltonian_superop(ham):
    """-i [H, .] as a dense column-stacking superoperator, from np.kron."""
    eye = np.eye(ham.shape[0], dtype=complex)
    return -1j * (np.kron(eye, ham) - np.kron(ham.T, eye))


def dense_dissipator_superop(c):
    """D[c] as a dense column-stacking superoperator, from np.kron."""
    eye = np.eye(c.shape[0], dtype=complex)
    cdc = c.conj().T @ c
    return np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)


def dense_unit_parts(h):
    """The six dense unit superoperators of the basis, in its field order."""
    zero = SystemParams(g=0, kappa=0, gamma=0, eta=0, delta_a=0, delta=0)
    parts = [
        (field, dense_hamiltonian_superop(build_hamiltonian(replace(zero, **{field: 1.0}), h)))
        for field in ("delta_a", "delta", "g", "eta")
    ]
    a, sm = lowering_operators(h)
    return parts + [("kappa", dense_dissipator_superop(a)), ("gamma", dense_dissipator_superop(sm))]


# The factor of T on the diagonal and off it, and exactly 0.5 where two
# off-diagonal factors meet, as the library takes them.
SCALES = np.array([1.0, np.sqrt(0.5), 0.5])


def real_coordinates(d):
    """T coordinate by coordinate, written out from its definition.

    The coordinates run over the lower triangle column by column: E_cc, then
    for each r > c the symmetric element (E_rc + E_cr)/sqrt2 and the
    antisymmetric element i(E_cr - E_rc)/sqrt2. For each coordinate this
    gives the column-stacking index of its lower and its upper element, the
    phase of T at each (0 for the absent upper element of the diagonal) and
    the number of 1/sqrt2 factors.
    """
    lower, upper, phase_lower, phase_upper, halves = [], [], [], [], []
    for c in range(d):
        for r in range(c, d):
            if r == c:
                kinds = [(1.0, 0.0, 0)]
            else:
                kinds = [(1.0, 1.0, 1), (-1j, 1j, 1)]
            for at_lower, at_upper, half in kinds:
                lower.append(c * d + r)
                upper.append(r * d + c)
                phase_lower.append(at_lower)
                phase_upper.append(at_upper)
                halves.append(half)
    return (np.array(lower), np.array(upper), np.array(phase_lower, dtype=complex),
            np.array(phase_upper, dtype=complex), np.array(halves))


def dense_real_part(part):
    """T' P T of a dense column-stacking superoperator, entry by entry.

    Entry (k, l) sums Re(conj(T[p, k]) T[q, l] P[p, q]) over the lower and
    upper elements p of k and q of l, in the order (lower, lower),
    (lower, upper), (upper, lower), (upper, upper): the library's formula,
    on every entry of P rather than on its nonzeros.
    """
    d = int(round(np.sqrt(part.shape[0])))
    lower, upper, phase_lower, phase_upper, halves = real_coordinates(d)
    scale = SCALES[halves[:, None] + halves[None, :]]
    terms = []
    for p, phase_p in ((lower, phase_lower), (upper, phase_upper)):
        for q, phase_q in ((lower, phase_lower), (upper, phase_upper)):
            weight = phase_p.conj()[:, None] * phase_q[None, :] * scale
            terms.append((weight * part[np.ix_(p, q)]).real)
    ll, lu, ul, uu = terms
    return ll + lu + ul + uu


def dense_weighted_sum(p, parts):
    """Every dense unit superoperator, weighted, in field order."""
    liou = np.zeros_like(parts[0][1])
    for field, part in parts:
        liou += getattr(p, field) * part
    return liou


def dense_at(basis, p):
    """The dense L_r at p from the nonzeros that basis itself assembles."""
    return lindblad._dense(math.isqrt(basis.pattern.n), basis.pattern.idx, basis.assemble(p.row()))[0]


def dense_fixed_order_sum(p, h):
    """Reference assembly: the real part of every dense unit superoperator, weighted."""
    return dense_weighted_sum(p, [(field, dense_real_part(part))
                                  for field, part in dense_unit_parts(h)])


def test_real_coordinates_are_those_of_the_unitary_change_of_basis():
    h = HilbertConfig(3)
    d = h.dim
    lower, upper, phase_lower, phase_upper, halves = real_coordinates(d)
    t = np.zeros((d * d, d * d), dtype=complex)
    columns = np.arange(d * d)
    t[upper, columns] = phase_upper / np.sqrt(2.0) ** halves
    t[lower, columns] = phase_lower / np.sqrt(2.0) ** halves
    assert np.max(np.abs(t.conj().T @ t - np.eye(d * d))) < 1e-15
    # unvectorize gives each basis element, and vectorize is T'
    for k in range(d * d):
        unit = np.zeros(d * d)
        unit[k] = 1.0
        assert np.max(np.abs(unvectorize(unit, d).reshape(-1, order="F") - t[:, k])) < 1e-15
    rho = random_density(np.random.default_rng(3), d)
    assert np.max(np.abs(vectorize(rho) - t.conj().T @ rho.reshape(-1, order="F"))) < 1e-15
    # the real Liouvillian is T' L T, whose imaginary part vanishes
    p = SystemParams(g=2.5, kappa=0.3, gamma=0.2, eta=0.05, delta_a=-1.3, delta=-0.7)
    rotated = t.conj().T @ dense_weighted_sum(p, dense_unit_parts(h)) @ t
    liou = liouvillian(p, h)
    assert np.max(np.abs(rotated.imag)) < 1e-14
    assert np.max(np.abs(rotated.real - liou)) < 1e-14 * np.max(np.abs(liou))
    assert liou.dtype == np.float64


def test_vectorize_refuses_a_matrix_that_is_not_hermitian():
    rho = random_density(np.random.default_rng(5), H4.dim)
    rho[2, 0] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        vectorize(rho)
    with pytest.raises(ValueError, match="not Hermitian"):
        vectorize(np.full((3, 3), np.nan))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
def test_vectorize_refuses_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {shape}")):
        vectorize(np.zeros(shape))


@pytest.mark.parametrize("shape", [(5,), (3,), (2, 2), (1, 4)])
def test_unvectorize_refuses_a_vector_that_is_not_of_dim_squared_coordinates(shape):
    with pytest.raises(ValueError, match="expected 4 coordinates for dim 2"):
        unvectorize(np.zeros(shape), 2)


@pytest.mark.parametrize("nmax", [1, 4, 10])
def test_sparse_unit_parts_are_the_nonzeros_of_the_dense_parts(nmax):
    h = HilbertConfig(nmax)
    parts = LiouvillianBasis(h)._parts
    dense_parts = dense_unit_parts(h)
    assert list(parts) == [field for field, _ in dense_parts]
    for field, dense in dense_parts:
        flat = dense_real_part(dense).reshape(-1)
        nonzero = np.flatnonzero(flat)
        idx, vals = parts[field]
        assert np.array_equal(idx, nonzero), field
        assert np.array_equal(vals, flat[nonzero]), field


def test_build_liouvillian_is_the_dense_formula_bit_for_bit():
    for nmax in (1, 4, 10):
        h = HilbertConfig(nmax)
        for p in (FIG1, SystemParams(g=2.5, kappa=0.3, gamma=0.0, eta=0.05,
                                     delta_a=-1.3, delta=-0.7)):
            model = model_for(p, h)
            want = dense_real_part(dense_hamiltonian_superop(model.hamiltonian))
            for op, rate in model.channels:
                if rate != 0.0:
                    want = want + rate * dense_real_part(dense_dissipator_superop(op))
            assert np.array_equal(build_liouvillian(model), want)


@pytest.mark.parametrize("nmax", [4, 10])
def test_sparse_basis_is_the_dense_sum_bit_for_bit(nmax):
    h = HilbertConfig(nmax)
    basis = LiouvillianBasis(h)
    for p in (
        FIG1,
        SystemParams(g=2.5, kappa=0.3, gamma=0.0, eta=0.05, delta_a=-1.3, delta=-0.7),
        SystemParams(g=0.0, kappa=1.7, gamma=0.45, eta=0.0, delta_a=0.0, delta=-3.1),
        SystemParams(g=17.3, kappa=1e-9, gamma=0.6, eta=0.3, delta_a=-40.0, delta=12.5),
    ):
        assert np.array_equal(dense_at(basis, p), dense_fixed_order_sum(p, h))


def test_liouvillian_is_the_basis_sum_in_a_fresh_array_each_call():
    h = HilbertConfig(5)
    first = liouvillian(FIG1, h)
    assert np.array_equal(first, dense_at(LiouvillianBasis(h), FIG1))
    assert first.flags.writeable
    kept = first.copy()
    first[:] = 7.0
    second = liouvillian(FIG1, h)
    assert second is not first
    assert np.array_equal(second, kept)


def test_every_liouvillian_comes_from_one_assemble_call_per_stack(monkeypatch, tmp_path):
    calls, assemble = [], LiouvillianBasis.assemble

    def counted(basis, rows):
        calls.append(len(rows))
        return assemble(basis, rows)

    monkeypatch.setattr(LiouvillianBasis, "assemble", counted)
    # fig1's 201 distinct canonical rows, in chunks of 80
    run_sweep(fig1_spec())
    assert calls == [80, 80, 41]
    calls.clear()
    assert cli.main(["point", "--g", "1", "--kappa", "0.05", "--gamma", "0.05", "--eta", "0.01",
                     "--out", str(tmp_path / "point.txt")]) == 0
    assert calls == [1]
    calls.clear()
    assert cli.main(["fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
    assert calls == [1]

    rows = np.concatenate([MIXED_ROWS, _delta_line(FIG1, [-3.0, 0.0, 0.7])])
    for nmax in (1, 4, 10):
        h = HilbertConfig(nmax)
        calls.clear()
        steady_states_at(rows, h)
        assert calls == [len(rows)], nmax
        # a stacked assembly gives each row the bits it gets alone
        basis = LiouvillianBasis(h)
        stacked = assemble(basis, rows)
        for r in range(len(rows)):
            assert stacked[r:r + 1].tobytes() == assemble(basis, rows[r:r + 1]).tobytes(), (nmax, r)


def test_cached_operators_are_read_only():
    h = HilbertConfig(3)
    a, sm = lowering_operators(h)
    assert lowering_operators(h)[0] is a
    functionals = _functionals(h)
    assert _functionals(h) is functionals
    for op in (a, sm, functionals):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    n = np.arange(h.dim) % h.cavity_dim  # the photon number of |atom, n>
    assert functionals[0].tobytes() == vectorize(np.diag(n)).tobytes()
    assert functionals[1].tobytes() == vectorize(np.diag(n * (n - 1))).tobytes()


def test_liouvillian_basis_matches_direct_build():
    basis = LiouvillianBasis(H4)
    for p in (FIG1, SystemParams(g=2.0, kappa=0.7, gamma=0.0, eta=0.05,
                                 delta_a=-1.1, delta=0.3)):
        direct = build_liouvillian(model_for(p, H4))
        assembled = dense_at(basis, p)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(assembled - direct)) < 1e-12 * scale
        # assembly is a fixed-order sum, so repeated calls are bit identical
        assert np.array_equal(assembled, dense_at(basis, p))


def test_mismatched_channel_dimension_rejected():
    H = build_hamiltonian(FIG1, H4)
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=H, channels=((np.eye(4, dtype=complex), 0.1),))


def test_negative_rate_rejected():
    H = build_hamiltonian(FIG1, H4)
    a, _ = lowering_operators(H4)
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=H, channels=((a, -0.1),))


def test_evolve_keeps_fixed_point():
    liou = liouvillian(FIG1, H4)
    rho_ss = steady_state(liou)
    rho_after = evolve(liou, rho_ss, 3.0, default_step(FIG1))
    assert np.max(np.abs(rho_after - rho_ss)) < 1e-8


def test_evolve_matches_expm_oracle():
    import scipy.linalg as sla

    p = SystemParams(g=20.0, kappa=1.0, gamma=1.0, eta=0.1, delta_a=-20.0, delta=-20.0)
    liou = liouvillian(p, H4)
    rho0 = np.zeros((H4.dim, H4.dim), dtype=complex)
    rho0[0, 0] = 1.0
    rho_rk4 = evolve(liou, rho0, 0.7, default_step(p))
    rho_ref = unvectorize(sla.expm(liou * 0.7) @ vectorize(rho0), H4.dim)
    assert np.max(np.abs(rho_rk4 - rho_ref)) < 1e-9


def test_evolve_converges_to_steady_state():
    p = SystemParams(g=20.0, kappa=1.0, gamma=1.0, eta=0.1, delta_a=-20.0, delta=-20.0)
    liou = liouvillian(p, H4)
    rho0 = np.zeros((H4.dim, H4.dim), dtype=complex)
    rho0[0, 0] = 1.0
    rho_t = evolve(liou, rho0, 50.0 / p.kappa, default_step(p))
    assert np.max(np.abs(rho_t - steady_state(liou))) < 1e-6


def test_evolve_preserves_hermiticity_and_positivity():
    p = SystemParams(g=20.0, kappa=1.0, gamma=1.0, eta=0.1, delta_a=-20.0, delta=-20.0)
    liou = liouvillian(p, H4)
    rho0 = np.zeros((H4.dim, H4.dim), dtype=complex)
    rho0[0, 0] = 1.0
    for t in (0.05, 0.2, 1.0):
        rho_t = evolve(liou, rho0, t, default_step(p))
        assert np.max(np.abs(rho_t - rho_t.conj().T)) < 1e-9
        sym = 0.5 * (rho_t + rho_t.conj().T)
        assert np.linalg.eigvalsh(sym).min() > -1e-8


def test_step_guard():
    liou = liouvillian(FIG1, H4)
    rho0 = np.zeros((H4.dim, H4.dim), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(StepTooLargeError):
        evolve(liou, rho0, 1.0, 10.0)
    with pytest.raises(ValueError):
        evolve(liou, rho0, 1.0, 0.0)


@pytest.mark.parametrize("t_final, dt", [(1.0, np.nan), (1.0, np.inf), (np.nan, 0.005), (np.inf, 0.005)])
def test_evolve_accepts_only_a_finite_positive_step_and_a_finite_time(t_final, dt):
    rho0 = np.zeros((H4.dim, H4.dim), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(ValueError, match="dt must be positive and finite|t_final must be >= 0"):
        evolve(liouvillian(FIG1, H4), rho0, t_final, dt)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evolve_refuses_a_non_finite_liouvillian(bad):
    liou = liouvillian(FIG1, H4)
    liou[3, 5] = bad
    rho0 = np.zeros((H4.dim, H4.dim), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(ValueError, match="Liouvillian has a non-finite entry"):
        evolve(liou, rho0, 1.0, 0.005)


def test_trace_drift_is_an_error_not_hidden():
    # corrupt the generator so the trace grows; the propagator must refuse
    # to return the result instead of silently renormalizing
    liou = liouvillian(FIG1, H4)
    bad = liou + 1e-3 * np.eye(liou.shape[0])
    rho0 = np.zeros((H4.dim, H4.dim), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(SolverError):
        evolve(bad, rho0, 1.0, 0.005)


def test_default_step_resolves_fastest_scale():
    p = SystemParams(g=20.0, kappa=1.0, gamma=0.5, eta=0.1, delta_a=-35.0, delta=-20.0)
    assert default_step(p) == 0.01 / 35.0
    slow = SystemParams(g=0.2, kappa=0.1, gamma=0.1, eta=0.01, delta_a=0.0, delta=0.0)
    assert default_step(slow) == 0.01  # never coarser than the unit rate


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


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_propagator_is_the_stage_loop_rk4_map():
    import scipy.linalg as sla

    p = fig2_params()
    liou = liouvillian(p, H4)
    a, _ = lowering_operators(H4)
    rho = steady_state(liou)
    vec0 = vectorize(a @ rho @ a.conj().T)  # the state g2(tau) propagates
    dt = 2.0**-11  # a power of two, so n * dt / dt is exactly n
    assert np.linalg.norm(liou, np.inf) * dt < 0.1
    propagator = RK4Propagator(liou, dt)
    for n in (0, 1, 7, 1024):
        want = stage_loop_rk4(liou, vec0, n * dt, dt)
        assert relative_gap(propagator.advance(vec0, n * dt), want) <= 1e-12
    # a span that ends in a shortened step, after the powers above are cached
    duration = 1000.37 * dt
    want = stage_loop_rk4(liou, vec0, duration, dt)
    got = propagator.advance(vec0, duration)
    assert relative_gap(got, want) <= 1e-12
    assert relative_gap(RK4Propagator(liou, dt).advance(vec0, duration), want) <= 1e-12
    # the 1e-12 tolerance tells the RK4 map from the exact propagator, which
    # is 2.3e-11 away here
    exact = sla.expm(liou * duration) @ vec0
    assert relative_gap(got, exact) > 1e-11


@pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_propagator_refuses_a_step_that_is_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        RK4Propagator(liouvillian(FIG1, H4), dt)


@pytest.mark.parametrize("duration", [-0.05, -1e-300, np.nan, np.inf, -np.inf])
def test_propagator_refuses_a_duration_that_is_negative_or_not_finite(duration):
    liou = liouvillian(FIG1, H4)
    propagator = RK4Propagator(liou, 0.01)
    vec = np.ones(liou.shape[0])
    with pytest.raises(ValueError, match="duration must be >= 0 and finite"):
        propagator.advance(vec, duration)
    assert propagator.advance(vec, 0.0) is vec


def test_augmented_affine_propagation_is_the_affine_stage_loop(amplitude_rk4):
    p = fig2_params()
    gen = _ode_matrix(p)
    mat, drive = gen[:4, :4], gen[:4, 4]
    dt = default_step(p)
    t_final = 2.0 / p.kappa  # a transient, with a shortened step in each half
    t_mark = 0.9 * t_final
    u_mark = stage_loop_rk4(mat, np.zeros(4, dtype=complex), t_mark, dt, drive)
    want = stage_loop_rk4(mat, u_mark, t_final - t_mark, dt, drive)
    assert relative_gap(amplitude_rk4(p, t_final, dt), want) <= 1e-12
