"""Master-equation engine: generator construction, steady states, propagation."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockade_lab import lindblad
from blockade_lab.analytic import _ode_matrix, integrate_amplitude_odes
from blockade_lab.cli import fig1_spec, fig2_params, fig3_spec
from blockade_lab.correlations import (
    _photon_operators,
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
    evolve,
    liouvillian,
    liouvillians,
    model_for,
    steady_state,
    steady_states,
    unvectorize,
    vectorize,
)
from blockade_lab.quantum_core import (
    HilbertConfig,
    SystemParams,
    build_hamiltonian,
    lowering_operators,
)
from blockade_lab.sweep import _grid_rows, _mesh

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
def test_certificate_accepts_every_preset_point(spec):
    basis = LiouvillianBasis(spec.hilbert)
    for row in _grid_rows(spec, _mesh(spec.axes)):
        liou = basis.assemble(SystemParams(*row))
        rho = steady_state(liou)
        assert np.max(np.abs(rho - bordered_solve_state(liou))) <= 1e-13


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


# --- the coherence-order block kernel of steady_states ---------------------


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


@pytest.mark.parametrize("nmax", [1, 2, 4, 10])
def test_only_the_drive_changes_the_coherence_order(nmax):
    h = HilbertConfig(nmax)
    q = coherence_orders(h)
    n = h.dim**2
    for field, (idx, vals) in LiouvillianBasis(h)._parts.items():
        assert np.all(vals != 0)
        step = np.abs(q[idx // n] - q[idx % n])
        assert step.max() <= 1, field
        assert step.max() == (1 if field == "eta" else 0), field


def bordered(liou):
    """L_r with its first row replaced by the trace row."""
    d = int(round(np.sqrt(liou.shape[0])))
    mat = liou.copy()
    mat[0, :] = 0.0
    mat[0, np.flatnonzero(vectorize(np.eye(d)))] = 1.0
    return mat


@pytest.mark.parametrize("spec", [fig1_spec(), fig3_spec(nmax=10, grid=5)],
                         ids=["fig1", "fig3_5x5_nmax10"])
def test_block_inverse_is_the_dense_inverse(spec):
    kernel = lindblad._block_kernel(spec.hilbert.dim)
    position = kernel.position
    for row in _grid_rows(spec, _mesh(spec.axes)):
        liou = liouvillian(SystemParams(*row), spec.hilbert)
        want = np.linalg.inv(bordered(liou))
        inverse, solved = kernel.inverse(liou[None], np.zeros(1, dtype=bool))
        assert solved[0], row
        got = inverse[0][np.ix_(position, position)]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), row
        vecs, norms, _ = kernel.solve(liou[None], np.zeros(1, dtype=bool))
        assert abs(norms[0] - np.abs(want).sum(axis=0).max()) <= 1e-12 * norms[0], row
        assert np.max(np.abs(vecs[0] - want[:, 0])) <= 1e-12 * np.max(np.abs(want[:, 0])), row


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
    drift[0] = liou[0] @ vec
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
    kernel = lindblad._block_kernel(H4.dim)
    assert kernel.inverse(liou[None], np.zeros(1, dtype=bool))[1][0]
    i, j = np.argwhere(np.abs(q[:, None] - q[None, :]) == 2)[5]
    liou[i, j] = 1e-9
    assert not kernel.inverse(liou[None], np.zeros(1, dtype=bool))[1][0]
    want = dense_steady_state(liou)
    assert np.array_equal(steady_state(liou, coordinates=True), want)


def test_steady_states_only_reads_its_argument():
    points = [FIG1, replace(FIG1, kappa=0.0, gamma=0.0), replace(FIG1, delta=1e11),
              SystemParams(g=0.0, kappa=0.3, gamma=0.0, eta=0.05, delta_a=0.5, delta=0.2)]
    stack = np.stack([liouvillian(p, H4) for p in points] + [liouvillian(FIG1, H4)])
    stack[-1, 3, 5] = np.nan
    before = stack.copy()
    stack.setflags(write=False)
    vecs, failures = steady_states(stack)
    assert sorted(failures) == [1, 2, 3, 4]
    assert np.isfinite(vecs[0]).all()
    assert np.array_equal(stack, before, equal_nan=True)
    assert stack.tobytes() == before.tobytes()
    assert np.array_equal(steady_state(stack[0], coordinates=True), vecs[0])


def test_threads_solving_at_once_get_the_bits_of_one_thread():
    rng = np.random.default_rng(7)
    rows = np.column_stack([rng.uniform(0.5, 2.0, 16), rng.uniform(0.05, 0.5, 16),
                            rng.uniform(0.05, 0.5, 16), rng.uniform(0.005, 0.05, 16),
                            *2 * [rng.uniform(-2.0, 2.0, 16)]])
    stacks = [liouvillians(rows[i::4], H4) for i in range(4)]
    want = [steady_states(stack)[0] for stack in stacks]
    got = [[] for _ in stacks]

    def solve(i):
        for _ in range(25):
            got[i].append(steady_states(stacks[i])[0])

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
        assert np.array_equal(basis.assemble(p), dense_fixed_order_sum(p, h))


def test_liouvillian_is_the_basis_sum_in_a_fresh_array_each_call():
    h = HilbertConfig(5)
    first = liouvillian(FIG1, h)
    assert np.array_equal(first, LiouvillianBasis(h).assemble(FIG1))
    assert first.flags.writeable
    kept = first.copy()
    first[:] = 7.0
    second = liouvillian(FIG1, h)
    assert second is not first
    assert np.array_equal(second, kept)


def test_cached_operators_are_read_only():
    h = HilbertConfig(3)
    a, sm = lowering_operators(h)
    assert lowering_operators(h)[0] is a
    for op in (a, sm, *_photon_operators(h)):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    number, pairs = _photon_operators(h)
    ad = a.conj().T
    assert np.array_equal(number, ad @ a)
    assert np.array_equal(pairs, ad @ ad @ a @ a)


def test_liouvillian_basis_matches_direct_build():
    basis = LiouvillianBasis(H4)
    for p in (FIG1, SystemParams(g=2.0, kappa=0.7, gamma=0.0, eta=0.05,
                                 delta_a=-1.1, delta=0.3)):
        direct = build_liouvillian(model_for(p, H4))
        assembled = basis.assemble(p)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(assembled - direct)) < 1e-12 * scale
        # assembly is a fixed-order sum, so repeated calls are bit identical
        assert np.array_equal(assembled, basis.assemble(p))


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


def test_augmented_affine_propagation_is_the_affine_stage_loop():
    p = fig2_params()
    mat, drive = _ode_matrix(p)
    dt = default_step(p)
    t_final = 2.0 / p.kappa  # a transient, with a shortened step in each half
    t_mark = 0.9 * t_final
    u_mark = stage_loop_rk4(mat, np.zeros(4, dtype=complex), t_mark, dt, drive)
    want = stage_loop_rk4(mat, u_mark, t_final - t_mark, dt, drive)
    amps = integrate_amplitude_odes(p, t_final, dt, check_convergence=False)
    got = np.array([amps.c1g, amps.c0e, amps.c2g, amps.c1e])
    assert relative_gap(got, want) <= 1e-12
