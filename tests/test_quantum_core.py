"""Operator algebra, Hilbert-space layout, and parameter validation."""

import numpy as np
import pytest

from blockade_lab.correlations import mean_photon
from blockade_lab.lindblad import liouvillian, steady_state
from blockade_lab.quantum_core import (
    HilbertConfig,
    SystemParams,
    annihilation,
    atom_lowering,
    build_hamiltonian,
    lowering_operators,
)

H4 = HilbertConfig(4)


def test_annihilation_matrix_elements():
    a = annihilation(4)
    assert a.shape == (5, 5)
    for n in range(1, 5):
        assert a[n - 1, n] == np.sqrt(n)
    assert np.count_nonzero(a) == 4


def test_commutator_exact_below_truncation_edge():
    # [a, a'] = 1 on every level except the last, where the missing
    # |n_max + 1> support shows up as -n_max on the diagonal.
    a = annihilation(4)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(np.diag(comm)[:-1], 1.0)
    assert comm[4, 4] == -4.0
    assert np.allclose(comm, np.diag(np.diag(comm)))


def test_atom_lowering_matrix():
    sm = atom_lowering()
    assert sm.shape == (2, 2)
    assert np.array_equal(sm, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_composite_layout_atom_major():
    """|atom, n> lives at index atom * (n_max + 1) + n."""
    a, sm = lowering_operators(H4)
    number = a.conj().T @ a
    assert np.allclose(np.diag(number).real, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
    excited = sm.conj().T @ sm
    assert np.allclose(np.diag(excited).real, [0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    ket = np.eye(H4.dim)[1 * H4.cavity_dim + 2]  # |e, 2>
    assert np.allclose(number @ ket, 2.0 * ket)
    assert np.array_equal(excited @ ket, ket)


def test_hamiltonian_elements():
    p = SystemParams(g=1.3, kappa=0.1, gamma=0.05, eta=0.02, delta_a=0.7, delta=-0.4)
    H = build_hamiltonian(p, H4)
    assert np.allclose(H, H.conj().T)

    def gi(n):
        return 0 * 5 + n

    def ei(n):
        return 1 * 5 + n

    # diagonal: n * delta_a on |g,n>, n * delta_a + delta on |e,n>
    assert H[gi(3), gi(3)] == pytest.approx(3 * 0.7)
    assert H[ei(2), ei(2)] == pytest.approx(2 * 0.7 - 0.4)
    # exchange <e,n|H|g,n+1> = g sqrt(n+1)
    assert H[ei(0), gi(1)] == pytest.approx(1.3)
    assert H[ei(1), gi(2)] == pytest.approx(1.3 * np.sqrt(2))
    # drive <g,n+1|H|g,n> = eta sqrt(n+1)
    assert H[gi(1), gi(0)] == pytest.approx(0.02)
    assert H[gi(2), gi(1)] == pytest.approx(0.02 * np.sqrt(2))


def test_params_reject_negative_rates():
    for field in ("g", "kappa", "gamma", "eta"):
        kwargs = dict(g=1.0, kappa=0.1, gamma=0.1, eta=0.01, delta_a=0.0, delta=0.0)
        kwargs[field] = -0.5
        with pytest.raises(ValueError):
            SystemParams(**kwargs)
    # detunings carry sign
    SystemParams(g=1.0, kappa=0.1, gamma=0.1, eta=0.01, delta_a=-2.0, delta=-2.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["g", "kappa", "gamma", "eta", "delta_a", "delta"])
def test_params_reject_non_finite_values(field, value):
    kwargs = dict(g=1.0, kappa=0.1, gamma=0.1, eta=0.01, delta_a=0.0, delta=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match="finite"):
        SystemParams(**kwargs)


def test_hilbert_config_dims_and_validation():
    assert HilbertConfig(4).dim == 10
    assert HilbertConfig(6).cavity_dim == 7
    with pytest.raises(ValueError):
        HilbertConfig(0)


def test_truncation_shift_of_converged_observable():
    # weakly driven steady state barely populates n = 2, so growing the
    # cutoff from 4 to 6 must leave the photon number essentially unchanged
    p = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.01, delta_a=1.0, delta=1.0)

    def photon_number(h):
        return mean_photon(steady_state(liouvillian(p, h)), h)

    coarse, fine = photon_number(HilbertConfig(4)), photon_number(HilbertConfig(6))
    assert abs(coarse - fine) < 1e-6 * abs(fine)
