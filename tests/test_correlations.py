"""Photon statistics and atomic coherence extracted from solved states."""

import numpy as np
import pytest

from blockade_lab import (
    HilbertConfig,
    SystemParams,
    default_step,
    default_tau_grid,
    g2_tau,
    g2_zero_numeric,
    liouvillian,
    steady_state,
)
from blockade_lab.correlations import atom_coherence_numeric, mean_photon
from blockade_lab.errors import StepTooLargeError

H4 = HilbertConfig(4)
FIG2 = SystemParams(g=20.0, kappa=1.0, gamma=1.0, eta=0.1, delta_a=-20.0, delta=-20.0)


def fock_state(n):
    rho_cav = np.zeros((H4.cavity_dim, H4.cavity_dim), dtype=complex)
    rho_cav[n, n] = 1.0
    atom_ground = np.zeros((2, 2), dtype=complex)
    atom_ground[0, 0] = 1.0
    return np.kron(atom_ground, rho_cav)


def test_g2_single_photon_fock_is_zero():
    # a^2 |1> = 0, so the two-photon coincidence vanishes identically
    assert g2_zero_numeric(fock_state(1), H4) == 0.0


def test_g2_two_photon_fock():
    # <a'a'aa> = n(n-1) = 2 and <a'a> = 2, so g2 = 2 / 4
    assert g2_zero_numeric(fock_state(2), H4) == pytest.approx(0.5, rel=1e-12)


def test_g2_vacuum_raises():
    with pytest.raises(ValueError):
        g2_zero_numeric(fock_state(0), H4)


def test_g2_needs_room_for_two_photons():
    # at n_max 1 a'a'aa is the zero operator, so g2 would read 0 at any state
    h = HilbertConfig(1)
    liou = liouvillian(FIG2, h)
    rho = steady_state(liou)
    with pytest.raises(ValueError, match="n_max >= 2"):
        g2_zero_numeric(rho, h)
    with pytest.raises(ValueError, match="n_max >= 2"):
        g2_tau(rho, liou, h, np.array([0.0, 0.1]), default_step(FIG2))
    assert mean_photon(rho, h) > 0


def test_g2_coherent_state_is_one():
    p = SystemParams(g=0.0, kappa=0.3, gamma=0.1, eta=0.003, delta_a=0.1, delta=0.0)
    rho = steady_state(liouvillian(p, H4))
    assert g2_zero_numeric(rho, H4) == pytest.approx(1.0, abs=1e-6)


def test_mean_photon_of_fock_state():
    assert mean_photon(fock_state(3), H4) == pytest.approx(3.0, rel=1e-14)


def test_atom_coherence_of_pure_superposition():
    ground, excited = np.eye(H4.dim, dtype=complex)[[0, H4.cavity_dim]]  # |g, 0>, |e, 0>
    ket = (ground + excited) / np.sqrt(2)
    rho = np.outer(ket, ket.conj())
    assert atom_coherence_numeric(rho, H4) == pytest.approx(1.0, rel=1e-14)
    # a classical mixture of the same populations carries no coherence
    mixed = 0.5 * (np.outer(ground, ground) + np.outer(excited, excited))
    assert atom_coherence_numeric(mixed, H4) == 0.0


def test_default_tau_grid_structure():
    grid = default_tau_grid(FIG2, n_points=200)
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    assert grid[-1] == pytest.approx(20.0 / min(FIG2.kappa, FIG2.gamma))
    # linear head reaches the knee at one thousandth of the span
    n_head = 20
    assert grid[n_head] == pytest.approx(grid[-1] / 1000.0)
    head_steps = np.diff(grid[: n_head + 1])
    assert np.allclose(head_steps, head_steps[0])


def test_default_tau_grid_validation():
    undamped = SystemParams(g=1.0, kappa=0.0, gamma=0.1, eta=0.0, delta_a=0.0, delta=0.0)
    with pytest.raises(ValueError):
        default_tau_grid(undamped)
    with pytest.raises(ValueError):
        default_tau_grid(FIG2, n_points=3)


def test_regression_zero_delay_matches_direct():
    liou = liouvillian(FIG2, H4)
    rho = steady_state(liou)
    curve = g2_tau(rho, liou, H4, np.array([0.0]), default_step(FIG2))
    assert curve.values[0] == pytest.approx(g2_zero_numeric(rho, H4), rel=1e-12)


def test_delayed_correlation_relaxes_to_one():
    """Long after the collapse the field decorrelates and g2 returns to 1."""
    liou = liouvillian(FIG2, H4)
    rho = steady_state(liou)
    curve = g2_tau(rho, liou, H4, default_tau_grid(FIG2), default_step(FIG2))
    assert abs(curve.values[-1] - 1.0) < 1e-2
    assert np.all(curve.values >= 0.0)
    assert curve.normalization == pytest.approx(mean_photon(rho, H4) ** 2, rel=1e-12)


def test_antibunched_envelope_after_beat_decay():
    # the short-time curve oscillates at the detuning beat; once that has
    # damped out (a few cavity lifetimes) the envelope statement holds:
    # the correlation stays above its zero-delay value and rises toward 1
    liou = liouvillian(FIG2, H4)
    rho = steady_state(liou)
    curve = g2_tau(rho, liou, H4, default_tau_grid(FIG2), default_step(FIG2))
    tail = curve.values[curve.tau >= 2.0 / FIG2.kappa]
    assert np.all(tail >= curve.values[0])
    assert tail[-1] > tail[0]


def test_tau_grid_validation():
    liou = liouvillian(FIG2, H4)
    rho = steady_state(liou)
    dt = default_step(FIG2)
    with pytest.raises(ValueError):
        g2_tau(rho, liou, H4, np.array([0.1, 0.2]), dt)  # must start at 0
    with pytest.raises(ValueError):
        g2_tau(rho, liou, H4, np.array([0.0, 0.2, 0.2]), dt)  # strictly ascending
    with pytest.raises(StepTooLargeError):
        g2_tau(rho, liou, H4, np.array([0.0, 0.2]), 10.0)
    for grid in (np.zeros((2, 2)), np.array([])):  # 2-D, and empty
        with pytest.raises(ValueError, match="tau_grid must be a 1d array"):
            g2_tau(rho, liou, H4, grid, dt)


@pytest.mark.parametrize("grid", [[0.0, 0.5, np.nan], [0.0, np.inf], [0.0, np.nan, 0.5]])
def test_tau_grid_must_be_finite(grid):
    liou = liouvillian(FIG2, H4)
    rho = steady_state(liou)
    with pytest.raises(ValueError, match="tau_grid must be finite and ascend strictly from 0"):
        g2_tau(rho, liou, H4, np.array(grid), default_step(FIG2))


def test_steady_state_and_g2_tau_refuse_a_complex_liouvillian():
    liou = liouvillian(FIG2, H4)
    rho = steady_state(liou)
    for call in (lambda: steady_state(liou.astype(complex)),
                 lambda: g2_tau(rho, liou.astype(complex), H4, np.array([0.0, 0.2]), default_step(FIG2))):
        with pytest.raises(ValueError, match=r"expected the real Liouvillian of liouvillian\(\)"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_g2_tau_refuses_a_non_finite_liouvillian(bad):
    liou = liouvillian(FIG2, H4)
    rho = steady_state(liou)
    liou[3, 5] = bad
    with pytest.raises(ValueError, match="Liouvillian has a non-finite entry"):
        g2_tau(rho, liou, H4, np.array([0.0, 0.2, 0.5]), default_step(FIG2))
