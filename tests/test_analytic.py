"""Truncated-ansatz branch: closed forms, amplitude ODEs, dressed levels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockade_lab import (
    HilbertConfig,
    SystemParams,
    atom_coherence_analytic,
    default_step,
    dressed_energies,
    g2_zero_analytic,
    g2_zero_numeric,
    liouvillian,
    steady_amplitudes,
    steady_state,
)
from blockade_lab.analytic import atom_rho_from_amplitudes, closed_forms, integrate_amplitude_odes
from blockade_lab.correlations import atom_coherence_numeric
from blockade_lab.errors import NotConvergedError, SingularDenominatorError

FIG1 = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.01, delta_a=1.0, delta=1.0)

# draws stay inside the weakly driven, moderately damped regime where the
# two-excitation ansatz is meaningful (and its denominators provably nonzero)
weak_params = st.builds(
    lambda g, kr, gr, er, d1, d2: SystemParams(
        g=g, kappa=kr * g, gamma=gr * g, eta=er * g, delta_a=d1 * g, delta=d2 * g
    ),
    g=st.floats(0.5, 20.0),
    kr=st.floats(0.05, 0.2),
    gr=st.floats(0.05, 0.2),
    er=st.floats(0.002, 0.01),
    d1=st.floats(-1.5, 1.5),
    d2=st.floats(-1.5, 1.5),
)


def test_dressed_ladder():
    p = SystemParams(g=1.3, kappa=0.1, gamma=0.05, eta=0.0, delta_a=0.4, delta=0.4)
    one = dressed_energies(p, 1)
    two = dressed_energies(p, 2)
    assert one.energy_plus == pytest.approx(0.4 + 1.3)
    assert one.energy_minus == pytest.approx(0.4 - 1.3)
    assert two.energy_plus == pytest.approx(0.8 + 1.3 * np.sqrt(2))
    # anharmonicity: the second rung is not at twice the first, which is the
    # blockade mechanism; for the lower branch the offset is (2 - sqrt(2)) g
    assert two.energy_minus - 2 * one.energy_minus == pytest.approx((2 - np.sqrt(2)) * 1.3)


def test_dressed_energies_need_equal_detunings():
    p = SystemParams(g=1.0, kappa=0.1, gamma=0.1, eta=0.0, delta_a=0.3, delta=0.2)
    with pytest.raises(ValueError):
        dressed_energies(p, 1)
    with pytest.raises(ValueError):
        dressed_energies(FIG1, 0)


def test_amplitude_hierarchy_under_weak_drive():
    amps = steady_amplitudes(FIG1)
    assert amps.c0g == 1.0
    first = max(abs(amps.c1g), abs(amps.c0e))
    second = max(abs(amps.c2g), abs(amps.c1e))
    assert first < 0.25
    assert second < 0.05 * first
    assert amps.p1 / amps.p2 > 100


@settings(max_examples=60, deadline=None)
@given(p=weak_params)
def test_g2_formula_equals_population_ratio(p):
    """The closed form is algebraically 2 p2 / p1^2; both paths must agree."""
    amps = steady_amplitudes(p)
    assert g2_zero_analytic(p) == pytest.approx(2.0 * amps.p2 / amps.p1**2, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(p=weak_params, factor=st.floats(0.25, 4.0))
def test_g2_analytic_is_drive_independent(p, factor):
    rescaled = SystemParams(g=p.g, kappa=p.kappa, gamma=p.gamma, eta=factor * p.eta,
                            delta_a=p.delta_a, delta=p.delta)
    assert g2_zero_analytic(rescaled) == g2_zero_analytic(p)


@settings(max_examples=40, deadline=None)
@given(p=weak_params)
def test_coherence_linear_in_drive(p):
    doubled = SystemParams(g=p.g, kappa=p.kappa, gamma=p.gamma, eta=2.0 * p.eta,
                           delta_a=p.delta_a, delta=p.delta)
    assert atom_coherence_analytic(doubled) == 2.0 * atom_coherence_analytic(p)


def test_coherent_light_limit_exact():
    p = SystemParams(g=0.0, kappa=0.3, gamma=0.1, eta=0.003, delta_a=0.17, delta=0.0)
    assert abs(g2_zero_analytic(p) - 1.0) < 1e-12
    assert atom_coherence_analytic(p) == 0.0


def test_singular_denominator_signaled():
    # with no dissipation at all, D1 = g^2 - Delta^2 vanishes on resonance
    p = SystemParams(g=1.0, kappa=0.0, gamma=0.0, eta=0.001, delta_a=1.0, delta=1.0)
    with pytest.raises(SingularDenominatorError):
        steady_amplitudes(p)
    with pytest.raises(SingularDenominatorError):
        g2_zero_analytic(p)


@pytest.mark.parametrize("g, delta", [(1.0, 1e308), (1.0, 2e154), (1e200, 1.0)])
def test_closed_forms_past_double_precision_raise_overflow_quietly(g, delta):
    p = SystemParams(g=g, kappa=0.05, gamma=0.05, eta=0.01, delta_a=delta, delta=delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for closed_form in (g2_zero_analytic, atom_coherence_analytic, steady_amplitudes):
            with pytest.raises(OverflowError):
                closed_form(p)


def test_closed_forms_of_a_stack_are_the_scalar_values():
    rows = np.array([[1.0, 0.05, 0.05, 0.01, d, d] for d in (-1.0, 0.3, 1.0, 2e154)]
                    + [[1.0, 0.0, 0.0, 0.01, 1.0, 1.0]])
    g2, coh, g2_failed, coh_failed = closed_forms(rows)
    for r, row in enumerate(rows):
        p = SystemParams(*row)
        for value, failed, scalar in ((g2, g2_failed, g2_zero_analytic),
                                      (coh, coh_failed, atom_coherence_analytic)):
            if r in failed:
                assert np.isnan(value[r])
                with pytest.raises(type(failed[r])):
                    scalar(p)
            else:
                assert value[r] == scalar(p)
    assert type(g2_failed[4]) is SingularDenominatorError
    assert type(g2_failed[3]) is OverflowError


def test_atom_state_from_amplitudes():
    amps = steady_amplitudes(FIG1)
    rho = atom_rho_from_amplitudes(amps)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() > -1e-14
    # the off-diagonal is exactly the amplitude overlap over the norm
    ge = amps.c0g * np.conj(amps.c0e) + amps.c1g * np.conj(amps.c1e)
    norm = (abs(amps.c0g) ** 2 + abs(amps.c1g) ** 2 + abs(amps.c2g) ** 2
            + abs(amps.c0e) ** 2 + abs(amps.c1e) ** 2)
    assert 2.0 * abs(rho[0, 1]) == pytest.approx(2.0 * abs(ge) / norm, rel=1e-13)


def test_closed_coherence_close_to_normalized_form_off_peak():
    # away from the |D1| minimum the excited amplitudes are tiny and the
    # leading-order closed form agrees with the normalized ansatz state
    for dd in (0.5, -1.3):
        p = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.01, delta_a=dd, delta=dd)
        rho = atom_rho_from_amplitudes(steady_amplitudes(p))
        assert 2.0 * abs(rho[0, 1]) == pytest.approx(atom_coherence_analytic(p), rel=1e-3)


def test_coherence_peaks_at_coupling_detuning():
    deltas = np.linspace(-2.0, 2.0, 401)
    vals = [atom_coherence_analytic(SystemParams(g=1.0, kappa=0.05, gamma=0.05,
                                                 eta=0.01, delta_a=d, delta=d))
            for d in deltas]
    peak = abs(deltas[int(np.argmax(vals))])
    assert abs(peak - 1.0) <= 0.01


def test_numeric_coherence_tracks_closed_form():
    # finite drive shifts the numeric value at the peak; the measured gap at
    # eta/g = 0.01 is ~14%, and it collapses with eta^2 (checked at 0.002)
    h = HilbertConfig(4)
    rho = steady_state(liouvillian(FIG1, h))
    assert atom_coherence_numeric(rho, h) == pytest.approx(
        atom_coherence_analytic(FIG1), rel=0.15)

    gentle = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.002, delta_a=1.0, delta=1.0)
    rho2 = steady_state(liouvillian(gentle, h))
    assert atom_coherence_numeric(rho2, h) == pytest.approx(
        atom_coherence_analytic(gentle), rel=0.05)


def test_ode_transient_matches_driven_cavity_solution():
    # at g = 0 the one-photon amplitude rises as -i eta / beta (1 - e^{-beta t})
    p = SystemParams(g=0.0, kappa=0.4, gamma=0.1, eta=0.001, delta_a=0.3, delta=0.0)
    t = 2.0 / p.kappa
    got = integrate_amplitude_odes(p, t, default_step(p), check_convergence=False)
    beta = p.kappa / 2 + 1j * p.delta_a
    want = -1j * p.eta / beta * (1.0 - np.exp(-beta * t))
    assert abs(got.c1g - want) < 1e-6


def test_ode_steady_state_matches_closed_forms():
    p = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.005, delta_a=1.0, delta=1.0)
    ode = integrate_amplitude_odes(p, 200.0 / max(p.kappa, p.gamma), default_step(p))
    closed = steady_amplitudes(p)
    for name in ("c1g", "c0e", "c2g", "c1e"):
        assert getattr(ode, name) == pytest.approx(getattr(closed, name), rel=0.01)


def test_ode_convergence_gate():
    p = SystemParams(g=1.0, kappa=0.1, gamma=0.1, eta=0.005, delta_a=1.0, delta=1.0)
    with pytest.raises(NotConvergedError):
        integrate_amplitude_odes(p, 5.0, default_step(p))
    # the same call with the gate off returns the transient snapshot
    res = integrate_amplitude_odes(p, 5.0, default_step(p), check_convergence=False)
    assert res.c0g == 1.0


def test_analytic_and_numeric_g2_agree_where_drive_is_gentle():
    h = HilbertConfig(4)
    p = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.002, delta_a=1.0, delta=1.0)
    rho = steady_state(liouvillian(p, h))
    num = g2_zero_numeric(rho, h)
    ana = g2_zero_analytic(p)
    assert abs(np.log10(num) - np.log10(ana)) < 0.05
