"""Helpers shared by more than one test module."""

import numpy as np
import pytest

from blockade_lab.analytic import _ode_matrix
from blockade_lab.lindblad import RK4Propagator


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
