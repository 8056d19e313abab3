"""Photon blockade and atomic coherence in a weakly driven atom-cavity system.

Two independent solver branches over the same parameter set:

* full master-equation numerics on a truncated composite Hilbert space
  (quantum_core, lindblad, correlations), and
* a closed five-amplitude weak-drive model (analytic),

plus parameter sweeps, extremum pairing, and a CSV command line front end
(sweep, cli). The headline observable pair is g2(0) against the l1-norm
coherence of the atom: blockade dips and coherence peaks sit together at
detunings Delta = +/- g.
"""

from .analytic import (
    atom_coherence_analytic,
    dressed_energies,
    g2_zero_analytic,
    steady_amplitudes,
)
from .correlations import default_tau_grid, g2_tau, g2_zero_numeric
from .lindblad import default_step, liouvillian, steady_state
from .quantum_core import HilbertConfig, SystemParams
from .sweep import Axis, SweepSpec, check_correspondence, run_sweep

__version__ = "0.1.0"
