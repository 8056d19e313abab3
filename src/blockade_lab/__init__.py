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
    AmplitudeSet,
    DressedLevel,
    alpha_beta,
    ansatz_ket,
    atom_coherence_analytic,
    atom_rho_from_amplitudes,
    dressed_energies,
    g2_zero_analytic,
    integrate_amplitude_odes,
    steady_amplitudes,
)
from .correlations import (
    CorrelationCurve,
    atom_coherence_numeric,
    default_tau_grid,
    g2_tau,
    g2_zero_numeric,
    mean_photon,
)
from .lindblad import (
    LindbladModel,
    LiouvillianBasis,
    build_liouvillian,
    default_step,
    evolve,
    liouvillian,
    model_for,
    steady_state,
    unvectorize,
    vectorize,
)
from .quantum_core import (
    HilbertConfig,
    SystemParams,
    annihilation,
    atom_lowering,
    basis_ket,
    build_hamiltonian,
    lowering_operators,
    partial_trace_cavity,
    tensor,
    truncation_shift,
)
from .sweep import (
    Axis,
    SweepResult,
    SweepSpec,
    check_correspondence,
    locate_extrema,
    parse_sweep_config,
    read_sweep_csv,
    run_sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"
