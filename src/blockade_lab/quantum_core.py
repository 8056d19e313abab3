"""Truncated Hilbert space and operators for one two-level atom in a driven cavity.

The composite basis ordering is fixed once for the whole package: atom index
slow, cavity Fock index fast, with the atom basis ordered (|g>, |e>) and Fock
states ascending. A composite basis state |atom i, n photons> sits at index
i * (n_max + 1) + n. Every operator here is a dense complex numpy array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np


# The fields of SystemParams in declaration order; a parameter row, one grid
# point of a sweep, holds them in this order.
PARAM_FIELDS = ("g", "kappa", "gamma", "eta", "delta_a", "delta")


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and detunings of the model, all in one common rate unit.

    Parameters
    ----------
    g : float
        Atom-cavity coupling rate.
    kappa : float
        Cavity field decay rate. An empty cavity loses photon number at
        exactly this rate under the convention adopted by the engine.
    gamma : float
        Atomic spontaneous emission rate.
    eta : float
        Amplitude of the coherent drive on the cavity.
    delta_a : float
        Laser-cavity detuning.
    delta : float
        Laser-atom detuning.
    """

    g: float
    kappa: float
    gamma: float
    eta: float
    delta_a: float
    delta: float

    def __post_init__(self):
        for name in PARAM_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("g", "kappa", "gamma", "eta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    def row(self) -> np.ndarray:
        """The parameters as a (1, 6) parameter row, in the order of PARAM_FIELDS."""
        return np.array([[getattr(self, name) for name in PARAM_FIELDS]], dtype=float)

    def is_weak_drive(self) -> bool:
        """Soft threshold below which the truncated analytic branch is trustworthy."""
        return self.eta <= 0.1 * max(self.g, self.kappa)


@dataclass(frozen=True)
class HilbertConfig:
    """Cavity truncation. Total dimension is 2 * (n_max + 1)."""

    n_max: int = 4

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def cavity_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


def annihilation(n_max: int) -> np.ndarray:
    """Cavity annihilation operator on the (n_max + 1)-dimensional Fock space.

    Entries a[n-1, n] = sqrt(n); everything above the cutoff is discarded.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)


def atom_lowering() -> np.ndarray:
    """Atomic lowering operator |g><e| in the basis (|g>, |e>)."""
    s = np.zeros((2, 2), dtype=complex)
    s[0, 1] = 1.0
    return s


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor's index slow (atom convention)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("tensor expects square matrices")
    return np.kron(a, b)


@cache
def lowering_operators(h: HilbertConfig) -> tuple[np.ndarray, np.ndarray]:
    """Composite-space (cavity annihilation, atomic lowering) pair.

    These are the two collapse operators of the model and the building blocks
    of every observable used here. They are built once per truncation and
    shared by every caller, so the arrays are read-only.
    """
    a = tensor(np.eye(2, dtype=complex), annihilation(h.n_max))
    sm = tensor(atom_lowering(), np.eye(h.cavity_dim, dtype=complex))
    return _read_only(a), _read_only(sm)


def _read_only(op: np.ndarray) -> np.ndarray:
    """Mark an operator that is cached and shared as read-only, and return it."""
    op.setflags(write=False)
    return op


def build_hamiltonian(p: SystemParams, h: HilbertConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian on the truncated composite space.

    H = delta_a a'a + delta s+s- + g (s+ a + a' s-) + eta (a' + a)
    with primes denoting adjoints. Hermitian by construction; with eta = 0 it
    commutes with the total excitation number.
    """
    a, sm = lowering_operators(h)
    ad = a.conj().T
    sp = sm.conj().T
    ham = (
        p.delta_a * (ad @ a)
        + p.delta * (sp @ sm)
        + p.g * (sp @ a + ad @ sm)
        + p.eta * (ad + a)
    )
    return ham


def basis_ket(h: HilbertConfig, atom: int, n: int) -> np.ndarray:
    """Basis vector |atom, n>; atom is 0 for ground, 1 for excited."""
    if atom not in (0, 1):
        raise ValueError("atom index must be 0 or 1")
    if not 0 <= n <= h.n_max:
        raise ValueError(f"photon number {n} outside truncation 0..{h.n_max}")
    ket = np.zeros(h.dim, dtype=complex)
    ket[atom * h.cavity_dim + n] = 1.0
    return ket


def partial_trace_cavity(rho: np.ndarray, h: HilbertConfig) -> np.ndarray:
    """Reduced 2x2 atomic state, tracing out the cavity mode."""
    rho = np.asarray(rho)
    if rho.shape != (h.dim, h.dim):
        raise ValueError(f"state has shape {rho.shape}, expected {(h.dim, h.dim)}")
    blocks = rho.reshape(2, h.cavity_dim, 2, h.cavity_dim)
    return np.einsum("imjm->ij", blocks)


def truncation_shift(observable: Callable[[HilbertConfig], "np.ndarray | float"],
                     h: HilbertConfig, step: int = 2) -> float:
    """Max relative change of an observable when the cutoff grows by `step`.

    The callable is evaluated at n_max and n_max + step; the larger space is
    taken as the reference. Useful as a cheap convergence report.
    """
    lo = np.atleast_1d(np.asarray(observable(h), dtype=float))
    hi = np.atleast_1d(np.asarray(observable(HilbertConfig(h.n_max + step)), dtype=float))
    scale = max(float(np.max(np.abs(hi))), 1e-300)
    return float(np.max(np.abs(lo - hi))) / scale
