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


@cache
def lowering_operators(h: HilbertConfig) -> tuple[np.ndarray, np.ndarray]:
    """Composite-space (cavity annihilation, atomic lowering) pair.

    These are the two collapse operators of the model and the building blocks
    of every observable used here. They are built once per truncation and
    shared by every caller, so the arrays are read-only.
    """
    a = np.kron(np.eye(2, dtype=complex), annihilation(h.n_max))
    sm = np.kron(atom_lowering(), np.eye(h.cavity_dim, dtype=complex))
    return _read_only(a), _read_only(sm)


def _read_only(op: np.ndarray) -> np.ndarray:
    """Mark an operator that is cached and shared as read-only, and return it."""
    op.setflags(write=False)
    return op


def _photon_counts(h: HilbertConfig) -> np.ndarray:
    """The photon number n of each composite basis state |atom, n>, as integers.

    This is the diagonal of a'a. The product a' @ a rounds it (sqrt(2)^2 is
    2.0000000000000004), so every operator built on a'a starts from here.
    """
    return np.tile(np.arange(h.cavity_dim), 2)


def build_hamiltonian(p: SystemParams, h: HilbertConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian on the truncated composite space.

    H = delta_a a'a + delta s+s- + g (s+ a + a' s-) + eta (a' + a)
    with primes denoting adjoints. Hermitian by construction; with eta = 0 it
    commutes with the total excitation number. a'a is the exact integer
    diagonal n on |atom, n> (_photon_counts), and s+s- is exact as a
    product, so at delta_a = delta the two detuning parts of L cancel to the
    bit on every element of coherence order 0 (see lindblad._BlockKernel).
    """
    a, sm = lowering_operators(h)
    ad = a.conj().T
    sp = sm.conj().T
    ham = (
        p.delta_a * np.diag(_photon_counts(h)).astype(complex)
        + p.delta * (sp @ sm)
        + p.g * (sp @ a + ad @ sm)
        + p.eta * (ad + a)
    )
    return ham


