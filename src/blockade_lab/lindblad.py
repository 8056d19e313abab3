"""Liouvillian assembly, steady-state solving, and time evolution.

The master equation used everywhere is the standard form with full rates,

    drho/dt = -i[H, rho] + kappa D[a](rho) + gamma D[sigma-](rho),
    D[c](rho) = c rho c' - (c'c rho + rho c'c) / 2,

under which an undriven empty cavity loses photon number at exactly kappa.

Superoperators are first formed in the column-stacking basis, where
vec(A rho B) = (B^T kron A) vec(rho), and then taken to real coordinates. L
maps Hermitian matrices to Hermitian matrices, so it acts on the coordinates
of rho in the orthonormal real basis of Hermitian d x d matrices, the
coherence vector of Alicki and Lendi (Quantum Dynamical Semigroups and
Applications, 1987): E_ii, and for each pair i < j the symmetric element
(E_ij + E_ji)/sqrt2 and the antisymmetric element i(E_ij - E_ji)/sqrt2. With
T the unitary matrix whose columns are these elements, vectorized, the real
Liouvillian is L_r = T' L T. It has the singular values of L, and a solve
on it costs about half as much, a matrix product about a quarter. Each
Liouvillian this module returns or takes is L_r, and vectorize and
unvectorize map between a Hermitian rho and its real coordinates.

The coordinates run over the lower triangle of rho in column-stacking order:
column by column, first the diagonal entry, then each entry below it, which
contributes its symmetric coordinate and then its antisymmetric one. The
order is part of the numerics, not only a convention. The solve pivots
through the matrix in this order, and with the diagonal coordinates first
the same solve lost up to 2.7e-5 relative in g2 on a 5 x 5 fig3 grid at
n_max 10. This order agrees there with the solve in the column-stacking
basis to 3e-12, and it is as close as that solve to an extended-precision
reference.

The drive is the only term that changes the coherence order |N_i - N_j| of
an element rho_ij, N being the photon number plus the atomic excitation, so
ordered by that order L_r is block tridiagonal, and steady_state solves
the bordered system block by block along that order (_BlockKernel). The
elements of order q >= 1 are the adjoints of those of order -q, so each of
those blocks is held and solved as a complex matrix of half its size, and
they are eliminated from the top order down, which leaves the real q = 0
block, with the trace row, to be inverted last; one step of iterative
refinement then recovers the accuracy that this order gives up on the
smallest populations. The kernel is loaded one way, from the nonzeros of
L_r: their pattern is fixed for each truncation, so a sweep never forms its
dense Liouvillians (steady_states_at), and steady_state on one L reads it
through the same pattern. An L with a nonzero off it, and a row the block
solve's gates refuse, get a dense solve of the bordered system instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import cache
from types import SimpleNamespace

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    NoDissipationError,
    SolverError,
    StepTooLargeError,
    first_failures,
)
from .quantum_core import (
    PARAM_FIELDS,
    HilbertConfig,
    SystemParams,
    _read_only,
    build_hamiltonian,
    lowering_operators,
)

# Stability bound for the fixed-step integrator: ||L_r||_inf * dt must stay below this.
MAX_STEP_FACTOR = 0.1

_SQRT2 = np.sqrt(2.0)
# The factor of T for an entry on the diagonal (1) and off it (1/sqrt2, as
# sqrt(0.5) correctly rounded); where two off-diagonal factors meet, their
# product is taken as exactly 0.5.
_SCALES = np.array([1.0, np.sqrt(0.5), 0.5])


@cache
def _layout(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the real coordinates of a dim x dim Hermitian matrix come from.

    Returns rows, cols, off and first, one entry per element of the lower
    triangle in coordinate order: its row and column, whether it is off the
    diagonal, and the index of its first coordinate. An element on the
    diagonal has one coordinate; one below it has its symmetric coordinate at
    first and its antisymmetric one at first + 1.
    """
    cols, rows = np.triu_indices(dim)
    off = rows != cols
    size = np.where(off, 2, 1)
    first = np.cumsum(size) - size
    return tuple(_read_only(x) for x in (rows, cols, off, first))


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Real coordinates x_k = Tr(B_k rho) of a Hermitian matrix.

    Over the basis and in the order of the module docstring: a diagonal
    element rho_ii gives its real part, and an element rho_ij below the
    diagonal gives sqrt2 Re rho_ij, then -sqrt2 Im rho_ij.

    Raises
    ------
    ValueError
        If rho is not square, or not Hermitian to within 1e-12 of its largest
        entry (a non-finite entry included).
    """
    rho = np.asarray(rho)
    dim = rho.shape[0]
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    rows, cols, off, first = _layout(dim)
    lower = rho[rows, cols]
    mismatch = np.max(np.abs(lower - rho[cols, rows].conj()))
    if not mismatch <= 1e-12 * np.max(np.abs(lower)):
        raise ValueError(f"matrix is not Hermitian: |rho_ij - conj(rho_ji)| up to {mismatch:.3e}")
    vec = np.empty(dim * dim)
    vec[first] = np.where(off, _SQRT2 * lower.real, lower.real)
    vec[first[off] + 1] = -_SQRT2 * lower.imag[off]
    return vec


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian dim x dim matrix with real coordinates vec; inverse of vectorize.

    The result is Hermitian by construction: each element above the diagonal
    is the conjugate of its mirror, and the diagonal is real. vec must have
    shape (dim^2,), else ValueError.
    """
    vec = np.asarray(vec)
    if vec.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} coordinates for dim {dim}, got shape {vec.shape}")
    rows, cols, off, first = _layout(dim)
    lower = vec[first].astype(complex)
    lower[off] = _SCALES[1] * (vec[first[off]] - 1j * vec[first[off] + 1])
    rho = np.empty((dim, dim), dtype=complex)
    rho[cols, rows] = lower.conj()
    rho[rows, cols] = lower
    return rho


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """A Hamiltonian plus weighted collapse channels, all on one space.

    channels is a tuple of (operator, rate) pairs; here always
    ((a, kappa), (sigma-, gamma)).
    """

    hamiltonian: np.ndarray
    channels: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        d = self.hamiltonian.shape[0]
        if self.hamiltonian.shape != (d, d):
            raise ValueError("hamiltonian must be square")
        for op, rate in self.channels:
            if op.shape != (d, d):
                raise ValueError("collapse operator dimension mismatch")
            if rate < 0:
                raise ValueError("collapse rates must be nonnegative")


def model_for(p: SystemParams, h: HilbertConfig) -> LindbladModel:
    """Convenience constructor wiring the two physical collapse channels."""
    a, sm = lowering_operators(h)
    return LindbladModel(build_hamiltonian(p, h), ((a, p.kappa), (sm, p.gamma)))


def _kron_nonzeros(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and values of the nonzero products in np.kron(a, b).

    a and b are d x d; an index addresses the row-major d^2 x d^2 product.
    Each value is the product a[i, j] * b[k, l] that np.kron forms, built
    from the nonzeros of a and b alone, with no dense d^4 intermediate.
    """
    d = a.shape[0]
    ai, aj = np.nonzero(a)
    bk, bl = np.nonzero(b)
    rows = ai[:, None] * d + bk
    cols = aj[:, None] * d + bl
    vals = a[ai, aj][:, None] * b[bk, bl]
    return (rows * (d * d) + cols).reshape(-1), vals.reshape(-1)


def _align(terms) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of the sparse terms' indices, and each term's values laid out on it.

    Returns idx and a (len(terms), idx.size) array whose row k holds term k's
    values at its own indices and zeros elsewhere.
    """
    idx = np.sort(np.concatenate([i for i, _ in terms]))
    idx = idx[np.diff(idx, prepend=-1) != 0]
    aligned = np.zeros((len(terms), idx.size), dtype=np.result_type(*[v for _, v in terms]))
    for row, (i, v) in zip(aligned, terms):
        row[np.searchsorted(idx, i)] = v
    return idx, aligned


def _combine(terms, expr) -> tuple[np.ndarray, np.ndarray]:
    """Nonzeros of expr applied entrywise to sparse terms, as flat indices and values.

    expr sees the terms' values aligned on the sorted union of their indices
    (_align). Each nonzero entry is thus the same arithmetic on the same
    operands as the dense expression, and the indices come out ascending like
    np.flatnonzero.
    """
    idx, aligned = _align(terms)
    vals = expr(*aligned)
    keep = vals != 0
    return idx[keep], vals[keep]


def _hamiltonian_superop(ham: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzeros of -i (I kron H - H^T kron I), the commutator part of L."""
    eye = np.eye(ham.shape[0], dtype=complex)
    return _combine((_kron_nonzeros(eye, ham), _kron_nonzeros(ham.T, eye)),
                    lambda left, right: -1j * (left - right))


def _dissipator_superop(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzeros of conj(c) kron c - (I kron c'c) / 2 - ((c'c)^T kron I) / 2."""
    eye = np.eye(c.shape[0], dtype=complex)
    cdc = c.conj().T @ c
    return _combine(
        (_kron_nonzeros(c.conj(), c), _kron_nonzeros(eye, cdc), _kron_nonzeros(cdc.T, eye)),
        lambda jump, left, right: jump - 0.5 * left - 0.5 * right,
    )


@cache
def _t_nonzeros(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """T in sparse form: the at most two nonzeros in each of its rows.

    Row p of T is the column-stacking index of one element of a dim x dim
    matrix. Returns coord, phase and halves, each of shape (2, dim^2), and
    upper: T[p, coord[j, p]] = phase[j, p] * sqrt(0.5)^halves[j, p], where
    phase is 0 in the unused second slot of a diagonal element; upper[p]
    tells whether p lies above the diagonal.
    """
    rows, cols, off, first = _layout(dim)
    n = dim * dim
    coord = np.zeros((2, n), dtype=np.intp)
    phase = np.zeros((2, n), dtype=complex)
    halves = np.zeros((2, n), dtype=np.intp)
    upper = np.zeros(n, dtype=bool)
    # i(E_ij - E_ji)/sqrt2 for i < j has -i/sqrt2 below the diagonal and
    # +i/sqrt2 above it; the diagonal writes its element twice, identically.
    for p, antisymmetric in ((cols * dim + rows, -1j), (rows * dim + cols, 1j)):
        coord[0, p], coord[1, p] = first, first + off
        phase[0, p], phase[1, p] = 1.0, np.where(off, antisymmetric, 0.0)
        halves[:, p] = off
    upper[(rows * dim + cols)[off]] = True
    return tuple(_read_only(x) for x in (coord, phase, halves, upper))


def _real_part(part, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzeros of T' P T, for P given by the nonzeros of a column-stacking part.

    Each nonzero P[p, q] = v feeds the at most 2 x 2 coordinates k of element
    p and l of element q with Re(conj(T[p, k]) T[q, l] v), the product of
    the two factors of T taken from _SCALES. Entry (k, l) sums up to four such
    contributions, one for each choice of the lower or upper element of k's
    pair and of l's, in the fixed order (lower, lower), (lower, upper),
    (upper, lower), (upper, upper). Their imaginary parts cancel, since L
    commutes with the adjoint, so only real parts are summed. No dense d^4
    array is made.
    """
    idx, vals = part
    n = dim * dim
    coord, phase, halves, upper = _t_nonzeros(dim)
    p, q = np.divmod(idx, n)
    weight = (phase[:, None, p].conj() * phase[None, :, q]
              * _SCALES[halves[:, None, p] + halves[None, :, q]])
    flat = coord[:, None, p] * n + coord[None, :, q]
    contribution = (weight * vals).real
    members = np.broadcast_to(2 * upper[p] + upper[q], flat.shape)
    terms = []
    for m in range(4):
        pick = (weight != 0) & (members == m)
        terms.append((flat[pick], contribution[pick]))
    return _combine(terms, lambda ll, lu, ul, uu: ll + lu + ul + uu)


def _weighted_sum(aligned: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The nonzeros of sum_k weights[r, k] * part_k, one row for each row r of weights.

    The parts come aligned on the union of their nonzeros (_align) and are
    added in order, entry by entry, as ((0 + w_0 v_0) + w_1 v_1) + ..., by
    elementwise products and not by a matrix product, so a row's bits do not
    depend on the rows stacked with it. A part absent at an entry adds w * 0,
    a signed zero, to a running sum that starts at +0 and so is never -0;
    that changes no bit. Each row therefore holds the entries of the dense
    sum of the parts in the same order exactly, whatever its weights.
    """
    acc = np.zeros((weights.shape[0], aligned.shape[1]))
    for k, part in enumerate(aligned):
        acc += weights[:, k, None] * part
    return acc


def _dense(dim: int, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A new (rows, dim^2, dim^2) stack with each row of values at the flat indices idx, 0 elsewhere."""
    n = dim * dim
    liou = np.zeros((values.shape[0], n, n))
    liou.reshape(-1, n * n)[:, idx] = values
    return liou


def build_liouvillian(model: LindbladModel) -> np.ndarray:
    """Real superoperator L_r with vectorize(drho/dt) = L_r vectorize(rho)."""
    d = model.hamiltonian.shape[0]
    parts = [_real_part(_hamiltonian_superop(model.hamiltonian), d)]
    parts += [_real_part(_dissipator_superop(op), d) for op, _ in model.channels]
    weights = np.array([[1.0] + [rate for _, rate in model.channels]])
    idx, aligned = _align(parts)
    return _dense(d, idx, _weighted_sum(aligned, weights))[0]


class _Pattern:
    """The ascending flat indices idx of the nonzeros of n x n matrices, and what the gates read through them.

    A stack of such matrices is held as its values at idx, one row a matrix.
    The pattern keeps the nonzeros on the diagonal, the nonzero at the
    transpose position of each (-1 where there is none), the column and row
    runs of the product L_r x, and the kernel that solves a stack on it: a
    basis pattern's block kernel, with the slot of each nonzero in its buffer
    (slots), or None for the dense solve. Every row must hold an entry, as
    every row of a basis pattern and of the full pattern does: product takes
    the i-th run of entries as row i.
    """

    def __init__(self, idx: np.ndarray, n: int, kernel: _BlockKernel | None = None):
        self.idx, self.n, self.kernel = idx, n, kernel
        self.slots = None if kernel is None else kernel.slots(idx)
        # idx ascends, so each row's nonzeros are one run, starting at _starts
        rows, self._cols = np.divmod(idx, n)
        self._diagonal = np.flatnonzero(rows == self._cols)
        mirror = self._cols * n + rows
        at = np.minimum(np.searchsorted(idx, mirror), idx.size - 1)
        self._transpose = _read_only(np.where(idx[at] == mirror, at, -1))
        self._starts = np.flatnonzero(np.diff(rows, prepend=-1))

    def product(self, values: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """L_r x for each row of values and of the (N, n) coordinates vecs, from the nonzeros alone."""
        return np.add.reduceat(values * np.take(vecs, self._cols, axis=1), self._starts, axis=1)


@cache
def _full_pattern(n: int) -> _Pattern:
    """Every entry of an n x n matrix, with no kernel: how steady_state reads an L_r off its basis's pattern."""
    return _Pattern(np.arange(n * n), n)


class LiouvillianBasis:
    """Per-truncation cache of the six unit-parameter superoperators.

    L is linear in every field of SystemParams, so the Liouvillian at any
    point is a weighted sum of six fixed superoperators. Each is built
    sparsely in the column-stacking basis, taken once to real coordinates,
    and kept as the flat indices and values of its nonzeros, also laid out
    on their common pattern (710 of L_r's 10,000 entries at n_max 4, 3,986
    of 234,256 at n_max 10). assemble, the one way a Liouvillian is built,
    adds them in a fixed field order, so the result is bit-reproducible and
    the same for a row alone or in a stack; liouvillians lays those values
    out as dense matrices. The gates and the block kernel the pattern
    carries read L_r through it, as a stack's values (steady_states_at) or
    as one dense matrix (steady_state).
    """

    _H_FIELDS = ("delta_a", "delta", "g", "eta")

    def __init__(self, h: HilbertConfig):
        d = h.dim
        zero = SystemParams(g=0, kappa=0, gamma=0, eta=0, delta_a=0, delta=0)
        self._parts = {}
        for field in self._H_FIELDS:
            unit = replace(zero, **{field: 1.0})
            self._parts[field] = _real_part(_hamiltonian_superop(build_hamiltonian(unit, h)), d)
        a, sm = lowering_operators(h)
        self._parts["kappa"] = _real_part(_dissipator_superop(a), d)
        self._parts["gamma"] = _real_part(_dissipator_superop(sm), d)
        self._columns = [PARAM_FIELDS.index(field) for field in self._parts]
        idx, self._aligned = _align(list(self._parts.values()))
        self.pattern = _Pattern(idx, d * d, _BlockKernel(d))

    def assemble(self, rows: np.ndarray) -> np.ndarray:
        """The nonzeros of the real Liouvillians of (N, 6) parameter rows, an (N, pattern.idx.size) array.

        An entry that overflows is left non-finite, without a warning, for
        the steady-state gates.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return _weighted_sum(self._aligned, rows[:, self._columns])


@cache
def _basis(h: HilbertConfig) -> LiouvillianBasis:
    return LiouvillianBasis(h)


def liouvillian(p: SystemParams, h: HilbertConfig) -> np.ndarray:
    """Real superoperator L_r of the model at p on truncation h: the one row of liouvillians at p."""
    return liouvillians(p.row(), h)[0]


def liouvillians(rows: np.ndarray, h: HilbertConfig) -> np.ndarray:
    """Real Liouvillians of (N, 6) parameter rows on truncation h, as a new stack.

    The nonzeros LiouvillianBasis.assemble gives for the rows, on the basis
    built once per truncation and kept for the life of the process, laid out
    dense; row r carries the bits it gets alone.
    """
    basis = _basis(h)
    return _dense(h.dim, basis.pattern.idx, basis.assemble(rows))


class _BlockKernel:
    """Steady state of the bordered matrix M by block elimination over the coherence-order blocks.

    The coherence order of an element rho_ij is q = |N_i - N_j|, with N the
    photon number plus the atomic excitation of a state of the atom-major
    basis, and each real coordinate has the order of its element. The drive
    eta (a + a') is the only part of L that changes q, by one (the weak U(1)
    symmetry of Buca and Prosen, New J. Phys. 14, 073007, 2012), so ordered
    by q, L_r and M are block tridiagonal, with the trace row inside the
    q = 0 block: 18/32/24/16/8/2 coordinates at n_max 4, 42/80/72/.../8/2 at
    n_max 10.

    The +q and -q parts of rho are each other's adjoints, so L acts on the
    elements of order q >= 1 as a complex-linear map of half the size. Each
    element off the diagonal gives the pair (u, v) of its two coordinates
    for which u + i v is sqrt2 rho_ij with N_i < N_j, or i sqrt2 rho_ij with
    N_i > N_j: that is (x_s, x_a) or (x_a, x_s), a permutation and no sign.
    Block k >= 1 runs over these pairs, and its blocks, with A_k the
    diagonal ones, U_k = M[k, k+1] and B_k = M[k+1, k], are the real forms
    of complex matrices X of half the size: X[e, f] = M[u_e, u_f] + i
    M[v_e, u_f]. Only U_0 and B_0, which join the real q = 0 block to
    q = 1, are not complex-linear; as maps, B_0 x_0 = B~_0 x_0 and U_0 x_1 =
    Re(U~_0 (u + i v)_1) with B~_0 = M[u, 0] + i M[v, 0] and U~_0 = M[0, u] -
    i M[0, v].

    M x = e0 is solved by eliminating from the top order down, which keeps
    every Schur complement of q >= 1 complex: S_last = A_last, and for k =
    last - 1, ..., 0, with F_k = S_{k+1}^-1 B_k and G_k = U_k S_{k+1}^-1,
    S_k = A_k - U_k F_k, which is real for k = 0 (S_0 = A_0 -
    Re(U~_0 S_1^-1 B~_0)). The trace row lies in S_0, which is inverted last
    by LAPACK with partial pivoting, as each S_k is; then x_0 is column 0
    of S_0^-1, and x_{k+1} = -F_k x_k, which the exact state satisfies too.

    S_0 is formed from every block above it, and its rounding costs the
    smallest populations most: g2 on fig4 was off by up to 7.5e-10. One step
    of fixed-precision iterative refinement (Skeel, Math. Comp. 35, 817,
    1980) on S_0 x_0 = e0 recovers it, to 1.2e-11: the residual r = e0 - M x
    is the drift -L_r x with row 0 replaced by 1 - Tr x, the same factors
    condense it to z_0 = e0 - S_0 x_0 (z_last = r_last, z_k = r_k -
    G_k z_{k+1}), and x_0 + S_0^-1 z_0 is spread again by x_{k+1} = -F_k x_k.
    The correction of the blocks q >= 1 that the full step x + M^-1 r would
    add is left out. g2 and the photon number rest on x_0 and do not see
    it; with a residual rounded in double it moves the coherences by about
    their own error, a few ulps, and it took their worst error on fig3 at
    n_max 10 from 6.9e-16 to 1.3e-15.

    Taken in reverse block order, M is block tridiagonal with the block LU
    factors of these steps, M = L_b U_b, so ||M^-1||_1 <= ||U_b^-1||_1
    ||L_b^-1||_1 <= beta = u l (Meurant, SIAM J. Matrix Anal. Appl. 13,
    707, 1992), with

        u = max_k ||S_k^-1||_1 (1 + ||F_k||_1 + ||F_k||_1 ||F_{k+1}||_1 + ...),
        l = max_k (1 + ||G_k||_1 + ||G_k||_1 ||G_{k-1}||_1 + ...),

    the norms those of the real maps, read exactly from the complex factors:
    ||realify(X)||_1 = max_j sum_i (|Re X_ij| + |Im X_ij|), and for G_0,
    whose real form has the columns Re G~_0 and -Im G~_0, the larger sum of
    either. A row with n eps max(1, max |M|) beta >= 1, n the size of the
    largest block, may have a pivot singular to working precision (beta
    bounds each ||S_k^-1||_1, and max |M| stands in for ||S_k||_1), and its
    beta is set to inf: such a computed inverse has no correct digit, and
    its norm came out up to 800 times below the dense one on M with
    ||M^-1||_1 near 1e20. The certificate would refuse such a row whatever
    its beta, so the dense solve (_dense_solve) takes it.

    One loader fills the kernel's factors buffer, and _factor solves it:
    _load writes the nonzeros of a stack of L_r at their slots (slots, found
    once, when the basis pattern is built), the other entries zero. Each block
    is stored as its transpose, and block k >= 1 as complex numbers, one
    entry taken from the nonzero at [u_e, u_f] and one from [v_e, u_f]: the
    nonzeros in the columns v_f repeat them and are not written. A_0 and U_0
    are stored as they stand, real, each in a slot of its own, with the
    trace row written in as row 0 of A_0 and row 0 of U_0 zero, and B_0 is
    held as B~_0^T. A row of a stack, its nonzeros included, takes 53,216
    bytes at n_max 4 and 520,416 at n_max 10, against 82,544 and 909,760
    with every block real.

    A solve leaves the factors buffer holding what the norms of beta read:
    the A_k slot holds |S_k^-T|, the B_k slot |G_k^T| (|realify(G_0)^T| for
    k = 0) and the bound part |F_k^T|, each written once the block it
    replaces is spent, and their absolute values taken after the refinement
    step, which reads the factors. These slots lie before every U_k^T slot,
    and each is a contiguous run of the rows whose sums the norms take.

    NaN marks a row the kernel cannot solve, one that meets a singular pivot:
    that pivot's inverse is written NaN. The NaN runs on into that row's
    state and beta, and no step mixes rows, so the other rows of a stack keep
    their bits. A pattern read by the kernel lies on the block pattern; the
    basis pattern does, since only the drive changes the coherence order.

    A kernel's layout (slot tables, norm runs) is read-only, built with its
    basis pattern, once per truncation (_basis), and shared by all threads;
    the buffers it writes are held apart for each thread (_buffers).
    """

    def __init__(self, dim: int):
        rows, cols, off, first = _layout(dim)
        n = dim * dim
        excitation = np.arange(dim) // (dim // 2) + np.arange(dim) % (dim // 2)
        q = np.abs(excitation[rows] - excitation[cols])
        order_of = np.zeros(n, dtype=np.intp)
        order_of[first] = q
        order_of[first[off] + 1] = q[off]
        # (u, v) of each element: (x_a, x_s) where N_i > N_j, else (x_s, x_a)
        u = first + (excitation[rows] > excitation[cols])
        pairs = np.stack([u, 2 * first + 1 - u], axis=1)
        # q = 0 in the coordinates' own order, so rho_00 stays first
        groups = [np.flatnonzero(order_of == 0)]
        groups += [pairs[off & (q == k)].reshape(-1) for k in range(1, q.max() + 1)]
        self.sizes = [g.size for g in groups]
        self.n, self.last, self._q_of = n, len(groups) - 1, order_of
        # the coordinate at each position of the kernel, and the position of each
        # coordinate (writeable: np.take copies a read-only index on every call)
        self.order = np.concatenate(groups)
        self.position = np.empty(n, dtype=np.intp)
        self.position[self.order] = np.arange(n)
        bounds = np.cumsum([0] + self.sizes)
        self.spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._diagonal = self.position[first[~off]]
        s, last = self.sizes, self.last

        # The factors buffer of a row, in this order: F_k^T for each k < last,
        # which a solve writes; A_0, real, and B~_0^T, then A_k^T and B_k^T for
        # each k >= 1, complex, which it overwrites with the factors the norms
        # read; then U_0, real, and each U_k^T, which it only reads. Each
        # region is a (shape, complex) pair.
        regions = {("f", k): ((s[k] // (1 + (k > 0)), s[k + 1] // 2), True) for k in range(last)}
        regions["a", 0] = ((s[0], s[0]), False)
        for k in range(last + 1):
            if k:
                regions["a", k] = ((s[k] // 2, s[k] // 2), True)
            if k < last:
                regions["b", k] = regions["f", k]
        regions["u", 0] = ((s[0], s[1]), False)
        regions.update((("u", k), ((s[k + 1] // 2, s[k] // 2), True)) for k in range(1, last))
        self._regions, end = {}, 0
        for key, (shape, cplx) in regions.items():
            self._regions[key] = (end, shape, cplx)
            end += shape[0] * shape[1] * (2 if cplx else 1)
        self._loaded = self._regions["a", 0][0]
        self._normed = self._regions["u", 0][0]
        start = lambda key: self._regions[key][0]  # noqa: E731

        # slot = start + row * row_stride + col * col_stride, by the blocks
        # (kr, kc) of an entry M[r, c] and its place in them, with col the
        # element of a pair in a complex block, whose column v is not stored
        tables = np.zeros((4, last + 1, last + 1), dtype=np.intp)
        tables[:, 0, 0] = start(("a", 0)), s[0], 1, 0
        tables[:, 0, 1] = start(("u", 0)), s[1], 1, 0
        tables[:, 1, 0] = start(("b", 0)), 1, s[1], 0
        for k in range(1, last + 1):
            tables[:, k, k] = start(("a", k)), 1, s[k], 1
            if k < last:
                tables[:, k, k + 1] = start(("u", k)), 1, s[k], 1
                tables[:, k + 1, k] = start(("b", k)), 1, s[k + 1], 1
        self._slot_tables, self._slot_opens = _read_only(tables), bounds[:-1]
        # row 0 of A_0: the trace row, one at each diagonal coordinate
        self._trace = _read_only(np.isin(np.arange(s[0]), self._diagonal).astype(float))

        # The norms are the maxima of row sums over the rows of each region
        # before U_0: |F_k^T| (f), |S_k^-T| (a) and |G_k^T| (b), rows of s_{k+1},
        # s_k and s_k doubles, the last read as |realify(G_0)^T| for k = 0.
        # Each region's rows open at one of _runs, and its maximum at one of
        # _opens, in memory order, followed by the constants 1 and 0.
        runs, opens = [], []
        for (name, k), (at, (height, width), cplx) in self._regions.items():
            if name == "u":
                break
            opens.append(len(runs))
            runs += range(at, at + height * width * (2 if cplx else 1), s[k + (name == "f")])
        self._runs = _read_only(np.array(runs))
        self._opens = _read_only(np.array(opens + [len(runs), len(runs) + 1]))
        at = {key: j for j, key in enumerate(self._regions)}
        one, zero = len(opens), len(opens) + 1
        # Row k of chain[0] is a_k, f_k, ..., f_{last-1} and row m + 1 of
        # chain[1] is 1, b_m, ..., b_0, padded with 0: their running products
        # sum to a term of u and of l.
        self._chain = _read_only(np.array([
            [[at["a", k]] + [at["f", j] for j in range(k, last)] + [zero] * k for k in range(last + 1)],
            [[one] + [at["b", j] for j in range(m, -1, -1)] + [zero] * (last - m - 1)
             for m in range(-1, last)]]))
        # a row's doubles in each buffer of _buffers: factors, work, state, sums;
        # the work holds a Schur update (or U_0^T's partner J U_0^T) and then
        # one block of a vector
        self._vector_at = max([s[0] ** 2, s[1] * s[0]] + [s[k] ** 2 // 2 for k in range(1, last)])
        # max n_k eps: a pivot whose condition number reaches its inverse is
        # singular to working precision
        self._unit_roundoff = max(s) * np.finfo(float).eps
        self._widths = (end, self._vector_at + max(s), 2 * n, len(runs) + 2)
        self.row_bytes = 8 * sum(self._widths)
        self._local = threading.local()

    def _buffers(self, count: int) -> SimpleNamespace:
        """The calling thread's buffers for a stack of count, as the views each step of a solve takes of them.

        Each thread that solves on this kernel has buffers of its own, in the
        kernel's thread-local, so no two threads write one buffer. They hold
        the largest stack the thread has met so far, row_bytes a row, and last
        as long as the thread, from one sweep to the next; a thread's first
        call allocates them, for a stack of 0 too. Fresh ones cost page
        faults. After a solve, the factors hold the absolute values the norms
        read (see the class docstring).
        """
        mine = self._local
        if count > getattr(mine, "capacity", -1):
            mine.factors, mine.work, mine.state, mine.sums = (
                np.empty((count, width)) for width in self._widths)
            mine.sums[:, -2:] = (1.0, 0.0)
            mine.capacity, mine.views = count, {}
        if count not in mine.views:
            mine.views[count] = self._views(mine, count)
        return mine.views[count]

    def _views(self, mine: SimpleNamespace, count: int) -> SimpleNamespace:
        """The views of one stack size: the whole buffers, and steps, one namespace per block k.

        A step holds x and z, the state and the residual of block k as rows
        (count, 1, size) of its own type, real for k = 0 and complex after,
        and x_r and z_r as real; its blocks and factors a, u, b, f and g; f_in,
        F_k^T in the type of x_k; and the work it writes, schur, ju and tmp.
        """
        factors, work, state = mine.factors[:count], mine.work[:count], mine.state[:count]
        whole = SimpleNamespace(factors=factors, loaded=factors[:, self._loaded:],
                                normed=factors[:, :self._normed], sums=mine.sums[:count],
                                x=state[:, :self.n], z=state[:, self.n:])

        def region(flat, at, shape, cplx):
            part = flat[:, at:at + shape[0] * shape[1] * (2 if cplx else 1)]
            return (part.view(complex) if cplx else part).reshape(count, *shape)

        steps = []
        for k, (span, size) in enumerate(zip(self.spans, self.sizes)):
            cplx = k > 0
            step = SimpleNamespace()
            for name in "xz":
                flat = getattr(whole, name)[:, span]
                setattr(step, name + "_r", flat.reshape(count, 1, size))
                setattr(step, name, region(flat, 0, (1, size // (1 + cplx)), cplx))
            step.tmp = region(work, self._vector_at, (1, size // (1 + cplx)), cplx)
            step.a = region(factors, *self._regions["a", k])
            if k < self.last:
                at, shape, _ = self._regions["b", k]
                step.b = region(factors, at, shape, True)
                step.f = region(factors, *self._regions["f", k])
                step.f_in = region(factors, self._regions["f", k][0], (shape[0], 2 * shape[1]), False) \
                    if k == 0 else step.f
                step.schur = region(work, 0, (size, size) if k == 0 else shape[:1] * 2, cplx)
                step.u = region(factors, *self._regions["u", k])
                if k == 0:
                    step.ju = region(work, 0, (self.sizes[1], size), False)
                    # realify(G_0)^T as (s_1, s_0), and as the halves Re G~_0^T | -Im G~_0^T
                    step.g = region(factors, at, (self.sizes[1], size), False)
                    halves = region(factors, at, (self.sizes[1] // 2, 2 * size), False)
                    step.g_re, step.g_im = halves[:, :, :size], halves[:, :, size:]
                else:
                    step.g = region(factors, at, shape[::-1], True)
            steps.append(step)
        whole.steps = steps
        return whole

    def slots(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which entries of L_r at the flat indices idx the loader writes, and where in a row of the factors.

        Returns take and at: the entry idx[take[j]] goes to at[j]. Every entry
        must lie on the block pattern: within one coherence order of its
        row's (see the class docstring).
        """
        r, c = np.divmod(idx, self.n)
        kr, kc = self._q_of[r], self._q_of[c]
        row, col = self.position[r] - self._slot_opens[kr], self.position[c] - self._slot_opens[kc]
        start, row_stride, col_stride, halved = self._slot_tables[:, kr, kc]
        at = start + row * row_stride + (col >> halved) * col_stride
        written = (col & halved) == 0
        return np.flatnonzero(written), at[written]

    def solve(self, pattern: _Pattern, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """The states, betas and singular pivots of a stack of L_r given by its values at pattern.

        The kernel's one entry: it loads the values at pattern.slots, solves,
        and takes one refinement step on the drift pattern.product(values,
        x). A row whose pivots may be singular to working precision gets
        beta inf (see the class docstring).
        """
        self._load(values, pattern.slots)
        vecs, beta, singular = self._factor(pattern, values)
        # beta >= ||S_k^-1||_1, and max |M| stands in for ||S_k||_1
        magnitude = np.maximum(1.0, np.maximum(values.max(axis=1), -values.min(axis=1)))
        beta[self._unit_roundoff * magnitude * beta >= 1.0] = np.inf
        return vecs, beta, singular

    def _load(self, values: np.ndarray, slots) -> None:
        """Write the blocks of the stack in the factors buffer: each nonzero at its slot, the rest zero."""
        take, at = slots
        whole = self._buffers(len(values))
        whole.loaded.fill(0.0)
        values = np.take(values, take, axis=1)
        for row, nonzeros in zip(whole.factors, values):  # a row at a time: 3x faster than factors[:, at]
            row[at] = nonzeros

    def _factor(self, pattern: _Pattern, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """The states' coordinates, beta, and LAPACK's error for each singular pivot.

        Solves the rows of the factors that _load filled with values, with
        the trace row written in, and takes the refinement step on the drift
        pattern.product(values, x). The state and beta are NaN in a row with a
        singular pivot. Whether a row's L is fit to solve at all is for the
        caller to judge.

        Each A_k slot takes S_k^-T once S_k is inverted, each B_k slot G_k^T
        once F_k^T is formed; after the refinement step one abs of the whole
        factors leaves the absolute values there, and the norms of beta are
        their row sums, each summed contiguously and in the same order as in
        a buffer of its own.
        """
        last, whole = self.last, self._buffers(len(values))
        steps = whole.steps
        # the trace row replaces row 0 of L, whose drive entries the loader wrote in U_0
        steps[0].a[:, 0] = self._trace
        steps[0].u[:, 0] = 0.0

        singular = {}
        for k in range(last, 0, -1):
            step, below = steps[k], steps[k - 1]
            pivot = _pivot_inverse(step.a, singular)
            np.copyto(step.a, pivot)  # A_k^T is spent: its slot keeps S_k^-T
            np.matmul(below.b, pivot, out=below.f)  # F_{k-1}^T = B_{k-1}^T S_k^-T
            if k > 1:
                np.matmul(below.f, below.u, out=below.schur)  # (U_{k-1} F_{k-1})^T
                below.a -= below.schur
                np.matmul(pivot, below.u, out=below.g)  # G_{k-1}^T, in the spent B_{k-1}^T
                continue
            np.matmul(below.u, below.f_in.transpose(0, 2, 1), out=below.schur)  # U_0 realify(F_0)
            below.a -= below.schur
            # realify(G_0)^T from S_1^-T, whose real view meets U_0^T in Re G~_0^T
            # and J U_0^T (rows (U_0^T)_{2f+1}, -(U_0^T)_{2f}) in -Im G~_0^T
            u_t = below.u.transpose(0, 2, 1)
            below.ju[:, 0::2] = u_t[:, 1::2]
            np.negative(u_t[:, 0::2], out=below.ju[:, 1::2])
            np.matmul(pivot.view(float), u_t, out=below.g_re)
            np.matmul(pivot.view(float), below.ju, out=below.g_im)
        pivot = _pivot_inverse(steps[0].a, singular)
        steps[0].x[:, 0] = pivot[:, :, 0]
        np.copyto(steps[0].a, pivot.transpose(0, 2, 1))  # A_0 is spent: its slot keeps S_0^-T
        self._spread(steps)
        # r = e0 - M x in the kernel's order, condensed to z_0 = e0 - S_0 x_0
        residual = pattern.product(values, np.take(whole.x, self.position, axis=1))
        np.negative(np.take(residual, self.order, axis=1), out=whole.z)
        # (np.take gives a C-ordered copy, whose rows sum alike in any stack)
        whole.z[:, 0] = 1.0 - np.take(whole.x, self._diagonal, axis=1).sum(axis=1)
        for k in range(last - 1, -1, -1):
            step, above = steps[k], steps[k + 1]
            np.matmul(above.z_r if k == 0 else above.z, step.g, out=step.tmp)  # G_k z_{k+1}
            step.z -= step.tmp
        np.matmul(steps[0].z, steps[0].a, out=steps[0].tmp)
        steps[0].x += steps[0].tmp
        self._spread(steps)
        # a C-ordered copy: the observables sum along its rows
        vecs = np.take(whole.x, self.position, axis=1)

        # the norms, then u and l as sums of running products along the chains
        sums = whole.sums
        np.add.reduceat(np.abs(whole.normed, out=whole.normed), self._runs, axis=1, out=sums[:, :-2])
        tops = np.maximum.reduceat(sums, self._opens, axis=1)
        chains = np.multiply.accumulate(tops[:, self._chain], axis=-1)
        # summed in order by accumulate: sum takes a row alone pairwise from
        # 8 blocks up, and a stack of rows in order, so beta would move with count
        beta = np.add.accumulate(chains, axis=-1)[..., -1].max(axis=-1).prod(axis=-1)
        return vecs, beta, singular

    def _spread(self, steps: list[SimpleNamespace]) -> None:
        """x_{k+1} = -F_k x_k for k = 0, ..., last - 1, from x_0."""
        for k in range(self.last):
            after = steps[k + 1]
            np.matmul(steps[k].x, steps[k].f_in, out=after.x_r if k == 0 else after.x)
            np.negative(after.x, out=after.x)


def _pivot_inverse(stack: np.ndarray, singular: dict) -> np.ndarray:
    """np.linalg.inv of a stack of pivot blocks, with NaN for each singular one.

    Records in singular the first LAPACK error of each row with a singular block.
    """
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        out = np.empty_like(stack)
        for r, block in enumerate(stack):
            try:
                out[r] = np.linalg.inv(block)
            except np.linalg.LinAlgError as exc:
                singular.setdefault(r, exc)
                out[r] = np.nan
        return out


def _dense_solve(pattern: _Pattern, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """The states, betas and singular rows of a stack of L_r given by its values at pattern, by dense inverse.

    Each M, L_r scattered dense with the trace row written in as row 0, is
    inverted by LAPACK (_pivot_inverse): the state is column 0 of M^-1 and
    beta is ||M^-1||_1; a singular M leaves its row NaN. Each column of
    |M^-1| is summed contiguously by np.add.reduceat, which gives a row the
    same bits in any stack.
    """
    n = pattern.n
    d = math.isqrt(n)
    _, _, off, first = _layout(d)
    bordered = _dense(d, pattern.idx, values)
    bordered[:, 0] = 0.0
    bordered[:, 0, first[~off]] = 1.0
    singular = {}
    inverse = _pivot_inverse(bordered, singular)
    columns = np.abs(inverse.transpose(0, 2, 1).reshape(len(values), n * n))
    beta = np.add.reduceat(columns, np.arange(0, n * n, n), axis=1).max(axis=1)
    return inverse[:, :, 0].copy(), beta, singular


def _require_real(liou: np.ndarray) -> None:
    if np.iscomplexobj(liou):
        raise ValueError("expected the real Liouvillian of liouvillian() or build_liouvillian()")


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, from the BLAS dot product as np.linalg.norm takes it."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def steady_state_bytes(h: HilbertConfig) -> int:
    """Bytes one row of a steady_states_at stack holds: its nonzeros and its pattern's kernel buffers.

    The buffers are the factors, work, state and sums rows that the kernel
    holds for the calling thread (_BlockKernel._buffers). The factors hold the blocks of q >= 1 as
    complex matrices of half their real size, and F_k^T besides, since a
    solve writes S_k^-T and G_k^T into the spent A_k and B_k slots; the
    state holds x and the residual of the refinement step. A sweep solves
    on its calling thread; each further thread that solves on the kernel
    holds these rows once more.
    """
    return 8 * _basis(h).pattern.idx.size + _basis(h).pattern.kernel.row_bytes


def steady_state(liou: np.ndarray, coordinates: bool = False) -> np.ndarray:
    """Unique trace-one fixed point of the real Liouvillian, as a Hermitian matrix.

    liou is one n x n matrix with n = d^2 >= 1, of any real float or integer
    dtype; it is taken as float64 (a float64 matrix is not copied) and only
    read. With coordinates on, the result is the real coordinates of the
    state, with the bits the solve gives them (vectorize of the matrix may
    differ in the last bit).

    In L_r the first row, the balance of the coordinate of rho_00, is
    replaced by the trace row, one at the d diagonal coordinates: this gives
    the bordered matrix M, and the coordinates x of rho solve M x = e0.

    L_r is read as its values at a pattern of entries. For even d >= 4, if it
    has no nonzero off the pattern of the LiouvillianBasis of that dimension,
    as every L_r the library assembles, it is read through that pattern by
    the block kernel the pattern carries (_BlockKernel), which takes its
    blocks from those values, solves for x, refines it once with the
    residual of L_r x, and bounds ||M^-1||_1 by beta; the gates judge the
    refined x. It leaves x and beta NaN if it meets a singular pivot block,
    and a NaN bound fails the certificate.
    The state is solved again by the dense solve (_dense_solve), column 0 of
    the LAPACK inverse of M, whose beta is ||M^-1||_1, if it fails the
    certificate or the residual gate, and not if the first two gates below
    refuse it; an L_r refused later thus gets the error and message of the
    dense solve. It gets the state and the message of its row in
    steady_states_at, which runs the same passes and gates on the nonzeros
    of assembled Liouvillians. Any other L_r (odd d, a matrix built by hand)
    is read through the full pattern of all n^2 entries, which carries no
    kernel, and the one pass is the dense one.

    The certificate of a one-dimensional null space: T is unitary, so L_r
    and M have the singular values of L and of its bordered matrix. M
    differs from L_r in one row, so by Weyl's interlacing s[-2](L) >=
    s_min(M) >= lo = 1 / (sqrt(n) beta); s[-1](L) <= ||L_r x|| / ||x||, and
    s[0](L) <= ||L_r||_F. s[-1] is exactly zero for a trace-preserving L, so
    any computed value of it is rounding noise of up to about eps ||L_r||_F.
    With hi = max(||L_r x|| / ||x||, eps ||L_r||_F), the state is accepted
    only if lo >= 1e6 hi. Then s[-2] >= 1e6 s[-1] and s[-2] > 2e-10 s[0], so
    every L accepted here passes the singular-value gap test s[-2] >= 1e6
    s[-1], s[-2] > 1e-12 s[0]; as beta >= ||M^-1||_1, it is never laxer than
    the test on the exact norm. It refuses some nearly degenerate L that the
    gap test accepts, with s[-2] below about 1e-7 s[0]; the points of the
    fig1 to fig4 presets clear it by a factor above 2e3.

    The gates, in order, and the error each raises:

    - ValueError: L_r has a non-finite entry;
    - NoDissipationError: L_r is exactly antisymmetric, L_r + L_r^T = 0 (all
      rates zero; assembly keeps that symmetry to the bit);
    - DegenerateSteadyStateError: M is singular, or the certificate fails;
    - SolverError: the residual max |L_r x| exceeds 1e-6 max(1, max |L_r|).

    Each gate accepts only when its test holds, so a NaN never passes one.

    Raises
    ------
    ValueError
        If liou is complex or not a square matrix of size d^2 >= 1, or as
        the first gate above.
    """
    _require_real(liou)
    liou = np.asarray(liou, dtype=float)
    n = liou.shape[0] if liou.ndim == 2 else 0
    d = math.isqrt(n)
    if liou.shape != (n, n) or d * d != n or not n:
        raise ValueError(f"expected a d^2 x d^2 Liouvillian, got shape {liou.shape}")
    flat = liou.reshape(1, n * n)
    on_basis = d % 2 == 0 and d >= 4
    if on_basis:
        pattern = _basis(HilbertConfig(d // 2 - 1)).pattern
        values = flat[:, pattern.idx]
        on_basis = np.count_nonzero(values) == np.count_nonzero(flat)
    if not on_basis:
        pattern, values = _full_pattern(n), flat
    vecs, failures = _solve_stack(pattern, values)
    if failures:
        raise failures[0]
    return vecs[0] if coordinates else unvectorize(vecs[0], d)


def steady_states_at(rows: np.ndarray, h: HilbertConfig) -> tuple[np.ndarray, dict]:
    """Steady-state coordinates of the Liouvillians of (N, 6) parameter rows on h, and the rows that failed.

    Returns vecs, of shape (N, d^2), whose row r holds the coordinates that
    steady_state(L_r, coordinates=True) gives for the L_r of row r (NaN if
    it failed), and a dict from each failed row to the error steady_state
    raises on it, with the same message. The nonzeros of each row's L_r, from
    one LiouvillianBasis.assemble call, are written straight into the block
    kernel's buffer through the basis pattern's slots, and the gates read
    them alone: max |L_r|, ||L_r||_F, the diagonal, the antisymmetry test
    (each nonzero plus the one at its transpose) and the product L_r x. No
    dense L is formed. steady_state reads an assembled L_r through the same
    pattern, with the same passes and gates. No pass mixes rows, so a row's
    bits do not depend on the rows solved with it.
    """
    basis = _basis(h)
    return _solve_stack(basis.pattern, basis.assemble(rows))


def _solve_stack(pattern: _Pattern, values: np.ndarray) -> tuple[np.ndarray, dict]:
    """The passes and gates of steady_state on a stack of L_r, given by its values at pattern.

    The pattern's block kernel, if it has one, makes the first pass
    (_BlockKernel.solve) and hands the rows its gates refuse to the dense
    solve, which does not refine; otherwise the dense solve is the one pass.
    A stack of no rows takes the same path and gives (0, n) states and no
    failures.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # max |L| of each matrix, without a stack-sized temporary for |L|;
        # the zeros off the pattern change neither it nor ||L_r||_F
        scale = np.maximum(values.max(axis=1), -values.min(axis=1))
        top_hi = _norms(values)
        non_finite = ~np.isfinite(scale)
        # (L + L^T)_ii = 2 L_ii, so a nonzero diagonal entry settles the
        # test; only the other rows need the full L + L^T, by the dense
        # test's sums: each nonzero plus the one at its transpose, or alone.
        no_dissipation = ~(np.abs(values[:, pattern._diagonal]).max(axis=1) > 0.0)
        transpose = pattern._transpose
        for r in np.flatnonzero(no_dissipation):
            row = values[r]
            no_dissipation[r] = not np.any(np.where(transpose < 0, row, row + row[transpose]))
        refused = non_finite | no_dissipation

        kernel = pattern.kernel
        vecs, beta, reasons = (_dense_solve if kernel is None else kernel.solve)(pattern, values)
        gates = _gates(pattern.product(values, vecs), vecs, beta, top_hi, scale)
        _, _, uncertified, _, unsettled = gates
        # a row the block kernel could not solve has a NaN bound, so it is uncertified
        retry = np.flatnonzero(~refused & (uncertified | unsettled))
        if retry.size and kernel is not None:
            vecs[retry], beta[retry], errors = _dense_solve(pattern, values[retry])
            reasons = {int(retry[r]): exc for r, exc in errors.items()}
            gates = _gates(pattern.product(values, vecs), vecs, beta, top_hi, scale)
        gap_lo, null_hi, uncertified, residual, unsettled = gates
        singular = np.zeros(len(vecs), dtype=bool)
        singular[list(reasons)] = True

    failures = first_failures(
        (non_finite, lambda r: ValueError("Liouvillian has a non-finite entry")),
        (no_dissipation, lambda r: NoDissipationError(
            "no dissipative part; steady state is not unique")),
        (singular, lambda r: DegenerateSteadyStateError(
            f"trace-constrained solve failed: {reasons[r]}")),
        (uncertified, lambda r: DegenerateSteadyStateError(
            f"null-space gap not certified: s[-2] >= {gap_lo[r]:.3e}, "
            f"s[-1] <= {null_hi[r]:.3e}, s[0] <= {top_hi[r]:.3e}")),
        (unsettled, lambda r: SolverError(f"steady-state residual too large: {residual[r]:.3e}")),
    )
    vecs[list(failures)] = np.nan
    return vecs, failures


def _gates(drift, vecs, beta, top_hi, scale):
    """The certificate and residual gates of steady_state, per row of a stack.

    Returns gap_lo, null_hi, uncertified, residual and unsettled, all from
    beta and the drift L_r x. A NaN bound fails the certificate, and a NaN
    state fails both gates.
    """
    n = vecs.shape[1]
    gap_lo = 1.0 / (np.sqrt(n) * beta)
    null_hi = np.maximum(_norms(drift) / _norms(vecs), np.finfo(float).eps * top_hi)
    uncertified = ~(gap_lo >= 1e6 * null_hi)
    residual = np.abs(drift).max(axis=1)
    unsettled = ~(residual <= 1e-6 * np.maximum(1.0, scale))
    return gap_lo, null_hi, uncertified, residual, unsettled


def default_step(p: SystemParams) -> float:
    """Integration step keeping the fastest rate or detuning well resolved."""
    return 0.01 / max(p.kappa, p.gamma, p.g, abs(p.delta_a), abs(p.delta), 1.0)


def _check_step(liou: np.ndarray, dt: float) -> None:
    """Refuse a step beyond the RK4 stability bound, taken on ||L_r||_inf.

    ||L_r||_inf bounds the spectrum of L as ||L||_inf does, since L_r is
    similar to L; it is not the same number. Each test accepts only when it
    holds, so a NaN dt or a non-finite entry of L never passes.
    """
    _require_real(liou)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not np.isfinite(liou).all():
        raise ValueError("Liouvillian has a non-finite entry")
    norm = float(np.linalg.norm(liou, np.inf))
    if not norm * dt <= MAX_STEP_FACTOR:
        raise StepTooLargeError(
            f"||L||_inf * dt = {norm * dt:.3g} exceeds {MAX_STEP_FACTOR}; reduce dt"
        )


def _rk4_step(gen: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of size h for x' = gen x, applied to x.

    For a constant linear generator the four stages collapse to the Taylor
    polynomial sum_{k<=4} (h gen)^k / k!, evaluated here by Horner with each
    stage scaled and shifted in place. x may be a vector (one step of that
    vector) or the identity (the step matrix itself).
    """
    h = float(h)
    y = x
    for k in (4, 3, 2, 1):
        y = gen @ y
        y *= h / k
        y += x
    return y


class RK4Propagator:
    """Fixed-step RK4 for a constant linear generator, as powers of its step matrix.

    n full steps of size dt are the matrix P^n, P = _rk4_step(gen, I, dt),
    applied by `steps` through the binary powers P^(2^j) of the set bits of
    n. Those are squared on demand, only up to the highest bit asked for,
    and kept for the life of the object, so one propagator serves every span
    of a delay grid. `advance` splits a duration by `split` into full steps
    and one shortened step. This is the RK4 map itself, not a matrix
    exponential, so its step-size error and its stability bound are those of
    RK4. dt must be positive and finite, else ValueError; the stability
    bound is not checked here.
    """

    def __init__(self, gen: np.ndarray, dt: float):
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        self.gen = gen
        self.dt = dt
        self._powers = [_rk4_step(gen, np.eye(gen.shape[0], dtype=gen.dtype), dt)]

    def split(self, duration: float) -> tuple[int, float]:
        """`duration` as n full steps of dt and the length of a shortened last step.

        The shortened step is 0.0 where it would be shorter than 1e-9 dt, which
        is skipped. A duration that is negative or not finite raises ValueError.
        """
        if not 0.0 <= duration < math.inf:
            raise ValueError(f"duration must be >= 0 and finite, got {duration!r}")
        n_full = int(duration / self.dt)
        remainder = float(duration - n_full * self.dt)
        return n_full, (remainder if remainder > 1e-9 * self.dt else 0.0)

    def steps(self, vec: np.ndarray, n: int) -> np.ndarray:
        """Advance vec by n >= 0 full steps: P^n vec, lowest set bit first; n = 0 returns vec itself."""
        if n < 0:
            raise ValueError(f"step count must be >= 0, got {n}")
        powers = self._powers
        while n:
            j = (n & -n).bit_length() - 1
            while len(powers) <= j:
                powers.append(powers[-1] @ powers[-1])
            vec = powers[j] @ vec
            n &= n - 1
        return vec

    def advance(self, vec: np.ndarray, duration: float) -> np.ndarray:
        """Advance vec by `duration`: the full steps of `split`, then its shortened step.

        The shortened final step lands exactly on the requested time; one
        shorter than 1e-9 dt is skipped, so a duration of 0 returns vec
        itself. A duration that is negative or not finite raises ValueError.
        """
        n_full, remainder = self.split(duration)
        vec = self.steps(vec, n_full)
        return _rk4_step(self.gen, vec, remainder) if remainder else vec
