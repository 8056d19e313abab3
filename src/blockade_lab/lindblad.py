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
ordered by that order L_r is block tridiagonal. steady_states inverts the
bordered matrix block by block along that order (_BlockKernel), keeping
the public coordinate order, and falls back to a dense inverse for a
matrix off that pattern or one the block solve cannot certify.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import cache

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
    is the conjugate of its mirror, and the diagonal is real.
    """
    vec = np.asarray(vec)
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


def _weighted_sum(dim: int, idx: np.ndarray, aligned: np.ndarray,
                  weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense superoperators sum_k weights[r, k] * part_k, one for each row r of weights.

    The parts come aligned on the union idx of their nonzeros (_align) and
    are added in order, entry by entry, as ((0 + w_0 v_0) + w_1 v_1) + ...,
    by elementwise products and not by a matrix product, so a row's bits do
    not depend on the rows stacked with it. A part absent at an entry adds
    w * 0, a signed zero, to a running sum that starts at +0 and so is never
    -0; that changes no bit. Each row therefore equals the dense sum of the
    parts in the same order exactly, whatever its weights. Returns a
    (rows, dim^2, dim^2) array: out, if given, else a new one.
    """
    n = dim * dim
    acc = np.zeros((weights.shape[0], idx.size))
    for k, part in enumerate(aligned):
        acc += weights[:, k, None] * part
    liou = np.empty((weights.shape[0], n, n)) if out is None else out
    liou.fill(0.0)
    liou.reshape(-1, n * n)[:, idx] = acc
    return liou


def build_liouvillian(model: LindbladModel) -> np.ndarray:
    """Real superoperator L_r with vectorize(drho/dt) = L_r vectorize(rho)."""
    d = model.hamiltonian.shape[0]
    parts = [_real_part(_hamiltonian_superop(model.hamiltonian), d)]
    parts += [_real_part(_dissipator_superop(op), d) for op, _ in model.channels]
    weights = np.array([[1.0] + [rate for _, rate in model.channels]])
    return _weighted_sum(d, *_align(parts), weights)[0]


class LiouvillianBasis:
    """Per-truncation cache of the six unit-parameter superoperators.

    L is linear in every field of SystemParams, so the Liouvillian at any
    point is a weighted sum of six fixed superoperators. Each is built
    sparsely in the column-stacking basis, taken once to real coordinates,
    and kept as the flat indices and values of its nonzeros (at most 2.9% of
    the entries at n_max 4, 0.72% at n_max 10), also laid out on their
    common index set. assemble_rows adds them in a fixed field order, so the
    result is bit-reproducible and the same for a row alone or in a stack.
    """

    _H_FIELDS = ("delta_a", "delta", "g", "eta")

    def __init__(self, h: HilbertConfig):
        self.hilbert = h
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
        self._aligned = _align(list(self._parts.values()))

    def assemble(self, p: SystemParams) -> np.ndarray:
        return self.assemble_rows(p.row())[0]

    def assemble_rows(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Real Liouvillians of (N, 6) parameter rows, as an (N, n, n) array.

        Written into out if it is given, else into a new array. An entry that
        overflows is left non-finite, without a warning, for steady_states to
        refuse.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return _weighted_sum(self.hilbert.dim, *self._aligned, rows[:, self._columns], out)


@cache
def _basis(h: HilbertConfig) -> LiouvillianBasis:
    return LiouvillianBasis(h)


def liouvillian(p: SystemParams, h: HilbertConfig) -> np.ndarray:
    """Real superoperator L_r of the model at p on truncation h, as a new array.

    Assembled from the basis built once per truncation and kept for the life
    of the process, so every caller gets the same bits for the same point.
    """
    return _basis(h).assemble(p)


def liouvillians(rows: np.ndarray, h: HilbertConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Real Liouvillians of (N, 6) parameter rows on truncation h, as a stack.

    Row r of the result carries the bits of liouvillian at the parameters of
    row r, so a sweep row and a point query agree bit for bit. The stack is
    written into out if it is given, else into a new array.
    """
    return _basis(h).assemble_rows(rows, out)


class _BlockKernel:
    """Inverse of the bordered matrix M by block LU over the coherence-order blocks.

    The coherence order of an element rho_ij is q = |N_i - N_j|, with N the
    photon number plus the atomic excitation of a state of the atom-major
    basis, and each real coordinate has the order of its element. The drive
    eta (a + a') is the only part of L that changes q, by one; the coupling,
    the detunings and both dissipators keep it (the weak U(1) symmetry of
    Buca and Prosen, New J. Phys. 14, 073007, 2012). Ordered by q, L_r and M
    are therefore block tridiagonal, with the trace row inside the q = 0
    block: 18/32/24/16/8/2 coordinates at n_max 4, 42/80/72/.../8/2 at
    n_max 10.

    With A_k the diagonal blocks, U_k = M[k, k+1] and B_k = M[k+1, k], the
    kernel forms the top-down Schur complements S_0 = A_0 and
    S_k = A_k - B_{k-1} W_{k-1}, where W_k = S_k^-1 U_k, inverting each S_k
    by LAPACK with partial pivoting. On the way down it also forms
    Z_0 = [S_0^-1, 0] and Z_k = S_k^-1 (E_k - B_{k-1} Z_{k-1}), with E_k the
    identity in block column k; block back substitution then gives the
    block rows of M^-1, X_last = Z_last and X_k = Z_k - W_k X_{k+1} (Meurant,
    SIAM J. Matrix Anal. Appl. 13, 707, 1992). At n_max 10 that is about a
    quarter of the arithmetic of a dense inverse.

    X is M^-1 with rows and columns in block order. A symmetric permutation
    keeps every column sum, so ||M^-1||_1 is read from X as it is, and only
    its first column, the state, is gathered back to the coordinate order.
    Only the blocks the kernel reads are gathered from L, and the bordering
    is done on that copy. Each buffer holds the largest stack met so far and
    serves every later call, since fresh stack-sized arrays cost page faults
    on every chunk of a sweep: 5-12% of the detuning_scan benchmark and 7%
    of point_queries on a 2-core Xeon with BLAS on one thread. Every part of
    a buffer that a call reads, it first writes.
    """

    def __init__(self, dim: int):
        rows, cols, off, first = _layout(dim)
        excitation = np.arange(dim) // (dim // 2) + np.arange(dim) % (dim // 2)
        n = dim * dim
        order_of = np.empty(n, dtype=np.intp)
        order_of[first] = np.abs(excitation[rows] - excitation[cols])
        order_of[first[off] + 1] = order_of[first[off]]
        # Each order's coordinates in their own order, so rho_00 stays first.
        # (No argsort: its first use costs a process up to 0.4 MB of RSS.)
        groups = [np.flatnonzero(order_of == q) for q in range(order_of.max() + 1)]
        order = np.concatenate(groups)
        sizes = [g.size for g in groups]
        bounds = np.cumsum([0] + sizes)
        self.n = n
        self.position = np.empty(n, dtype=np.intp)
        self.position[order] = np.arange(n)
        _read_only(self.position)
        self.spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        # The buffer holds every A_k, then every U_k, then every B_k; W_k
        # has the shape of U_k.
        last = len(sizes) - 1
        pairs = ([(k, k) for k in range(last + 1)] + [(k, k + 1) for k in range(last)]
                 + [(k + 1, k) for k in range(last)])
        self._shapes = [(sizes[i], sizes[j]) for i, j in pairs]
        self._largest = max(sizes)
        pieces = [(order[self.spans[i]][:, None] * n + order[self.spans[j]]).reshape(-1)
                  for i, j in pairs]
        self._gather = _read_only(np.concatenate(pieces))
        self._below = self._gather.size - sum(p.size for p in pieces[-last:])
        # where the diagonal of M lies in the gathered blocks
        self._unit = _read_only(np.flatnonzero(self._gather % (n + 1) == 0))
        trace = np.zeros(sizes[0])
        trace[self.position[first[~off]]] = 1.0
        self._trace = _read_only(trace)
        self._capacity = 0

    def _buffers(self, count: int) -> tuple:
        """The buffers for a stack of count, and views of its blocks: A, U, -B and W."""
        if count > self._capacity:
            k = len(self.spans)
            self._blocks = np.empty((count, self._gather.size))
            self._inverse = np.empty((count, self.n, self.n))
            self._work = np.empty((count, self._largest * self.n))
            self._factors = np.empty((count, sum(r * c for r, c in self._shapes[k:2 * k - 1])))
            self._capacity, self._views = count, {}
        if count not in self._views:
            k = len(self.spans)
            parts = _split(self._blocks[:count], self._shapes)
            self._views[count] = (
                self._blocks[:count], self._inverse[:count], self._work[:count],
                parts[:k], parts[k:2 * k - 1], parts[2 * k - 1:],
                _split(self._factors[:count], self._shapes[k:2 * k - 1]),
            )
        return self._views[count]

    def solve(self, liou: np.ndarray, skip: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Steady-state coordinates and ||M^-1||_1 of a stack of real Liouvillians.

        Returns vecs, of shape (N, n), the norms, and the mask of the rows
        solved here (see inverse); the other rows hold numbers of no meaning.
        """
        inverse, solved = self.inverse(liou, skip)
        # a C-ordered copy: the observables sum along its rows
        vecs = np.take(inverse[:, :, 0], self.position, axis=1)
        norms = np.abs(inverse, out=inverse).sum(axis=1).max(axis=1)
        return vecs, norms, solved

    def inverse(self, liou: np.ndarray, skip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """M^-1 of each Liouvillian of a stack, in block order, and the rows solved.

        The inverses are written to the kernel's buffer, which the next call
        overwrites. A row of skip, one with a nonzero outside the block
        pattern, and one whose Schur complement LAPACK finds singular are
        not solved: the first two are replaced by the identity, for which
        every pivot block is regular, and the last gets the identity in
        place of that pivot's inverse.
        """
        count, n = liou.shape[0], self.n
        blocks, inverse, work, diag, upper, below, factors = self._buffers(count)
        flat = liou.reshape(count, n * n)
        np.take(flat, self._gather, axis=1, out=blocks, mode="clip")
        outside = np.count_nonzero(flat, axis=1) != np.count_nonzero(blocks, axis=1)
        stand_in = skip | outside
        for r in np.flatnonzero(stand_in):
            blocks[r] = 0.0
            blocks[r, self._unit] = 1.0
        blocks[:, :self._trace.size] = self._trace
        upper[0][:, 0] = 0.0
        np.negative(blocks[:, self._below:], out=blocks[:, self._below:])

        failed = np.zeros(count, dtype=bool)
        pivots = []
        for k, span in enumerate(self.spans):
            z = inverse[:, span]
            if k:
                # S_k = A_k - B_{k-1} W_{k-1}, with -B_{k-1} in the buffer
                schur = work[:, :diag[k][0].size].reshape(diag[k].shape)
                diag[k] += np.matmul(below[k - 1], factors[k - 1], out=schur)
            pivots.append(_pivot_inverse(diag[k], failed))
            if k + 1 < len(self.spans):
                np.matmul(pivots[k], upper[k], out=factors[k])
            if k:
                done = self.spans[k - 1].stop
                coupled = work[:, :z[0, :, :done].size].reshape(count, -1, done)
                np.matmul(below[k - 1], inverse[:, self.spans[k - 1], :done], out=coupled)
                np.matmul(pivots[k], coupled, out=z[:, :, :done])
            z[:, :, span] = pivots[k]
            z[:, :, span.stop:] = 0.0
        for k in reversed(range(len(self.spans) - 1)):
            x = inverse[:, self.spans[k]]
            coupled = work[:, :x[0].size].reshape(x.shape)
            np.subtract(x, np.matmul(factors[k], inverse[:, self.spans[k + 1]], out=coupled), out=x)
        return inverse, ~(stand_in | failed)


def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive (rows, cols) matrices laid out along the last axis of a stack."""
    views, start = [], 0
    for r, c in shapes:
        views.append(flat[:, start:start + r * c].reshape(-1, r, c))
        start += r * c
    return views


def _pivot_inverse(stack: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a stack of pivot blocks, with the identity for each singular one.

    Marks each row whose block LAPACK finds singular in failed.
    """
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        out = np.empty_like(stack)
        for r, block in enumerate(stack):
            try:
                out[r] = np.linalg.inv(block)
            except np.linalg.LinAlgError:
                failed[r], out[r] = True, np.eye(block.shape[0])
        return out


# Each thread keeps its own kernels: a kernel's buffers are written on every call.
_thread_kernels = threading.local()


def _block_kernel(dim: int) -> _BlockKernel | None:
    """This thread's coherence-order kernel of dimension dim, or None if dim is odd (not atom x cavity)."""
    if dim % 2:
        return None
    kernels = vars(_thread_kernels).setdefault("by_dim", {})
    if dim not in kernels:
        kernels[dim] = _BlockKernel(dim)
    return kernels[dim]


def _require_real(liou: np.ndarray) -> None:
    if np.iscomplexobj(liou):
        raise ValueError("expected the real Liouvillian of liouvillian() or build_liouvillian()")


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, from the BLAS dot product as np.linalg.norm takes it."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def steady_state(liou: np.ndarray, coordinates: bool = False) -> np.ndarray:
    """Unique trace-one fixed point of the real Liouvillian, as a Hermitian matrix.

    The solve of steady_states on a stack of one; see there for the method,
    the certificate of uniqueness and the gates. With coordinates on, the
    real coordinates of the state are returned instead of the matrix, with
    the bits steady_states gives them (vectorize of the matrix may differ in
    the last bit off the diagonal). Raises the error of the first gate that
    refuses liou, or ValueError if liou is complex or not of size d^2.
    """
    liou = np.asarray(liou)
    vecs, failures = steady_states(liou[None])
    if failures:
        raise failures[0]
    return vecs[0] if coordinates else unvectorize(vecs[0], math.isqrt(liou.shape[0]))


def steady_states(liou: np.ndarray) -> tuple[np.ndarray, dict]:
    """Steady-state coordinates of a stack of real Liouvillians, and the rows that failed.

    liou has shape (N, n, n) with n = d^2; it is only read. Returns vecs, of
    shape (N, n), whose row r holds the real coordinates of the unique
    trace-one fixed point of liou[r] (NaN if it failed), and a dict from each
    failed row to the error it raised: the first of the gates below that
    refused it.

    In each L_r the first row, the balance of the coordinate of rho_00, is
    replaced by the trace row, which is one at the d diagonal coordinates and
    zero elsewhere. This gives the bordered matrix M, and the coordinates of
    rho, M^-1 e0, are the first column of M's inverse. M^-1 is formed by the
    block LU kernel over the coherence orders of the atom x cavity basis
    (_BlockKernel), in about a fifth of the time of a dense inverse at
    n_max 10. A row falls back to the dense inverse, np.linalg.inv of its M
    alone, if its L_r has a nonzero outside the block pattern (which no
    Liouvillian of this package has), if a pivot block is singular, or if
    the kernel's state fails the certificate or the residual gate; the gates
    then judge the dense result, so a refused row gets the error and message
    of the dense solve. Neither solve mixes rows, so a row's bits do not
    depend on the rows stacked with it.

    That one inverse also certifies that the null space of L_r is one
    dimensional. T is unitary and maps the bordered matrix of the
    column-stacking basis to M, so L_r and M have the singular values of L
    and of its bordered matrix, and the argument is that of the complex
    basis:

    - M differs from L_r in one row, a rank-one update, so by Weyl's
      interlacing s[-2](L) >= s_min(M) >= lo = 1 / (sqrt(n) ||M^-1||_1);
    - s[-1](L) <= ||L_r x|| / ||x|| for the coordinates x of rho, and
      s[0](L) <= ||L_r||_F.

    s[-1] is exactly zero for a trace-preserving L, so any computed value of
    it, ||L_r x|| and a singular value decomposition's alike, is rounding
    noise of up to about eps ||L_r||_F. The bound used is therefore
    hi = max(||L_r x|| / ||x||, eps ||L_r||_F), and the state is accepted
    only if lo >= 1e6 hi. Then s[-2] >= 1e6 s[-1] and s[-2] > 2e-10 s[0]:
    every L accepted here also passes the singular-value gap test
    s[-2] >= 1e6 s[-1], s[-2] > 1e-12 s[0], at the cost of an inverse
    instead of a singular value decomposition. The certificate refuses some
    nearly degenerate L that the gap test accepts, those with s[-2] below
    about 1e-7 s[0]; the points of the fig1 to fig4 presets clear the bound
    by a factor above 1e3.

    The gates, in order, and the error each raises:

    - ValueError: L_r has a non-finite entry;
    - NoDissipationError: L_r is exactly antisymmetric, L_r + L_r^T = 0
      (a purely unitary generator: all rates zero). Assembly keeps that
      symmetry to the bit, and any dissipation, however small beside the
      detunings, breaks it;
    - DegenerateSteadyStateError: M is singular, or the certificate fails;
    - SolverError: the residual max |L_r x| exceeds 1e-6 max(1, max |L_r|).

    Each gate accepts only when its test holds, so a NaN never passes one.

    Raises
    ------
    ValueError
        If liou is complex or not a stack of square matrices of size d^2.
    """
    _require_real(liou)
    count, n = liou.shape[0], liou.shape[-1]
    d = math.isqrt(n)
    if liou.shape != (count, n, n) or d * d != n:
        raise ValueError(f"expected a stack of d^2 x d^2 Liouvillians, got shape {liou.shape}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # max |L| of each matrix, without a stack-sized temporary for |L|
        scale = np.maximum(liou.max(axis=(1, 2)), -liou.min(axis=(1, 2)))
        top_hi = _norms(liou.reshape(count, -1))
        non_finite = ~np.isfinite(scale)
        # (L + L^T)_ii = 2 L_ii, so a nonzero diagonal entry settles the
        # test; only the other rows need the full L + L^T.
        no_dissipation = ~(np.abs(np.diagonal(liou, axis1=1, axis2=2)).max(axis=1) > 0.0)
        for r in np.nonzero(no_dissipation)[0]:
            no_dissipation[r] = not np.any(liou[r] + liou[r].T)
        refused = non_finite | no_dissipation

        kernel = _block_kernel(d)
        if kernel is None:
            vecs, inv_norms = np.full((count, n), np.nan), np.full(count, np.nan)
            solved = np.zeros(count, dtype=bool)
        else:
            vecs, inv_norms, solved = kernel.solve(liou, refused)
        gates = _gates(liou, vecs, inv_norms, top_hi, scale)
        _, _, uncertified, _, unsettled = gates
        dense = np.flatnonzero(~refused & ~(solved & ~uncertified & ~unsettled))
        singular = np.zeros(count, dtype=bool)
        reasons = {}
        if dense.size:
            _, _, off, first = _layout(d)
            for r in dense:
                bordered = liou[r].copy()
                bordered[0] = 0.0
                bordered[0, first[~off]] = 1.0
                try:
                    inv = np.linalg.inv(bordered)
                except np.linalg.LinAlgError as exc:
                    singular[r], reasons[r] = True, exc
                    continue
                vecs[r] = inv[:, 0]
                inv_norms[r] = np.abs(inv, out=inv).sum(axis=0).max()
            gates = _gates(liou, vecs, inv_norms, top_hi, scale)
        gap_lo, null_hi, uncertified, residual, unsettled = gates

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


def _gates(liou, vecs, inv_norms, top_hi, scale):
    """The certificate and residual gates of steady_states, per row.

    Returns gap_lo, null_hi, uncertified, residual and unsettled. Entry 0
    of the drift L_r x, the balance row that M replaces, is taken as a dot
    product of its own, the others by one matrix-vector product.
    """
    n = vecs.shape[1]
    drift = np.matmul(liou, vecs[:, :, None])[:, :, 0]
    drift[:, 0] = np.matmul(liou[:, 0, :].copy()[:, None, :], vecs[:, :, None])[:, 0, 0]
    gap_lo = 1.0 / (np.sqrt(n) * inv_norms)
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
    similar to L; it is not the same number.
    """
    _require_real(liou)
    if dt <= 0:
        raise ValueError("dt must be positive")
    norm = float(np.linalg.norm(liou, np.inf))
    if norm * dt > MAX_STEP_FACTOR:
        raise StepTooLargeError(
            f"||L||_inf * dt = {norm * dt:.3g} exceeds {MAX_STEP_FACTOR}; reduce dt"
        )


def _rk4_step(gen: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of size h for x' = gen x, applied to x.

    For a constant linear generator the four stages collapse to the Taylor
    polynomial sum_{k<=4} (h gen)^k / k!, evaluated here by Horner. x may be a
    vector (one step of that vector) or the identity (the step matrix itself).
    """
    y = x
    for k in (4, 3, 2, 1):
        y = x + (h / k) * (gen @ y)
    return y


class RK4Propagator:
    """Fixed-step RK4 for a constant linear generator, as powers of its step matrix.

    n full steps of size dt are the matrix P^n, P = _rk4_step(gen, I, dt),
    applied through the binary powers P^(2^j). Those are squared on demand,
    only up to the bit length of the longest span asked for, and kept for the
    life of the object, so one propagator serves every span of a delay grid.
    This is the RK4 map itself, not a matrix exponential, so its step-size
    error and its stability bound are those of RK4. dt must be positive.
    """

    def __init__(self, gen: np.ndarray, dt: float):
        self.gen = gen
        self.dt = dt
        self._powers = [_rk4_step(gen, np.eye(gen.shape[0], dtype=gen.dtype), dt)]

    def advance(self, vec: np.ndarray, duration: float) -> np.ndarray:
        """Advance vec by `duration`: full steps of dt, then one shortened step.

        The shortened final step lands exactly on the requested time; one
        shorter than 1e-9 dt is skipped.
        """
        n_full = int(duration / self.dt)
        remainder = duration - n_full * self.dt
        for j in range(n_full.bit_length()):
            if j == len(self._powers):
                self._powers.append(self._powers[-1] @ self._powers[-1])
            if (n_full >> j) & 1:
                vec = self._powers[j] @ vec
        if remainder > 1e-9 * self.dt:
            vec = _rk4_step(self.gen, vec, remainder)
        return vec


def evolve(liou: np.ndarray, rho0: np.ndarray, t_final: float, dt: float) -> np.ndarray:
    """Propagate a Hermitian density matrix to t_final with fixed-step RK4.

    The real coordinates of rho0 are propagated by L_r, so rho0 must be
    Hermitian (vectorize refuses it otherwise). No renormalization is
    applied; the trace is monitored and a drift beyond 1e-8 (relative to the
    initial trace) raises, since the generator preserves the trace exactly
    and any drift signals an unstable step.
    """
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    _check_step(liou, dt)
    rho0 = np.asarray(rho0)
    trace0 = float(np.trace(rho0).real)
    vec = RK4Propagator(liou, dt).advance(vectorize(rho0), t_final)
    rho = unvectorize(vec, rho0.shape[0])
    drift = abs(float(np.trace(rho).real) - trace0)
    if drift > 1e-8 * max(1.0, abs(trace0)):
        raise SolverError(f"trace drift {drift:.3e} over the run; step too coarse")
    return rho
