"""Exact dense linear algebra over GF(q).

Matrices are int64 arrays of K codes paired with the `Gf` that interprets
them.  Subspaces are kept in reduced row echelon form, which is unique per
subspace, so subspace equality and direct-sum audits are literal array
comparisons.  `rank_many` eliminates a whole batch of matrices in lockstep;
it is the hot kernel behind every rank census and the one elimination loop
for every GF(q): batch-last, and for s = 1 reduced lazily, under `bound`, in
the narrowest integer type, and `rank` is a batch of one.  `_span_audit`,
the one direct-sum audit, takes its rank there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gsf.ffield import FieldTower, Gf

__all__ = [
    "rref",
    "rank",
    "rank_many",
    "kernel",
    "LSubspace",
    "is_direct_sum",
    "eigenspace_of_power",
]


def rref(gf: Gf, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(q); returns (R, pivot_columns)."""
    a = np.array(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = gf.mul(a[r], int(gf.inv(a[r, c])))
        fac = a[:, c].copy()
        fac[r] = 0
        a = gf.sub(a, gf.mul(fac[:, None], a[r][None, :]))
        pivots.append(c)
        r += 1
    return a, pivots


def rank(gf: Gf, mat) -> int:
    """Rank of one 2-D matrix: a batch of one for `rank_many`."""
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return int(rank_many(gf, a[None])[0])


def rank_many(gf: Gf, mats) -> np.ndarray:
    """Ranks of a batch of matrices, shape (B, r, c) -> (B,).

    Column-synchronous Gaussian elimination: each iteration picks, swaps,
    normalizes and eliminates pivots for every matrix of the batch at once,
    on a batch-last copy (r, c, B) whose every step runs contiguously over
    the batch; the caller's array, of any layout, is only read.  At column c
    only the live block is touched: rows at or past the smallest pivot count
    of the batch and columns after c.  Everything outside it is never read
    again, so the pivot row is not written back and swaps move only the
    displaced row.

    Only the arithmetic depends on the field: the reduced `Gf` tables for
    s > 1.  For s = 1 entries start as codes in [0, p) and are reduced
    lazily in the narrowest of int16, int32 and int64 holding
    (p - 1) + (p - 1)**2: int16 up to p = 181, int32 up to p = 46337.
    Invariant: every live entry lies in [-bound, bound].  The pivot column
    and pivot rows are reduced into [0, p) before use, so one rank-1 update
    subtracts a product of two reduced codes and grows `bound` by at most
    (p - 1)**2.  The live block is reduced (bound back to p - 1) only when
    the next update could leave the dtype: never at p = 11 and n <= 256,
    before every update but the first for a tier's largest prime.  A
    reduction x - x // p * p beats numpy's integer %, and is exact even
    where x // p * p wraps, as the result lies in [0, p).
    """
    p = gf.p
    lazy = gf.s == 1
    step = (p - 1) ** 2
    dtype = next((t for t in (np.int16, np.int32) if lazy and (p - 1) + step <= np.iinfo(t).max), np.int64)
    limit = int(np.iinfo(dtype).max)
    inv = gf._inv_t
    m = np.asarray(mats)
    if m.ndim == 2:
        m = m[None]
    nb, rows, cols = m.shape
    piv = np.zeros(nb, dtype=np.int64)
    if m.size == 0:
        return piv
    m = m.transpose(1, 2, 0).astype(dtype, order="C")  # a batch-last copy
    ridx = np.arange(rows)
    bidx = np.arange(nb)
    flat = m.reshape(-1)
    offs = np.arange(cols)[:, None] * nb + bidx  # flat offsets of row 0
    prod = np.empty_like(m) if lazy else None
    bound = p - 1
    for c in range(cols):
        lo = int(piv.min())
        if lo == rows:
            break
        # the pivot column with rows above each matrix's pivot count zeroed:
        # they are finished and take no part in pivoting or updates
        colv = m[lo:, c] * (ridx[lo:, None] >= piv)
        if lazy:
            colv -= colv // p * p
        elig = colv != 0
        has = elig.any(axis=0)
        if c == cols - 1:  # nothing trails the last column
            piv += has
            break
        pl = np.argmax(elig, axis=0)
        prow = pl + lo
        # a matrix without a pivot reads inv[0] = 0 and gets a zero pivot row;
        # its swap (clamped in range) copies a row onto itself or onto a
        # finished row
        at = offs[c + 1:] + prow * (cols * nb)
        pivot_rows = flat[at]
        if lazy:
            pivot_rows -= pivot_rows // p * p
            pivot_rows *= inv[colv[pl, bidx]]
            pivot_rows -= pivot_rows // p * p
        else:
            pivot_rows = gf.mul(pivot_rows, inv[colv[pl, bidx]])
        r0 = np.minimum(piv, rows - 1)
        flat[at] = flat[offs[c + 1:] + r0 * (cols * nb)]
        # the pivot entry now sits at r0; the row moved to prow has a zero in
        # column c, because prow is the first nonzero at or past r0
        colv[pl, bidx] = 0
        live = m[lo:, c + 1:]
        if lazy:
            if bound + step > limit:
                live -= live // p * p
                bound = p - 1
            out = prod[lo:, c + 1:]
            np.multiply(colv[:, None], pivot_rows, out=out)
            live -= out
            bound += step
        else:
            live[...] = gf.sub(live, gf.mul(colv[:, None], pivot_rows))
        piv += has
    return piv


def kernel(gf: Gf, mat) -> np.ndarray:
    """Canonical basis (rows) of the right kernel of `mat` over GF(q)."""
    a = np.asarray(mat, dtype=np.int64)
    rows, cols = a.shape
    r, pivots = rref(gf, a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = gf.neg(r[: len(pivots), free]).T
    return rref(gf, basis)[0][: len(free)] if free else basis


def _canonical_basis(gf: Gf, vectors, ambient_dim: int) -> np.ndarray:
    vecs = np.asarray(vectors, dtype=np.int64)
    if vecs.size == 0:
        return np.zeros((0, ambient_dim), dtype=np.int64)
    if vecs.ndim == 1:
        vecs = vecs[None, :]
    r, pivots = rref(gf, vecs)
    out = r[: len(pivots)].copy()
    out.setflags(write=False)
    return out


@dataclass
class LSubspace:
    """A subspace of K**ambient_dim with a unique reduced-echelon basis."""

    gf: Gf
    ambient_dim: int
    basis: np.ndarray

    @classmethod
    def from_vectors(cls, gf: Gf, vectors, ambient_dim: int | None = None) -> "LSubspace":
        vecs = np.asarray(vectors, dtype=np.int64)
        if ambient_dim is None:
            if vecs.size == 0:
                raise ValueError("ambient_dim required for an empty generating set")
            ambient_dim = vecs.shape[-1]
        return cls(gf, ambient_dim, _canonical_basis(gf, vecs, ambient_dim))

    @classmethod
    def zero(cls, gf: Gf, ambient_dim: int) -> "LSubspace":
        return cls(gf, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64))

    @classmethod
    def full(cls, gf: Gf, ambient_dim: int) -> "LSubspace":
        basis = np.eye(ambient_dim, dtype=np.int64)  # already reduced echelon
        basis.setflags(write=False)
        return cls(gf, ambient_dim, basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def sum(self, other: "LSubspace") -> "LSubspace":
        self._check_ambient(other)
        stacked = np.vstack([self.basis, other.basis])
        return LSubspace.from_vectors(self.gf, stacked, self.ambient_dim)

    def _check_ambient(self, other: "LSubspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, LSubspace)
            and self.ambient_dim == other.ambient_dim
            and np.array_equal(self.basis, other.basis)
        )

    def __repr__(self):
        return f"LSubspace(dim={self.dim}, ambient={self.ambient_dim})"


def _span_audit(parts) -> tuple[int, bool]:
    """Dimension of the joint span of the subspaces, and whether their sum is
    direct (the span dimension equals the sum of the dims), from one rank."""
    parts = list(parts)
    if not parts:
        return 0, True
    span = rank(parts[0].gf, np.vstack([p.basis for p in parts]))
    return span, span == sum(p.dim for p in parts)


def is_direct_sum(parts) -> bool:
    """True iff the listed subspaces are independent: sum of dims equals the
    dimension of their joint span."""
    parts = list(parts)
    if any(p.ambient_dim != parts[0].ambient_dim for p in parts):
        raise ValueError("ambient dimension mismatch")
    return _span_audit(parts)[1]


def _frobenius_sum(tower: FieldTower, g: int, coeffs) -> np.ndarray:
    """sum_k c_k F_(g*k) over k < n/g, the c_k being `coeffs` repeated
    cyclically: one product with the strided Frobenius stack."""
    kf, n = tower.K, tower.n
    return kf.matmul(np.resize(coeffs, n // g), tower.frobenius_mats[::g].reshape(n // g, n * n)).reshape(n, n)


def eigenspace_of_power(tower: FieldTower, t: int, sign: int) -> LSubspace:
    """For sign +1, Fix(sigma**t) = GF(q**g), g = gcd(t, n), as the row-reduced image of the relative
    trace sum_k sigma**(g*k), audited to have rank g and be fixed by sigma**t; for sign -1, the kernel
    of sigma**t + 1.  The tower holds either basis."""
    if not 1 <= t <= tower.n:
        raise ValueError(f"t = {t} out of range 1..{tower.n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    kf, n, g = tower.K, tower.n, math.gcd(t, tower.n)
    if t == n and sign == 1:  # sigma**n = id
        return LSubspace.full(kf, n)
    frob = tower.frobenius_mats[t % n]

    def fixed():
        r, pivots = rref(kf, _frobenius_sum(tower, g, [1]).T)
        if len(pivots) != g or not np.array_equal(kf.matmul(r[:g], frob.T), r[:g]):
            raise AssertionError(f"the trace image of rank {len(pivots)} is not Fix(sigma^{t}) of dimension {g}")
        return r[:g].copy()

    make = fixed if sign == 1 else lambda: kernel(kf, kf.add(frob, np.eye(n, dtype=np.int64)))
    return LSubspace(kf, n, tower._memo(("eigenspace", t, sign), make))
