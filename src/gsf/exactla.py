"""Exact dense linear algebra over GF(q).

Matrices are int64 arrays of K codes paired with the `Gf` that interprets
them.  Subspaces are kept in reduced row echelon form, which is unique per
subspace, so subspace equality and direct-sum audits are literal array
comparisons.  `rank_many` eliminates a whole batch of matrices in lockstep;
it is the hot kernel behind every rank census.
"""

from __future__ import annotations

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
    return len(rref(gf, mat)[1])


def rank_many(gf: Gf, mats) -> np.ndarray:
    """Ranks of a batch of matrices, shape (B, r, c) -> (B,).

    Column-synchronous Gaussian elimination: each iteration picks, swaps,
    normalizes and eliminates pivots for every matrix of the batch at once,
    so the cost is a handful of whole-batch array operations per column.
    """
    if gf.s == 1 and gf.p < 40_000:  # keep p**2 products inside int32
        return _rank_many_prime(gf, mats)
    m = np.array(mats, dtype=np.int64)
    if m.ndim == 2:
        m = m[None]
    nb, rows, cols = m.shape
    piv = np.zeros(nb, dtype=np.int64)
    ridx = np.arange(rows)
    for c in range(cols):
        elig = (m[:, :, c] != 0) & (ridx[None, :] >= piv[:, None])
        sel = np.nonzero(elig.any(axis=1))[0]
        if sel.size == 0:
            continue
        prow = np.argmax(elig[sel], axis=1)
        r0 = piv[sel]
        pivot_rows = m[sel, prow].copy()
        m[sel, prow] = m[sel, r0]
        pivot_rows = gf.mul(pivot_rows, gf.inv(pivot_rows[:, c])[:, None])
        m[sel, r0] = pivot_rows
        sub = m[sel]
        upd = gf.sub(sub, gf.mul(sub[:, :, c][:, :, None], pivot_rows[:, None, :]))
        below = ridx[None, :] > r0[:, None]
        m[sel] = np.where(below[:, :, None], upd, sub)
        piv[sel] += 1
    return piv


_I32_MAX = int(np.iinfo(np.int32).max)


def _rank_many_prime(gf: Gf, mats) -> np.ndarray:
    """Prime-field specialization of rank_many: lazily reduced int32 arithmetic.

    Entries start as codes in [0, p).  At column c only the live block is
    touched: rows at or past the smallest pivot count of the batch and columns
    after c.  Everything outside it is never read again, so the pivot row is
    not written back and swaps move only the displaced row.

    Invariant: every live entry lies in [-bound, bound].  The pivot column and
    pivot rows are reduced into [0, p) before use, so one rank-1 update
    subtracts a product of two reduced codes and grows `bound` by at most
    (p - 1)**2.  The live block is reduced (bound back to p - 1) only when the
    next update could leave int32, i.e. when bound + (p - 1)**2 > 2**31 - 1:
    never at p = 11 and n <= 64, before every update but the first for p near
    40,000.  Normalizing a reduced pivot row multiplies two codes below p.
    """
    p = gf.p
    step = (p - 1) ** 2
    if (p - 1) + step > _I32_MAX:
        raise ValueError(f"p = {p} is too large for the int32 kernel")
    inv = gf._inv_t
    m = np.array(mats, dtype=np.int32)
    if m.ndim == 2:
        m = m[None]
    nb, rows, cols = m.shape
    piv = np.zeros(nb, dtype=np.int64)
    if m.size == 0:
        return piv
    ridx = np.arange(rows)
    bidx = np.arange(nb)
    prod = np.empty_like(m)
    bound = p - 1
    for c in range(cols):
        lo = int(piv.min())
        if lo == rows:
            break
        # the pivot column, reduced, with rows above each matrix's pivot count
        # zeroed: they are finished and take no part in pivoting or updates
        colv = m[:, lo:, c] % p
        colv *= ridx[None, lo:] >= piv[:, None]
        elig = colv != 0
        has = elig.any(axis=1)
        if c == cols - 1:  # nothing trails the last column
            piv += has
            break
        pl = np.argmax(elig, axis=1)
        prow = pl + lo
        # a matrix without a pivot reads inv[0] = 0 and gets a zero pivot row;
        # its swap (clamped in range) copies a row onto itself or onto a
        # finished row
        pivot_rows = m[bidx, prow, c + 1:] % p
        pivot_rows *= inv[colv[bidx, pl]][:, None]
        pivot_rows %= p
        r0 = np.minimum(piv, rows - 1)
        m[bidx, prow, c + 1:] = m[bidx, r0, c + 1:]
        # the pivot entry now sits at r0; the row moved to prow has a zero in
        # column c, because prow is the first nonzero at or past r0
        colv[bidx, pl] = 0
        if bound + step > _I32_MAX:
            m[:, lo:, c + 1:] %= p
            bound = p - 1
        out = prod[:, lo:, c + 1:]
        np.multiply(colv[:, :, None], pivot_rows[:, None, :], out=out)
        m[:, lo:, c + 1:] -= out
        bound += step
        piv += has
    return piv


def kernel(gf: Gf, mat) -> np.ndarray:
    """Canonical basis (rows) of the right kernel of `mat` over GF(q)."""
    a = np.asarray(mat, dtype=np.int64)
    rows, cols = a.shape
    r, pivots = rref(gf, a)
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for row, pc in enumerate(pivots):
            basis[k, pc] = gf.neg(r[row, f])
    return rref(gf, basis)[0][: len(free)]


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
        return cls.from_vectors(gf, np.eye(ambient_dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def sum(self, other: "LSubspace") -> "LSubspace":
        self._check_ambient(other)
        stacked = np.vstack([self.basis, other.basis])
        return LSubspace.from_vectors(self.gf, stacked, self.ambient_dim)

    def intersect(self, other: "LSubspace") -> "LSubspace":
        """Zassenhaus: echelonize [A|A; B|0], read the intersection off the
        rows whose left block vanished."""
        self._check_ambient(other)
        n = self.ambient_dim
        da, db = self.dim, other.dim
        if da == 0 or db == 0:
            return LSubspace.zero(self.gf, n)
        block = np.zeros((da + db, 2 * n), dtype=np.int64)
        block[:da, :n] = self.basis
        block[:da, n:] = self.basis
        block[da:, :n] = other.basis
        r, _ = rref(self.gf, block)
        zero_left = ~np.any(r[:, :n], axis=1)
        nonzero_right = np.any(r[:, n:], axis=1)
        inter = r[zero_left & nonzero_right, n:]
        return LSubspace.from_vectors(self.gf, inter, n) if inter.size else LSubspace.zero(self.gf, n)

    def contains(self, vector) -> bool:
        v = np.asarray(vector, dtype=np.int64).copy()
        if v.shape != (self.ambient_dim,):
            raise ValueError("ambient dimension mismatch")
        for row in self.basis:
            pc = int(np.nonzero(row)[0][0])
            if v[pc]:
                v = self.gf.sub(v, self.gf.mul(int(v[pc]), row))
        return not np.any(v)

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


def is_direct_sum(parts) -> bool:
    """True iff the listed subspaces are independent: sum of dims equals the
    dimension of their joint span."""
    parts = list(parts)
    if not parts:
        return True
    gf = parts[0].gf
    amb = parts[0].ambient_dim
    if any(p.ambient_dim != amb for p in parts):
        raise ValueError("ambient dimension mismatch")
    stacked = np.vstack([p.basis for p in parts])
    if stacked.shape[0] == 0:
        return True
    return rank(gf, stacked) == sum(p.dim for p in parts)


def eigenspace_of_power(tower: FieldTower, t: int, sign: int) -> LSubspace:
    """Kernel of (sigma**t - sign) acting K-linearly on L, sign in {+1, -1}."""
    if not 1 <= t <= tower.n:
        raise ValueError(f"t = {t} out of range 1..{tower.n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    kf = tower.K
    ft = tower.frobenius_mats[t % tower.n]
    sgn = 1 if sign == 1 else int(kf.neg(1))
    m = kf.sub(ft, kf.mul(sgn, np.eye(tower.n, dtype=np.int64)))
    return LSubspace(kf, tower.n, _canonical_basis(kf, kernel(kf, m), tower.n))
