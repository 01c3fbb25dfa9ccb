"""Twisted symmetric trace forms as Gram matrices, and their rank census.

For b in L and an automorphism power i, the form maps (x, y) to the absolute
trace of b*(x*sigma^i(y) + sigma^i(x)*y).  Its Gram matrix in the power
basis is H_b F_i + F_i^T H_b, where H_b is the Hankel matrix of traces
tr(b * x^(j+k)) and F_i the Frobenius matrix: the whole family is K-linear
in b, so enumerating a parameter subspace of b's is a matter of combining a
few precomputed basis Grams.

`rank_profile` runs the enumeration engine, which the extremal witness
checks and searches share.  Exhaustive mode covers every nonzero coefficient
vector of the parameter space, refusing politely once their count passes the
budget.  Rank is constant on K-lines, rank(c*G) = rank(G) for c in K*, so it
ranks one form per line and counts that rank q - 1 times; the budget still
counts forms, q**d - 1.  Sampled mode draws a fixed number of nonzero
vectors from a seeded generator.  Either way the histogram is a deterministic
function of (tower, subspace, i, mode, seed) and is independent of how the
work is partitioned across workers.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from gsf.exactla import LSubspace, kernel, rank_many, rref
from gsf.ffield import FieldTower

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_SAMPLE_COUNT",
    "BudgetExceededError",
    "SymForm",
    "FormSubspace",
    "RankProfile",
    "flatten_sym",
    "unflatten_sym",
    "gram",
    "gram_alt",
    "gram_matrix",
    "gram_basis",
    "radical",
    "degenerate_by_norm",
    "degenerate_rank_value",
    "family",
    "rank_profile",
]

DEFAULT_BUDGET = 2_000_000
DEFAULT_SAMPLE_COUNT = 10_000


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the form budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"exhaustive enumeration needs {needed} forms, over the budget of {budget}; "
            "rerun in sampled mode or raise the budget"
        )
        self.needed = needed
        self.budget = budget


@dataclass
class SymForm:
    """A symmetric Gram matrix over K with its provenance (b, power i)."""

    tower: FieldTower
    b: np.ndarray
    i: int
    gram: np.ndarray

    def rank(self) -> int:
        return int(rank_many(self.tower.K, self.gram[None])[0])

    def to_dict(self) -> dict:
        return {
            "b": self.tower.element_to_digits(self.b),
            "i": self.i,
            "gram": [[int(v) for v in row] for row in self.gram],
        }


@dataclass
class FormSubspace:
    """A subspace of the symmetric forms, flattened to upper-triangle rows.

    `basis` is in reduced echelon form, so equal subspaces have equal arrays.
    `param_kernel` is the kernel of b -> form(b): zero unless the power is an
    involution, where it is the (-1)-eigenspace of sigma^i.
    """

    tower: FieldTower
    i: Union[int, str]
    basis: np.ndarray
    param_kernel: Optional[LSubspace] = None

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def gf(self):
        return self.tower.K

    def gram_mats(self) -> np.ndarray:
        return unflatten_sym(self.basis, self.tower.n)

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "dim": self.dim,
            "basis": [[int(v) for v in row] for row in self.basis],
            "param_kernel_dim": None if self.param_kernel is None else self.param_kernel.dim,
        }

    def __eq__(self, other):
        return isinstance(other, FormSubspace) and np.array_equal(self.basis, other.basis)


@dataclass
class RankProfile:
    """Histogram of ranks over the enumerated (or sampled) nonzero forms."""

    histogram: dict[int, int]
    mode: str
    count: Optional[int] = None
    seed: Optional[int] = None

    @property
    def ranks(self) -> set[int]:
        return set(self.histogram)

    @property
    def total(self) -> int:
        return sum(self.histogram.values())

    def min_rank(self) -> Optional[int]:
        return min(self.histogram) if self.histogram else None

    def mode_record(self) -> dict:
        d = {"mode": self.mode}
        if self.mode == "sampled":
            d["count"] = self.count
            d["seed"] = self.seed
        return d

    def to_dict(self) -> dict:
        d = self.mode_record()
        d["histogram"] = {str(r): self.histogram[r] for r in sorted(self.histogram)}
        return d


@functools.lru_cache(maxsize=64)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def flatten_sym(mat: np.ndarray, n: int) -> np.ndarray:
    """Upper triangle, row-major: Sym becomes plain K**(n(n+1)/2).

    Leading axes are batch axes: (..., n, n) becomes (..., n(n+1)/2).
    """
    rows, cols = _triu(n)
    return np.asarray(mat, dtype=np.int64)[..., rows, cols]


def unflatten_sym(vec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `flatten_sym`: (..., n(n+1)/2) becomes (..., n, n)."""
    rows, cols = _triu(n)
    vec = np.asarray(vec, dtype=np.int64)
    out = np.zeros(vec.shape[:-1] + (n, n), dtype=np.int64)
    out[..., rows, cols] = vec
    out[..., cols, rows] = vec
    return out


def _hankel_trace(tower: FieldTower, b: np.ndarray) -> np.ndarray:
    """Matrix of (j, k) -> tr(b * x^(j+k)), a Hankel slice of tau3."""
    n, kf = tower.n, tower.K
    if kf.s == 1:
        windows = np.lib.stride_tricks.sliding_window_view(tower.tau3, n)[: 2 * n - 1]
        tvec = (windows @ b) % kf.p
    else:
        tvec = np.zeros(2 * n - 1, dtype=np.int64)
        for m in range(2 * n - 1):
            tvec[m] = kf.dot(tower.tau3[m : m + n], b)
    idx = np.add.outer(np.arange(n), np.arange(n))
    return tvec[idx]


def gram_matrix(tower: FieldTower, b, i: int) -> np.ndarray:
    """Gram matrix of the form twisted by sigma^i with parameter b."""
    if not 0 <= i < tower.n:
        raise ValueError(f"automorphism power i = {i} out of range 0..{tower.n - 1}")
    kf = tower.K
    h = _hankel_trace(tower, np.asarray(b, dtype=np.int64))
    f = tower.frobenius_mats[i]
    return kf.add(kf.matmul(h, f), kf.matmul(f.T, h))


def gram(tower: FieldTower, b, i: int) -> SymForm:
    b = tower.element(b)
    return SymForm(tower, b, i, gram_matrix(tower, b, i))


def gram_alt(tower: FieldTower, b, i: int) -> SymForm:
    """Same form through the one-sided kernel formula.

    Row j is tr((sigma^{-i}(b e_j) + b sigma^{i}(e_j)) * e_k) over k; built
    from element products and traces rather than the Hankel shortcut, so it
    cross-checks `gram` through an independent code path.
    """
    b = tower.element(b)
    if not 0 <= i < tower.n:
        raise ValueError(f"automorphism power i = {i} out of range 0..{tower.n - 1}")
    n, kf = tower.n, tower.K
    inv_i = (-i) % n
    out = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        ej = tower.basis_element(j)
        w = kf.add(
            kf.matmul(tower.frobenius_mats[inv_i], tower.mul(b, ej)),
            tower.mul(b, kf.matmul(tower.frobenius_mats[i], ej)),
        )
        u = w
        for k in range(n):
            out[j, k] = tower.trace_to_base(u)
            if k + 1 < n:
                u = tower._shift_reduce(u)
    return SymForm(tower, b, i, out)


def radical(form: SymForm) -> LSubspace:
    """The radical of the form: kernel of its Gram matrix."""
    kf = form.tower.K
    return LSubspace(kf, form.tower.n, kernel(kf, form.gram))


def degenerate_by_norm(tower: FieldTower, b, i: int) -> bool:
    """Norm-criterion degeneracy oracle, valid when sigma^i has order > 2.

    The form for (b, i) is degenerate iff the relative norm of
    -sigma^i(b)/b down to the fixed field of sigma^(2i) equals 1.  Orders 1
    and 2 are rejected: there the rank/eigenspace route is the oracle.
    """
    b = tower.element(b)
    if not np.any(b):
        raise ValueError("the norm criterion needs b != 0")
    d = tower.sigma_order(i % tower.n)
    if d <= 2:
        raise ValueError(f"order of sigma^{i} is {d}; the norm criterion needs order > 2")
    u = tower.neg(tower.div(tower.frobenius_apply(i, b), b))
    t = math.gcd(2 * i, tower.n)
    return bool(np.array_equal(tower.norm_rel(t, u), tower.one()))


def degenerate_rank_value(tower: FieldTower, i: int) -> int:
    """The unique rank of a degenerate nonzero form for an even-order power."""
    d = tower.sigma_order(i % tower.n)
    if d % 2:
        raise ValueError(f"order of sigma^{i} is odd ({d}); no degenerate forms exist")
    return tower.n - tower.n // (d // 2)


def gram_basis(tower: FieldTower, i: int) -> np.ndarray:
    """Stack of the Gram matrices of the basis parameters, cached per tower."""
    if not 0 <= i < tower.n:
        raise ValueError(f"automorphism power i = {i} out of range 0..{tower.n - 1}")
    cached = tower._gram_cache.get(i)
    if cached is None:
        cached = np.stack([gram_matrix(tower, tower.basis_element(t), i) for t in range(tower.n)])
        cached.setflags(write=False)
        tower._gram_cache[i] = cached
    return cached


def family(tower: FieldTower, i: int) -> FormSubspace:
    """The subspace of forms swept by b, echelonized into a canonical basis."""
    n, kf = tower.n, tower.K
    grams = gram_basis(tower, i)
    flat = flatten_sym(grams, n)
    r, pivots = rref(kf, flat)
    basis = r[: len(pivots)].copy()
    basis.setflags(write=False)
    pk = LSubspace(kf, n, kernel(kf, flat.T))
    return FormSubspace(tower, i, basis, param_kernel=pk)


# -- enumeration engine ---------------------------------------------------------
#
# A census is a code source (coefficient vectors over the basis Grams, in
# chunks of `_range_chunks` over code spans, or seeded samples), then
# `_rank_chunks` (combine and rank each chunk), then a reducer: the histogram
# of `_profile_from_grams`.  `extremal._all_combos_invertible` walks the same
# projective source for a stack of candidate bases at once.


def _combine_forms(kf, coeffs: np.ndarray, basis_grams: np.ndarray) -> np.ndarray:
    if kf.s == 1:
        return np.einsum("bt,tjk->bjk", coeffs, basis_grams) % kf.p
    out = np.zeros((coeffs.shape[0],) + basis_grams.shape[1:], dtype=np.int64)
    for t in range(coeffs.shape[1]):
        out = kf.add(out, kf.mul(coeffs[:, t, None, None], basis_grams[t][None]))
    return out


def _projective_spans(q: int, d: int) -> list[tuple[int, int]]:
    """One code per K-line: the codes whose leading base-q digit is 1.

    The last nonzero coefficient of each nonzero vector can be scaled to the
    unit (code 1 in every `Gf`), so these (q**d - 1)/(q - 1) codes times K*
    are every nonzero vector exactly once.
    """
    return [(q**k, 2 * q**k) for k in range(d)]


def _range_chunks(q: int, d: int, spans, chunk: int):
    """Coefficient vectors of the codes in the half-open spans (base-q digits,
    little-endian), in chunks of `chunk` codes that run across span boundaries."""
    parts, size = [], 0
    for lo, hi in spans:
        while lo < hi:
            take = min(hi - lo, chunk - size)
            parts.append(np.arange(lo, lo + take, dtype=np.int64))
            lo += take
            size += take
            if size == chunk:
                yield _digits(np.concatenate(parts), q, d)
                parts, size = [], 0
    if size:
        yield _digits(np.concatenate(parts), q, d)


def _digits(vals: np.ndarray, q: int, d: int) -> np.ndarray:
    codes = np.zeros((vals.size, d), dtype=np.int64)
    for t in range(d):
        codes[:, t] = vals % q
        vals //= q
    return codes


def _sample_codes(q: int, d: int, count: int, seed: int, chunk: int):
    """`count` nonzero coefficient vectors drawn from a generator seeded by `seed`, in chunks."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, q, size=(count, d), dtype=np.int64)
    bad = ~codes.any(axis=1)
    while bad.any():
        codes[bad] = rng.integers(0, q, size=(int(bad.sum()), d), dtype=np.int64)
        bad = ~codes.any(axis=1)
    for lo in range(0, count, chunk):
        yield codes[lo : lo + chunk]


def _chunk_size(n: int) -> int:
    # keep per-chunk work around a few MB so elimination stays in cache
    return int(min(8192, max(256, 2_000_000 // max(n * n, 1))))


def _rank_chunks(kf, basis_grams: np.ndarray, code_chunks, workers: int = 1):
    """Ranks of the combined forms, one array per code chunk, in chunk order.

    With several workers the chunks are ranked on a thread pool; the order of
    the yielded arrays does not depend on the worker count.
    """

    def ranks(codes):
        return rank_many(kf, _combine_forms(kf, codes, basis_grams))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(ranks, code_chunks)
    else:
        for codes in code_chunks:
            yield ranks(codes)


def _profile_from_grams(
    kf,
    basis_grams: np.ndarray,
    n: int,
    mode: str = "auto",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    budget: int | None = None,
    workers: int = 1,
) -> RankProfile:
    """Rank histogram of the nonzero combinations of `basis_grams`, shape (d, n, n).

    Exhaustive mode ranks the (q**d - 1)/(q - 1) projective codes, one per
    K-line, and multiplies every bin by q - 1, so the histogram counts all
    q**d - 1 forms; the budget and `auto`'s choice compare that form count.
    Sampled mode ranks `sample_count` seeded draws and counts each once.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    d = basis_grams.shape[0]
    q = kf.q
    total = q**d - 1
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown enumeration mode {mode!r}")
    if mode == "exhaustive" and total > budget:
        raise BudgetExceededError(total, budget)
    if mode == "auto":
        mode = "exhaustive" if total <= budget else "sampled"

    sampled = mode == "sampled"
    chunk = _chunk_size(n)
    if d == 0:
        chunks = ()
    elif sampled:
        chunks = _sample_codes(q, d, sample_count, seed, chunk)
    else:
        chunks = _range_chunks(q, d, _projective_spans(q, d), chunk)
    hist = np.zeros(n + 1, dtype=np.int64)
    for ranks in _rank_chunks(kf, basis_grams, chunks, workers):
        hist += np.bincount(ranks, minlength=n + 1)
    if not sampled:
        hist *= q - 1  # rank(c*G) = rank(G): one rank per line counts its q - 1 forms
        counted = int(hist.sum())
        if counted != total:
            raise AssertionError(f"projective census counted {counted} of {total} nonzero forms")
    return RankProfile({r: int(c) for r, c in enumerate(hist) if c}, mode,
                       count=sample_count if sampled else None, seed=seed if sampled else None)


def _parameter_grams(tower: FieldTower, sub, i: Optional[int]) -> np.ndarray:
    if isinstance(sub, FormSubspace):
        return sub.gram_mats()
    if isinstance(sub, LSubspace):
        if i is None:
            raise ValueError("an automorphism power is required for a parameter subspace of b's")
        return _combine_forms(tower.K, sub.basis, gram_basis(tower, i))
    raise TypeError(f"expected LSubspace or FormSubspace, got {type(sub).__name__}")


def rank_profile(
    tower: FieldTower,
    sub,
    i: Optional[int] = None,
    mode: str = "auto",
    *,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    budget: int | None = None,
    workers: int = 1,
) -> RankProfile:
    """Rank histogram over the nonzero forms of a parameter or form subspace.

    `sub` may be an LSubspace of parameters b (then `i` selects the twist) or
    a FormSubspace enumerated directly.  Exhaustive mode refuses beyond the
    budget; `auto` falls back to seeded sampling instead.
    """
    grams = _parameter_grams(tower, sub, i)
    return _profile_from_grams(
        tower.K, grams, tower.n, mode, sample_count=sample_count, seed=seed, budget=budget, workers=workers
    )
