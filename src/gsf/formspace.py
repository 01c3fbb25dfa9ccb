"""Twisted symmetric trace forms as Gram matrices, and their rank census.

For b in L and an automorphism power i, the form maps (x, y) to the absolute
trace of b*(x*sigma^i(y) + sigma^i(x)*y).  Its Gram matrix in the power
basis is H_b F_i + F_i^T H_b, where H_b is the Hankel matrix of traces
tr(b * x^(j+k)) and F_i the Frobenius matrix: the whole family is K-linear
in b, so enumerating a parameter subspace of b's is a matter of combining a
few precomputed basis Grams.

`rank_profile` runs the enumeration engine, which the extremal witness
checks and searches share.  Its options come in one frozen `Run` (mode,
sample count, seed, budget, workers), the only way census options reach the
engine; a `Run` with an unknown mode cannot be built.  A census ranks a set
of representatives and counts each as the forms it stands for: one per
K-line with weight q - 1, since rank(c*G) = rank(G) for c in K*; one per
coset of U = F* meet K* . {a**(1 + q**i)} with weight |U|, when the
parameter subspace is one line over a subfield F and that pays; or a seeded
sample with weight 1.  An exhaustive census of a whole family runs over its
parameters: b -> form(b) maps a complement of the parameter kernel (all of
L, or Fix(sigma**(n/2)) for the involution) one-to-one onto the family, and
that complement is one line over a subfield.  The coset source counts its m
representatives against the budget, so `auto` and exhaustive mode take it
whenever m fits, even past q**d - 1 forms; otherwise the q**d - 1 forms
decide.  Either way the histogram is a deterministic function of (tower,
subspace, i, mode, seed) and is independent of how the work is partitioned
across workers; at most 2 * workers chunks wait on the thread pool, and the
coset representatives are made one chunk at a time, so memory stays bounded
for any worker count.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from gsf.exactla import LSubspace, _span_audit, eigenspace_of_power, kernel, rank_many, rref
from gsf.ffield import FieldTower, base_digits, prime_factors

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_SAMPLE_COUNT",
    "BudgetExceededError",
    "Run",
    "SymForm",
    "FormSubspace",
    "RankProfile",
    "flatten_sym",
    "unflatten_sym",
    "gram",
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
    """Raised when an exhaustive enumeration would exceed the form budget.

    `way_out` ends the message; a raiser whose command cannot sample names
    what that command can do instead.
    """

    def __init__(self, needed: int, budget: int, way_out: str = "rerun in sampled mode or raise the budget"):
        super().__init__(f"exhaustive enumeration needs {needed} forms, over the budget of {budget}; {way_out}")
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class Run:
    """The census options of one run: mode, sample count, seed, budget, workers."""

    mode: str = "auto"
    sample_count: int = DEFAULT_SAMPLE_COUNT
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("auto", "exhaustive", "sampled"):
            raise ValueError(f"unknown enumeration mode {self.mode!r}")


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
    n = tower.n
    windows = np.lib.stride_tricks.sliding_window_view(tower.tau3, n)[: 2 * n - 1]
    tvec = tower.K.matmul(windows, b)
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
    """Read-only stack of the Gram matrices of the basis parameters."""
    if not 0 <= i < tower.n:
        raise ValueError(f"automorphism power i = {i} out of range 0..{tower.n - 1}")

    def make():
        # H_t[j, k] = tr(x**(t + j + k)) is symmetric, so F_i^T H_t = (H_t F_i)^T:
        # one product over K for all n Grams
        n, kf = tower.n, tower.K
        hankel = tower.tau3[np.add.outer(np.arange(n), np.add.outer(np.arange(n), np.arange(n)))]
        half = kf.matmul(hankel.reshape(n * n, n), tower.frobenius_mats[i]).reshape(n, n, n)
        return kf.add(half, half.transpose(0, 2, 1))

    return tower._memo(("gram", i), make)


def family(tower: FieldTower, i: int) -> FormSubspace:
    """The subspace of forms swept by b, echelonized into a canonical basis."""
    n, kf = tower.n, tower.K

    def make():
        flat = flatten_sym(gram_basis(tower, i), n)
        r, pivots = rref(kf, flat)
        return r[: len(pivots)].copy(), kernel(kf, flat.T)

    basis, pk = tower._memo(("family", i), make)
    return FormSubspace(tower, i, basis, param_kernel=LSubspace(kf, n, pk))


# -- enumeration engine ---------------------------------------------------------
#
# A census is a code source, then `_rank_chunks` (combine and rank each chunk),
# then a reducer: the histogram of `_profile_from_grams`.  A source is one
# triple (name, code chunks, weight), each ranked code standing for `weight`
# forms, and `rank_profile` chooses it once per census: the coset source when
# `_coset_source` offers one, else the projective (`_range_chunks` over code
# spans) or sampled source of `_census_source`.  An `auto` or exhaustive census
# of a form subspace runs over its family's parameter complement, so the coset
# source may serve it; a sampled one draws from the form subspace's basis.  Raw
# Gram stacks (min-rank over kk >= 2 families) reach `_profile_from_grams`
# directly and take `_census_source`'s source.
# `extremal.exhaustive_search` ranks the projective source over its whole
# ambient space once, into a table that decides every candidate by lookups;
# `extremal._verify_witness` checks one basis by an exhaustive census of its
# span, and the trace-form witness is the census of the family A^0.
# `FieldTower._memo` holds, read-only and up to `ffield.MEMO_BYTES`, what the
# tower alone decides: `gram_basis`, `family`, `eigenspace_of_power`, a coset
# generator per (f, m) and each exhaustive `rank_profile` census, keyed by i
# and its parameters' basis bytes once its source is chosen; a miss only
# recomputes.  Only the calling thread writes it: `_rank_chunks`' pool ranks.

_Source = tuple[str, Iterable[np.ndarray], int]


def _combine_forms(kf, coeffs: np.ndarray, basis_grams: np.ndarray) -> np.ndarray:
    """Combinations (B, ...) of the d members of `basis_grams`, shape (d, ...),
    with the coefficient rows (B, d): one product over K on the flattened members."""
    shape = basis_grams.shape
    flat = kf.matmul(coeffs, basis_grams.reshape(shape[0], math.prod(shape[1:])))
    return flat.reshape(coeffs.shape[:1] + shape[1:])


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
                yield base_digits(np.concatenate(parts), q, d)
                parts, size = [], 0
    if size:
        yield base_digits(np.concatenate(parts), q, d)


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
    return int(min(8192, max(256, 250_000 // max(n * n, 1))))


def _rank_chunks(kf, basis_grams: np.ndarray, code_chunks, workers: int = 1):
    """Ranks of the combined forms, one array per code chunk, in chunk order.

    With several workers the chunks are ranked on a thread pool.  At most
    2 * workers chunks wait on the pool at a time, so memory stays bounded
    whatever the source's length; the order of the yielded arrays does not
    depend on the worker count.
    """

    def ranks(codes):
        return rank_many(kf, _combine_forms(kf, codes, basis_grams))

    if workers == 1:
        for codes in code_chunks:
            yield ranks(codes)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for codes in code_chunks:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(ranks, codes))
        while pending:
            yield pending.popleft().result()


def _census_source(q: int, d: int, n: int, run: Run) -> _Source:
    """The projective or the sampled source of a census of the q**d - 1
    nonzero combinations of d members under `run`: exhaustive mode refuses
    past the budget, and `auto` is exhaustive exactly when the forms fit."""
    total = q**d - 1
    if run.mode == "exhaustive" and total > run.budget:
        raise BudgetExceededError(total, run.budget)
    chunk = _chunk_size(n)
    if run.mode == "sampled" or total > run.budget:
        return "sampled", _sample_codes(q, d, run.sample_count, run.seed, chunk) if d else (), 1
    # rank(c*G) = rank(G): one rank per line counts its q - 1 forms
    return "projective", _range_chunks(q, d, _projective_spans(q, d), chunk), q - 1


def _profile_from_grams(kf, basis_grams: np.ndarray, n: int, run: Run = Run(),
                        source: Optional[_Source] = None) -> RankProfile:
    """Rank histogram of the nonzero combinations of `basis_grams`, shape (d, n, n).

    `source` is a triple (name, code chunks over the d members, weight): the
    coset source that `rank_profile` found, or else `_census_source`'s for
    `run`.  Every rank counts `weight` forms; weights multiply the bins as
    Python ints, since |U| and q**d - 1 may pass 2**63.  The weighted bins of
    an exhaustive source must add up to q**d - 1; anything else is an
    internal error that names the source.
    """
    d, q = basis_grams.shape[0], kf.q
    name, chunks, weight = source or _census_source(q, d, n, run)
    hist = np.zeros(n + 1, dtype=np.int64)
    for ranks in _rank_chunks(kf, basis_grams, chunks, run.workers):
        hist += np.bincount(ranks, minlength=n + 1)
    histogram = {r: int(c) * weight for r, c in enumerate(hist) if c}
    if name == "sampled":
        return RankProfile(histogram, name, count=run.sample_count, seed=run.seed)
    counted = sum(histogram.values())
    if counted != q**d - 1:
        raise AssertionError(f"{name} census counted {counted} of {q**d - 1} nonzero forms")
    return RankProfile(histogram, "exhaustive")


# -- coset source -------------------------------------------------------------------
#
# Multiplying the arguments by a in L* gives the isometry
# phi_b(a*x, a*y) = phi_{b*a*sigma^i(a)}(x, y), and phi_{c*b} = c*phi_b for c
# in K*, so rank is constant on the cosets of K* . H_i, H_i = {a**(1 + q**i)}.
# On a parameter space W = {u*w : u in F}, one line over the subfield
# F = GF(q**f), the cosets of U = F* meet K* . H_i split W - 0 into
# m = [F* : U] classes of |U| parameters, with representatives h**k * w for
# k < m and any h whose image generates the cyclic group F*/U.  The census
# ranks those m forms and counts each |U| times.


def _coset_counts(q: int, n: int, i: int, f: int) -> tuple[int, int]:
    """|U| and m = [F* : U] for U = F* meet K* . H_i, F* of order q**f - 1.

    L* is cyclic of order N = q**n - 1, H_i its subgroup of index
    c = gcd(N, q**i + 1) (2 for i = 0), K* . H_i the subgroup of order
    lcm(q - 1, N/c), and two subgroups of a cyclic group meet in the one of
    order the gcd of theirs.
    """
    big = q**n - 1
    c = math.gcd(big, q**i + 1)
    unit = math.gcd(q**f - 1, math.lcm(q - 1, big // c))
    return unit, (q**f - 1) // unit


def _coset_candidates(kf, fbasis: np.ndarray):
    """The elements of F outside K, in code order over `fbasis`, a K-basis of F
    whose first member is 1."""
    q, f = kf.q, len(fbasis)
    for code in range(q, q**f):
        yield kf.matmul(base_digits(code, q, f), fbasis)


def _norm_tests(q: int, f: int, m: int) -> list[tuple[int, int]]:
    """(r, (q**r - 1)/l) for each prime l | m in increasing order, r the order
    of q mod l.  That order divides f when m | q**f - 1, and it is sought
    among the divisors of f only, as l can be near the budget."""
    tests = []
    for ell in prime_factors(m):
        r = next((r for r in range(1, f + 1) if f % r == 0 and (q**r - 1) % ell == 0), None)
        if r is None:
            raise AssertionError(f"prime {ell} of m divides no q**r - 1 with r dividing f = {f}")
        tests.append((r, (q**r - 1) // ell))
    return tests


def _generates(tower: FieldTower, h: np.ndarray, f: int, tests: list[tuple[int, int]]) -> bool:
    """Whether h**((q**f - 1)/l) != 1 for every l of `tests`.  That power is
    N(h)**((q**r - 1)/l), N(h) the norm onto GF(q**r).  The norms form a
    chain in decreasing r: each is the product of the r'/r conjugates of the
    norm already taken onto the smallest GF(q**r') with r | r' (h itself for
    r' = f), not of f/r conjugates of h.  The primes are then tested in
    increasing order with short powers."""
    one, norms = tower.one(), {f: h}
    for r in sorted({r for r, _ in tests}, reverse=True):
        top = min(rp for rp in norms if rp % r == 0)
        norms[r] = tower.norm_rel(r, norms[top], top)
    return all(not np.array_equal(tower.pow_elem(norms[r], e), one) for r, e in tests)


def _coset_generator(tower: FieldTower, candidates, f: int, m: int) -> np.ndarray:
    """The first candidate h whose image generates F*/U, F = GF(q**f), that
    is, h**((q**f - 1)/l) != 1 for every prime l | m (`_generates`).  Small
    candidates such as x + j fail on GF(7^4) and GF(11^4), and a failing h
    would repeat some cosets and miss others without any error."""
    tests = _norm_tests(tower.q, f, m)
    h = next((h for h in candidates if _generates(tower, h, f, tests)), None)
    if h is None:
        raise AssertionError(f"no element of F generates F*/U of order {m}")
    return h


def _mul_matrix(tower: FieldTower, a: np.ndarray) -> np.ndarray:
    """Matrix of t -> a*t on L: column k holds a * x**k = sum_j a_j x**(j + k),
    one product of `a` with the Hankel gather of the reduced powers xpow."""
    n = tower.n
    powers = tower.xpow[np.add.outer(np.arange(n), np.arange(n))]  # [j, k] -> x**(j + k)
    return tower.K.matmul(a, powers.reshape(n, n * n)).reshape(n, n).T


def _congruence_audit(tower: FieldTower, i: int, h: np.ndarray, by_h: np.ndarray, rows: np.ndarray) -> None:
    """G(b*h*sigma^i(h)) = M_h^T G(b) M_h for each basis row b of W, so
    multiplying a parameter by h*sigma^i(h) keeps its rank.  Multiplying by
    h keeps W = F*w, so the rows of W are all the census needs.  Each side
    comes from 2-D products over the flattened (f*n, n) stack; the right is
    (G(b) M_h)^T M_h, transposed back."""
    kf, n = tower.K, tower.n
    grams = gram_basis(tower, i)
    by_u = _mul_matrix(tower, tower.mul(h, tower.frobenius_apply(i, h)))
    left = _combine_forms(kf, kf.matmul(rows, by_u.T), grams)
    right = kf.matmul(_combine_forms(kf, rows, grams).reshape(-1, n), by_h).reshape(-1, n, n)
    right = kf.matmul(right.transpose(0, 2, 1).reshape(-1, n), by_h).reshape(-1, n, n)
    if not np.array_equal(left, right.transpose(0, 2, 1)):
        raise AssertionError(f"multiplication by a coset generator is not a congruence for i = {i}")


def _coset_source(tower: FieldTower, sub: LSubspace, i: int, budget: int = DEFAULT_BUDGET) -> Optional[_Source]:
    """The triple ("coset", code chunks over `sub`'s basis of one parameter
    per coset of U, |U|), or None.

    None when `sub` is not one line over a subfield, when the m cosets do
    not fit the budget, or when they do not pay: their set-up is a few
    norms and short powers per generator candidate plus the audit, so they
    are taken only when m*q <= (q**f - 1)/(q - 1), the projective count.
    Both counts are compared from the integers alone, before any set-up.
    For w the first echelon row of W and F = GF(q**f), W = {u*w : u in F}
    exactly when f = dim W divides n and every basis row b of W has b/w
    fixed by sigma**f, that is sigma**f(b)*w = b*sigma**f(w); no inverse is
    needed.
    The generator candidates run over the echelon basis of Fix(sigma**f),
    whose first row is 1.  When m = 1 the one representative is w and no
    generator is searched for; the audit still checks the first candidate.
    The representatives h**k * w come lazily, one chunk at a time
    (`_coset_chunks`).  Only `rank_profile` asks for this source.
    """
    kf, n, q, f = tower.K, tower.n, tower.q, sub.dim
    if f == 0 or n % f:
        return None
    unit, m = _coset_counts(q, n, i, f)
    if m > budget or m * q > (q**f - 1) // (q - 1):
        return None
    w = sub.basis[0]
    sigma = tower.frobenius_mats[f % n]
    by_w = kf.matmul(kf.matmul(sub.basis, sigma.T), _mul_matrix(tower, w).T)
    if not np.array_equal(by_w, kf.matmul(sub.basis, _mul_matrix(tower, kf.matmul(sigma, w)).T)):
        return None
    candidates = _coset_candidates(kf, eigenspace_of_power(tower, f, 1).basis)  # lazy
    h = tower._memo(("generator", f, m),
                    lambda: next(iter(candidates)) if m == 1 else _coset_generator(tower, candidates, f, m))
    by_h = _mul_matrix(tower, h)
    _congruence_audit(tower, i, h, by_h, sub.basis)
    pivots = [int(np.flatnonzero(row)[0]) for row in sub.basis]
    return "coset", _coset_chunks(tower, w, h, by_h, m, pivots), unit


def _coset_chunks(tower: FieldTower, w: np.ndarray, h: np.ndarray, by_h: np.ndarray, m: int,
                  pivots: list[int]) -> Iterator[np.ndarray]:
    """The codes of h**k * w for k < m, in order, in chunks of `_chunk_size(n)`.

    The first chunk P comes by doubling, [P, P*h**(2**j)]; each later chunk
    is the one before times h**c, c the chunk length, by one product with
    the matrix of that multiplication.  A code is a representative's
    entries at the echelon pivots of W.
    """
    kf = tower.K
    chunk = min(m, _chunk_size(tower.n))
    rows, step = w[None], by_h.T
    while len(rows) < chunk:
        rows = np.concatenate([rows, kf.matmul(rows, step)])
        if len(rows) < chunk:
            step = kf.matmul(step, step)
    rows = rows[:chunk]
    yield rows[:, pivots]
    if m > chunk:
        jump = _mul_matrix(tower, tower.pow_elem(h, chunk)).T
        for lo in range(chunk, m, chunk):
            rows = kf.matmul(rows, jump)
            yield rows[: m - lo, pivots]


def _parameter_complement(tower: FieldTower, sub: FormSubspace) -> LSubspace:
    """A complement of `sub.param_kernel`, which b -> form(b) maps one-to-one
    onto `sub`: all of L, or for the involution, whose kernel is the
    (-1)-eigenspace of sigma**(n/2), the (+1)-eigenspace (q is odd)."""
    kf, n = tower.K, tower.n
    if sub.param_kernel.dim == 0:
        return LSubspace.full(kf, n)
    comp = eigenspace_of_power(tower, n // 2, 1)
    span, direct = _span_audit([comp, sub.param_kernel])
    if not direct or span != n:
        raise AssertionError(f"Fix(sigma^{n // 2}) is not a complement of the parameter kernel of A^{sub.i}")
    return comp


def rank_profile(tower: FieldTower, sub, i: Optional[int] = None, run: Run = Run()) -> RankProfile:
    """Rank histogram over the nonzero forms of a parameter or form subspace.

    `sub` may be an LSubspace of parameters b (then `i` selects the twist) or
    a FormSubspace made by `family`.  In `auto` and exhaustive mode a form
    subspace is first replaced by the parameter complement of its kernel,
    with the power `sub.i`: b -> form(b) maps it one-to-one onto the family,
    so the histograms are equal.  This is the one place a census chooses its
    source: the coset source (`_coset_source`) whenever it is offered, for a
    parameter subspace that is one line over a subfield whose m cosets pay
    and fit the budget, however many forms it holds; else `_census_source`,
    which compares the q**d - 1 forms with the budget.  A sampled census of a
    form subspace draws from its own basis.  The source is chosen, and the
    budget checked, on every call; the tower's memo then holds each exhaustive
    result under i and the bytes of the parameters' echelon basis, shared by a
    family and its parameters, by auto and exhaustive runs and by any budget.
    A sampled census never reaches it.
    """
    if not isinstance(sub, (LSubspace, FormSubspace)):
        raise TypeError(f"expected LSubspace or FormSubspace, got {type(sub).__name__}")
    if isinstance(sub, LSubspace) and i is None:
        raise ValueError("an automorphism power is required for a parameter subspace of b's")
    params, source = sub, None
    if run.mode != "sampled":
        if isinstance(sub, FormSubspace):
            params, i = _parameter_complement(tower, sub), sub.i
        source = _coset_source(tower, params, i, run.budget)
    source = source or _census_source(tower.q, sub.dim, tower.n, run)
    if source[0] == "sampled":  # draws depend on the basis: a form subspace keeps its own
        grams = sub.gram_mats() if isinstance(sub, FormSubspace) else _combine_forms(
            tower.K, params.basis, gram_basis(tower, i))
        return _profile_from_grams(tower.K, grams, tower.n, run, source)
    prof = tower._memo(("census", i, params.basis.tobytes()), lambda: _profile_from_grams(
        tower.K, _combine_forms(tower.K, params.basis, gram_basis(tower, i)), tower.n, run, source))
    return replace(prof, histogram=dict(prof.histogram))
