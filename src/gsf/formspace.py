"""Twisted symmetric trace forms as Gram matrices, and their rank census.

For b in L and an automorphism power i, the form maps (x, y) to the absolute
trace of b*(x*sigma^i(y) + sigma^i(x)*y).  Its Gram matrix in the power
basis is H_b F_i + F_i^T H_b, where H_b is the Hankel matrix of traces
tr(b * x^(j+k)) and F_i the Frobenius matrix: the whole family is K-linear
in b, so enumerating a parameter subspace of b's is a matter of combining a
few precomputed basis Grams.

`rank_profiles` runs the enumeration engine over subspaces of parameters b,
one pass for all the censuses of a certificate; `rank_profile`, its
one-census case, is what the extremal witness checks and searches share.
Census options come in one frozen `Run` (mode, sample count, seed, budget,
workers); a `Run` with an unknown mode cannot be built.  A census ranks a
set of representatives and counts each as the forms it stands for: one per
K-line with weight q - 1, since rank(c*G) = rank(G) for c in K*; one per
coset of U = F* meet K* . {a**(1 + q**i)} with weight |U|, when the
parameters are a translate j * F of a subfield F (`translate`: every
verifier piece is one) and that pays; or a seeded sample with weight 1.
The coset source counts its m representatives against the budget, so
`auto` and exhaustive mode take it whenever m fits, even past q**d - 1
forms; otherwise the q**d - 1 forms decide.  Either way the histogram is a
deterministic function of (tower, subspace, i, mode, seed), whatever the
worker count and whatever censuses share its `rank_many` calls; memory
stays bounded, as chunks are made one at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

import numpy as np

from gsf.exactla import LSubspace, _frobenius_sum, eigenspace_of_power, kernel, rank_many
from gsf.ffield import FieldTower, base_digits, prime_factors

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_SAMPLE_COUNT",
    "BudgetExceededError",
    "Run",
    "SymForm",
    "Translate",
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
    "translate",
    "rank_profile",
    "rank_profiles",
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


def family(tower: FieldTower, i: int) -> LSubspace:
    """The forms swept by b, an `LSubspace` of Sym_K(L) flattened by
    `flatten_sym` (ambient dimension n(n+1)/2), in canonical echelon form.
    By rank-nullity b -> form(b) has a kernel of dimension n - dim: the
    (-1)-eigenspace of sigma^i at the involution, zero elsewhere."""
    n, kf = tower.n, tower.K
    make = lambda: LSubspace.from_vectors(kf, flatten_sym(gram_basis(tower, i), n)).basis
    return LSubspace(kf, n * (n + 1) // 2, tower._memo(("family", i), make))


@dataclass(eq=False, repr=False)
class Translate(LSubspace):
    """The parameters W = j * F, F = Fix(sigma**f) = GF(q**f) with f = dim W:
    an `LSubspace` that keeps the element j of W and f."""

    j: np.ndarray
    f: int


def _negated(tower: FieldTower, t: int) -> np.ndarray:
    """A (-1)-eigenvector of sigma**t of even order, without a kernel: the first
    nonzero column of sum_k (-1)**k sigma**(g*k), g = gcd(t, n), which sigma**g
    negates; t/g is odd, so sigma**t negates it too."""
    alt = _frobenius_sum(tower, math.gcd(t, tower.n), [1, int(tower.K.neg(1))])
    return alt[:, np.argmax(alt.any(axis=0))]


def translate(tower: FieldTower, f: int, t: int = 0) -> Translate:
    """W = j * Fix(sigma**f), f taken as gcd(f, n), with j = 1 for t = 0 and
    else the (-1)-eigenvector of sigma**t from `_negated`: f = n gives all of
    L, f = t the (-1)-eigenspace of sigma**t.  j * Fix is held in the memo as
    the echelon basis of Fix * M_j^T; a j that sigma**t does not negate raises
    `AssertionError`, as callers rely on it."""
    kf, n, f = tower.K, tower.n, math.gcd(f, tower.n)
    fix = eigenspace_of_power(tower, f, 1)
    if not t:
        return Translate(kf, n, fix.basis, tower.one(), f)

    def make():
        j = _negated(tower, t)
        if not j.any() or not np.array_equal(tower.frobenius_apply(t, j), kf.neg(j)):
            raise AssertionError(f"j = {j.tolist()} is not a (-1)-eigenvector of sigma^{t}")
        return LSubspace.from_vectors(kf, kf.matmul(fix.basis, _mul_matrix(tower, j).T), n).basis, j

    basis, j = tower._memo(("translate", f, t), make)
    return Translate(kf, n, basis, j, f)


# -- enumeration engine ---------------------------------------------------------
#
# A census is a code source, then combine and rank, then a reducer: the
# histogram of `_censuses`.  A source is one triple (name, code chunks,
# weight), each ranked code standing for `weight` forms, and `rank_profiles`
# chooses it once per census: the coset source when `_coset_source` offers
# one (only to a `Translate`), else the projective (`_range_chunks` over code
# spans) or sampled source of `_census_source`.  `decomp._certify` hands a
# certificate's parameter censuses to one `rank_profiles` call, whose
# single-chunk censuses share `rank_many` calls; raw Gram stacks reach
# `_profile_from_grams`.
# `extremal.exhaustive_search` ranks the projective source over its whole
# ambient space once, into a table that decides every candidate by lookups;
# `extremal._verify_witness` checks one basis by an exhaustive census of its
# span, and the trace-form witness is the census of A^0 through all of L.
# `FieldTower._memo` holds, read-only and up to `ffield.MEMO_BYTES`, what the
# tower alone decides: `gram_basis`, `family`, `eigenspace_of_power`, each
# translate with j != 1, a coset generator per (f, m) and each exhaustive
# parameter census, keyed by i and its parameters' basis bytes once its
# source is chosen; a miss only recomputes.  Only the calling thread writes
# it: `_rank_chunks`' pool ranks.

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


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _rank_chunks(kf, jobs, workers: int = 1):
    """(tag, ranks of the forms that make() returns) for each job (tag, make),
    in order.  With several workers the jobs are made and ranked on a thread
    pool, at most 2 * workers waiting at a time, so memory stays bounded
    whatever the sources' length; the output does not depend on the workers.
    Workers are capped at the usable CPUs: the pool starts a thread per job
    in flight while none is idle, and more threads than CPUs only wait."""
    workers = min(workers, _usable_cpus())
    if workers == 1:
        for tag, make in jobs:
            yield tag, rank_many(kf, make())
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for tag, make in jobs:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(lambda tag=tag, make=make: (tag, rank_many(kf, make()))))
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


def _censuses(kf, n: int, items, workers: int = 1) -> Iterator[RankProfile]:
    """Rank histograms of the censuses (d, maker of the (d, n, n) basis Grams,
    source, run), in order, once all are ranked.  Exhaustive single-chunk
    sources are combined in turn into a queue of jobs of up to `_chunk_size(n)`
    forms; then sampled and multi-chunk sources stream, one job per chunk.  A
    rank counts its source's weight, as Python ints (|U| and q**d - 1 may pass
    2**63); exhaustive bins must add up to q**d - 1, else an internal error
    names the source."""
    hists, cap = np.zeros((len(items), n + 1), dtype=np.int64), _chunk_size(n)

    def jobs():  # the queue is a buffer of `cap` forms, touched only as far as it is filled
        queue, tag, lo, streams = np.empty((cap, n, n), dtype=np.int64), [], 0, []
        for k, (_, grams, (name, chunks, _), _) in enumerate(items):
            head = [] if name == "sampled" else list(itertools.islice(chunks := iter(chunks), 2))
            if len(head) != 1:
                streams.append((k, grams, itertools.chain(head, chunks)))
                continue
            if lo + len(head[0]) > cap:
                yield tag, functools.partial(np.asarray, queue[:lo])
                queue, tag, lo = np.empty((cap, n, n), dtype=np.int64), [], 0
            queue[lo : lo + len(head[0])] = _combine_forms(kf, head[0], grams())
            tag, lo = tag + [(k, len(head[0]))], lo + len(head[0])
        if tag:
            yield tag, functools.partial(np.asarray, queue[:lo])
        del queue  # the streams run after the queue, without its buffer
        for k, grams, chunks in streams:
            grams = grams()
            for codes in chunks:
                yield [(k, len(codes))], functools.partial(_combine_forms, kf, codes, grams)

    for tag, ranks in _rank_chunks(kf, jobs(), workers):  # rank r of census k counts in bin k*(n + 1) + r
        hists += np.bincount(np.repeat(*zip(*tag)) * (n + 1) + ranks, minlength=hists.size).reshape(hists.shape)
    for hist, (d, _, (name, _, weight), run) in zip(hists, items):
        histogram = {r: int(c) * weight for r, c in enumerate(hist) if c}
        if name != "sampled" and (counted := sum(histogram.values())) != kf.q**d - 1:
            raise AssertionError(f"{name} census counted {counted} of {kf.q**d - 1} nonzero forms")
        yield (RankProfile(histogram, name, count=run.sample_count, seed=run.seed) if name == "sampled"
               else RankProfile(histogram, "exhaustive"))


def _profile_from_grams(kf, basis_grams: np.ndarray, n: int, run: Run = Run()) -> RankProfile:
    """Rank histogram of the nonzero combinations of `basis_grams` (d, n, n), by `_census_source`."""
    d = basis_grams.shape[0]
    return next(_censuses(kf, n, [(d, lambda: basis_grams, _census_source(kf.q, d, n, run), run)], run.workers))


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


def _coset_source(tower: FieldTower, sub: Translate, i: int, budget: int = DEFAULT_BUDGET) -> Optional[_Source]:
    """The triple ("coset", code chunks over `sub`'s basis of one parameter
    h**k * j per coset of U, |U|) for W = j*F, F = GF(q**f), or None.

    None when the m cosets do not fit the budget or do not pay: their set-up
    is a few norms and short powers per generator candidate plus the audit,
    so they are taken only when m*q <= (q**f - 1)/(q - 1), the projective
    count.  Both counts are compared from the integers alone, before any
    set-up.  The generator candidates run over the echelon basis of
    Fix(sigma**f), whose first row is 1.  When m = 1 the one representative
    is j and no generator is searched for; the audit still checks the first
    candidate.  The representatives come lazily, one chunk at a time
    (`_coset_chunks`).  Only `rank_profiles` asks for this source.
    """
    kf, n, q, f = tower.K, tower.n, tower.q, sub.f
    unit, m = _coset_counts(q, n, i, f)
    if m > budget or m * q > (q**f - 1) // (q - 1):
        return None
    candidates = _coset_candidates(kf, eigenspace_of_power(tower, f, 1).basis)  # lazy
    h = tower._memo(("generator", f, m),
                    lambda: next(iter(candidates)) if m == 1 else _coset_generator(tower, candidates, f, m))
    by_h = _mul_matrix(tower, h)
    _congruence_audit(tower, i, h, by_h, sub.basis)
    pivots = [int(np.flatnonzero(row)[0]) for row in sub.basis]
    return "coset", _coset_chunks(tower, sub.j, h, by_h, m, pivots), unit


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


def rank_profiles(tower: FieldTower, requests) -> list[RankProfile]:
    """Rank histograms over the nonzero forms of the parameters `sub` twisted by
    sigma^i, for each request (sub, i, run) in order, from one `_censuses` pass on
    the largest worker count.  Each takes the coset source if `_coset_source` offers
    it (a `Translate` whose m cosets pay and fit the budget), else `_census_source`'s,
    which weighs the q**d - 1 forms against the budget, before anything is ranked.
    The tower's memo holds each exhaustive result under i and the echelon basis
    bytes, for any mode and budget; never a sampled one."""
    kf, n, items, misses, held = tower.K, tower.n, [], [], []
    for sub, i, run in requests:
        if not isinstance(sub, LSubspace):
            raise TypeError(f"expected an LSubspace of parameters, got {type(sub).__name__}")
        coset = run.mode != "sampled" and isinstance(sub, Translate) and _coset_source(tower, sub, i, run.budget)
        source = coset or _census_source(tower.q, sub.dim, n, run)
        key = source[0] != "sampled" and ("census", i, sub.basis.tobytes())
        held.append(tower._held.get(key, (None,))[0])
        if held[-1] is None:  # the key is made again to hold the result, so keys are not kept
            misses.append((len(held) - 1, bool(key), sub, i))
            items.append((sub.dim, lambda sub=sub, i=i: _combine_forms(kf, sub.basis, gram_basis(tower, i)),
                          source, run))
    workers = max([1] + [r.workers for *_, r in requests])
    for (at, keep, sub, i), prof in zip(misses, _censuses(kf, n, items, workers)):
        held[at] = tower._memo(("census", i, sub.basis.tobytes()), lambda prof=prof: prof) if keep else prof
    return [replace(prof, histogram=dict(prof.histogram)) for prof in held]


def rank_profile(tower: FieldTower, sub: LSubspace, i: int, run: Run = Run()) -> RankProfile:
    """The histogram of the one request (sub, i, run) of `rank_profiles`."""
    return rank_profiles(tower, [(sub, i, run)])[0]
