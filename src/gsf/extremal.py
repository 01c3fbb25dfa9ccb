"""Invertible-closed subspaces of M(n, K) and S(n, K): witnesses and searches.

A subspace is invertible-closed when every nonzero member has full rank.
Over a finite field the regular representation of the degree-n extension
gives an n-dimensional witness inside the full matrix space, and the
untwisted trace forms give one inside the symmetric matrices, both of the
maximal possible dimension n.  An exhaustive search over canonical echelon
representatives double-checks maximality on tiny instances, and a seeded
greedy search scouts larger ones.

Also includes the closed-form calculators for the real-field analogues:
the Radon-Hurwitz number and the interval it pins for symmetric spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from gsf.exactla import rank_many, rref
from gsf.ffield import FieldTower, Gf, prime_power_decompose
from gsf.formspace import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    _chunk_size,
    _combine_forms,
    _profile_from_grams,
    _projective_spans,
    _range_chunks,
    flatten_sym,
    gram_basis,
    unflatten_sym,
)

__all__ = [
    "RhoDecomposition",
    "SearchResult",
    "rho",
    "rho_decompose",
    "real_mu_interval",
    "block_construction",
    "construct_regular_rep_subspace",
    "construct_symmetric_witness",
    "exhaustive_search",
    "greedy_search",
    "gaussian_binomial",
]

# combined matrices per rank pass of the exhaustive search (larger batches gain
# little time and raise peak memory); greedy draws per step, backtracks per restart
_SEARCH_BATCH = 1024
_GREEDY_TRIES = 512
_GREEDY_BACKTRACKS = 64


@dataclass(frozen=True)
class RhoDecomposition:
    """n = (2a+1) * 2**(c + 4d) with 0 <= c <= 3."""

    n: int
    odd_part: int
    c: int
    d: int

    def __post_init__(self):
        if self.odd_part * 2 ** (self.c + 4 * self.d) != self.n or not 0 <= self.c <= 3:
            raise ValueError("inconsistent decomposition")

    @property
    def rho(self) -> int:
        return 2**self.c + 8 * self.d


def rho_decompose(n: int) -> RhoDecomposition:
    if n < 1:
        raise ValueError("n must be >= 1")
    e = 0
    odd = n
    while odd % 2 == 0:
        odd //= 2
        e += 1
    return RhoDecomposition(n, odd, e % 4, e // 4)


def rho(n: int) -> int:
    """Radon-Hurwitz number 2**c + 8d."""
    return rho_decompose(n).rho


def real_mu_interval(n: int) -> tuple[int, int]:
    """The interval pinning the symmetric invariant over the reals.

    Odd n gives the single value 1; even n depends on the 2-adic shape:
    c = 0 gives exactly 8d, otherwise [2**(c-1) + 8d, 2**c + 8d].
    """
    if n % 2:
        return (1, 1)
    dec = rho_decompose(n)
    if dec.c == 0:
        return (8 * dec.d, 8 * dec.d)
    lo = 2 ** (dec.c - 1) + 8 * dec.d
    return (lo, dec.rho)


@dataclass
class SearchResult:
    """A witness subspace with the record of how it was verified.

    `verified` is True only when every one of the q**best_dim - 1 nonzero
    combinations of the witness basis was checked invertible.
    """

    target: str
    n: int
    q: int
    best_dim: int
    witness_basis: list[np.ndarray]
    mode: dict
    verified: bool
    dims_exhausted: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "n": self.n,
            "q": self.q,
            "best_dim": self.best_dim,
            "witness_basis": [[[int(v) for v in row] for row in m] for m in self.witness_basis],
            "mode": self.mode,
            "verified": self.verified,
            "dims_exhausted": self.dims_exhausted,
        }


def gaussian_binomial(nn: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)**nn (exact integer)."""
    if k < 0 or k > nn:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (nn - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _canonical_witness(gf: Gf, mats, symmetric: bool) -> list[np.ndarray]:
    """Echelonize the flattened witness so equal subspaces print identically."""
    if len(mats) == 0:
        return []
    mats = np.asarray(mats, dtype=np.int64)
    n = mats.shape[1]
    flat = flatten_sym(mats, n) if symmetric else mats.reshape(len(mats), -1)
    r, pivots = rref(gf, flat)
    rows = r[: len(pivots)]
    return list(unflatten_sym(rows, n) if symmetric else rows.reshape(-1, n, n))


def _all_combos_invertible(gf: Gf, bases, budget: int) -> Optional[np.ndarray]:
    """Mask (C,) of the candidate bases, shape (C, d, n, n), whose every nonzero
    combination is invertible; None when the q**d - 1 combinations exceed the
    budget.  A nonzero multiple of an invertible matrix is invertible, so only
    the (q**d - 1)/(q - 1) projective codes, one per K-line, are ranked.  Each
    code chunk is combined with every live candidate and ranked in one batched
    call; the walk stops once no candidate is alive.
    """
    bases = np.asarray(bases, dtype=np.int64)
    c, d, n = bases.shape[:3]
    total = gf.q**d - 1
    if total > budget:
        return None
    alive = np.ones(c, dtype=bool)
    for codes in _range_chunks(gf.q, d, _projective_spans(gf.q, d), max(1, _chunk_size(n) // c)):
        idx = np.nonzero(alive)[0]
        # (d, C'*n, n): member t of every live candidate, stacked by rows
        stack = bases[idx].transpose(1, 0, 2, 3).reshape(d, idx.size * n, n)
        forms = _combine_forms(gf, codes, stack).reshape(-1, n, n)
        ranks = rank_many(gf, forms).reshape(codes.shape[0], idx.size)
        alive[idx] = (ranks == n).all(axis=0)
        if not alive.any():
            break
    return alive


def _verify_witness(gf: Gf, mats: list[np.ndarray], budget: int, sample_count: int, seed: int):
    """Census of a field-derived witness (exhaustive within the budget, else
    sampled); every nonzero member must have full rank."""
    basis = np.stack(mats)
    n = basis.shape[1]
    prof = _profile_from_grams(gf, basis, n, "auto", sample_count=sample_count, seed=seed, budget=budget)
    if prof.ranks != {n}:
        raise AssertionError(f"{prof.mode} verification found a singular member of a field-derived witness")
    return prof.mode_record(), prof.mode == "exhaustive"


def construct_regular_rep_subspace(tower: FieldTower, budget: int | None = None,
                                   sample_count: int = 10_000, seed: int = 0) -> SearchResult:
    """The multiplication matrices of L span an n-dimensional invertible-closed
    subspace of M(n, K): nonzero combinations are multiplication by nonzero
    field elements."""
    budget = DEFAULT_BUDGET if budget is None else budget
    n, kf = tower.n, tower.K
    mats = []
    for j in range(n):
        m = np.zeros((n, n), dtype=np.int64)
        for k in range(n):
            m[:, k] = tower.xpow[j + k]
        mats.append(m)
    mode, verified = _verify_witness(kf, mats, budget, sample_count, seed)
    return SearchResult("tau", n, kf.q, n, _canonical_witness(kf, mats, symmetric=False), mode, verified)


def construct_symmetric_witness(tower: FieldTower, budget: int | None = None,
                                sample_count: int = 10_000, seed: int = 0) -> SearchResult:
    """The untwisted trace-form Grams span an n-dimensional invertible-closed
    subspace of S(n, K): the trace pairing is non-degenerate."""
    budget = DEFAULT_BUDGET if budget is None else budget
    n, kf = tower.n, tower.K
    mats = [g.copy() for g in gram_basis(tower, 0)]
    mode, verified = _verify_witness(kf, mats, budget, sample_count, seed)
    return SearchResult("mu", n, kf.q, n, _canonical_witness(kf, mats, symmetric=True), mode, verified)


def block_construction(u: SearchResult, budget: int | None = None) -> SearchResult:
    """Lift an invertible-closed subspace of M(m, K) to S(2m, K) via
    off-diagonal blocks [[0, A], [A^T, 0]]; dimension is preserved."""
    if not u.verified:
        raise ValueError("block construction requires a fully verified input subspace")
    budget = DEFAULT_BUDGET if budget is None else budget
    p, s = prime_power_decompose(u.q)
    gf = Gf(p, s)
    m = u.n
    blocks = []
    for a in u.witness_basis:
        a = np.asarray(a, dtype=np.int64)
        b = np.zeros((2 * m, 2 * m), dtype=np.int64)
        b[:m, m:] = a
        b[m:, :m] = a.T
        blocks.append(b)
    ok = _all_combos_invertible(gf, np.stack(blocks)[None], budget)
    if ok is None:
        raise BudgetExceededError(gf.q ** len(blocks) - 1, budget)
    if not ok[0]:
        raise AssertionError("block lift of an invertible-closed subspace has a singular member")
    return SearchResult("mu", 2 * m, u.q, u.best_dim, _canonical_witness(gf, blocks, symmetric=True),
                        {"mode": "exhaustive"}, True)


def _ambient(target: str, n: int) -> int:
    if target == "tau":
        return n * n
    if target == "mu":
        return n * (n + 1) // 2
    raise ValueError(f"target must be 'tau' or 'mu', got {target!r}")


def _iter_rref_bases(q: int, ambient: int, k: int):
    """All k-dimensional subspaces of GF(q)**ambient, one canonical reduced
    echelon basis each, in (pivot columns, free cells) lexicographic order."""
    for pivots in itertools.combinations(range(ambient), k):
        free_cells = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, ambient)
            if c not in pivots
        ]
        base = np.zeros((k, ambient), dtype=np.int64)
        for r, pc in enumerate(pivots):
            base[r, pc] = 1
        nfree = len(free_cells)
        for m in range(q**nfree):
            b = base.copy()
            rem = m
            for r, c in free_cells:
                b[r, c] = rem % q
                rem //= q
            yield b


def exhaustive_search(target: str, n: int, q: int, budget: int | None = None) -> SearchResult:
    """Exact maximal invertible-closed dimension on a tiny instance.

    Scans dimensions downward from n + 1 (capped by the ambient dimension),
    enumerating canonical echelon bases in `_iter_rref_bases` order.  The
    candidates of a dimension go through `_all_combos_invertible`, which
    ranks one combination per K-line, in batches of about `_SEARCH_BATCH`
    combined matrices, so one rank pass covers several candidates.  The
    first survivor in scan order of the first dimension with one is the
    witness of the exact maximum, and every larger dimension scanned without
    a witness is recorded in `dims_exhausted`.

    The budget counts candidates and forms (q**k - 1 per candidate), not
    ranks.  No (n + 1)-dimensional subspace is invertible-closed (column
    bound), so the scan always reaches dimension n: every dimension down to
    n is checked against the budget before anything is scanned.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    p, s = prime_power_decompose(q)
    gf = Gf(p, s)
    ambient = _ambient(target, n)
    top = min(ambient, n + 1)

    def check_budget(k):
        for needed in (gaussian_binomial(ambient, k, q), q**k - 1):
            if needed > budget:
                raise BudgetExceededError(needed, budget)

    for k in range(top, min(ambient, n) - 1, -1):
        check_budget(k)
    exhausted = []
    for k in range(top, 0, -1):
        check_budget(k)
        bases = _iter_rref_bases(q, ambient, k)
        per_batch = max(1, _SEARCH_BATCH // ((q**k - 1) // (q - 1)))
        while batch := list(itertools.islice(bases, per_batch)):
            flat = np.stack(batch)
            mats = flat.reshape(-1, k, n, n) if target == "tau" else unflatten_sym(flat, n)
            ok = _all_combos_invertible(gf, mats, budget)
            if ok.any():
                witness = _canonical_witness(gf, mats[np.argmax(ok)], target == "mu")
                return SearchResult(target, n, q, k, witness, {"mode": "exhaustive"}, True,
                                    dims_exhausted=exhausted)
        exhausted.append(k)
    return SearchResult(target, n, q, 0, [], {"mode": "exhaustive"}, True, dims_exhausted=exhausted)


def greedy_search(target: str, n: int, q: int, seed: int = 0, restarts: int = 0,
                  budget: int | None = None) -> SearchResult:
    """Randomized greedy basis extension with exact verification of each step.

    Per restart: draw `_GREEDY_TRIES` random candidate matrices, filter out
    every one that breaks invertible-closure (vectorized, one batched rank
    pass per existing combination), and append the first survivor.  When no
    candidate survives the walk backtracks by dropping a random member, up
    to `_GREEDY_BACKTRACKS` times, keeping the best basis seen.  Restart
    streams derive deterministically from (seed, restart index), so
    restarts = 0 is the deterministic first pass.  An extension past
    dimension n succeeding would contradict the column bound, so it raises.
    The best basis is verified by `_all_combos_invertible` as a stack of
    one; over the budget it is reported unverified.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    p, s = prime_power_decompose(q)
    gf = Gf(p, s)
    best: list[np.ndarray] = []
    best_restart = 0
    for restart in range(restarts + 1):
        rng = np.random.default_rng([seed, restart])
        basis: list[np.ndarray] = []
        back_left = _GREEDY_BACKTRACKS
        while True:
            if q ** len(basis) > budget:
                break
            cand = _find_extension(gf, target, n, basis, rng, _GREEDY_TRIES)
            if cand is not None:
                if len(basis) == n:
                    raise AssertionError("greedy extension exceeded the dimension bound n")
                basis.append(cand)
                if len(basis) > len(best):
                    best = list(basis)
                    best_restart = restart
                continue
            if len(basis) == n or not basis or back_left == 0:
                break
            back_left -= 1
            basis.pop(int(rng.integers(0, len(basis))))
    ok = _all_combos_invertible(gf, np.stack(best)[None], budget) if best else None
    verified = ok is not None and bool(ok[0])
    return SearchResult(
        target,
        n,
        q,
        len(best),
        _canonical_witness(gf, best, target == "mu"),
        {"mode": "greedy", "seed": seed, "restarts": restarts, "best_restart": best_restart},
        verified,
    )


def _find_extension(gf: Gf, target: str, n: int, basis: list[np.ndarray], rng,
                    max_tries: int) -> Optional[np.ndarray]:
    """First of `max_tries` random candidates that keeps the span closed.

    A candidate survives iff cand + B is invertible for every combination B
    of the current basis (coefficient 1 on the candidate is enough: scaling
    is free).  All candidates are screened together, one batched rank pass
    per combination, worst-to-first survivor order fixed by the rng stream.
    """
    cands = rng.integers(0, gf.q, size=(max_tries, n, n), dtype=np.int64)
    if target == "mu":
        upper = np.triu(cands)
        cands = upper + np.triu(cands, 1).transpose(0, 2, 1)
    alive = cands.any(axis=(1, 2))
    alive &= rank_many(gf, cands) == n
    if not alive.any():
        return None
    d = len(basis)
    if d:
        stack = np.stack(basis)
        for codes in _range_chunks(gf.q, d, [(1, gf.q**d)], _chunk_size(n)):
            for b in _combine_forms(gf, codes, stack):
                idx = np.nonzero(alive)[0]
                if idx.size == 0:
                    return None
                ok = rank_many(gf, gf.add(cands[idx], b[None])) == n
                alive[idx[~ok]] = False
    idx = np.nonzero(alive)[0]
    return cands[idx[0]].copy() if idx.size else None
