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

from gsf.exactla import LSubspace, rank_many
from gsf.ffield import FieldTower, Gf, PrimePower, base_digits, prime_power_decompose, two_adic
from gsf.formspace import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    Run,
    _chunk_size,
    _combine_forms,
    _profile_from_grams,
    _projective_spans,
    _range_chunks,
    family,
    flatten_sym,
    rank_profile,
    translate,
    unflatten_sym,
)

__all__ = [
    "SearchResult",
    "rho",
    "real_mu_interval",
    "block_construction",
    "construct_regular_rep_subspace",
    "construct_symmetric_witness",
    "exhaustive_search",
    "greedy_search",
    "gaussian_binomial",
]

# candidate bases per chunk of the exhaustive scan (a whole pivot pattern at
# once raises peak memory); greedy draws per step, backtracks per restart
_CANDIDATE_CHUNK = 512
_GREEDY_TRIES = 512
_GREEDY_BACKTRACKS = 64
# states of the exhaustive search's invertibility table
_UNFILLED, _SINGULAR, _INVERTIBLE = 0, 1, 2


def _rho_parts(n: int) -> tuple[int, int]:
    """(c, d) with n = odd * 2**(c + 4d) and 0 <= c <= 3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = two_adic(n)[0]
    return e % 4, e // 4


def rho(n: int) -> int:
    """Radon-Hurwitz number 2**c + 8d."""
    c, d = _rho_parts(n)
    return 2**c + 8 * d


def real_mu_interval(n: int) -> tuple[int, int]:
    """The interval pinning the symmetric invariant over the reals.

    Odd n gives the single value 1; even n depends on the 2-adic shape:
    c = 0 gives exactly 8d, otherwise [2**(c-1) + 8d, 2**c + 8d].
    """
    c, d = _rho_parts(n)
    if n % 2:
        return (1, 1)
    if c == 0:
        return (8 * d, 8 * d)
    return (2 ** (c - 1) + 8 * d, 2**c + 8 * d)


@dataclass
class SearchResult:
    """A witness subspace with the record of how it was verified.

    `verified` is True only when every one of the q**best_dim - 1 nonzero
    combinations of the witness basis was checked invertible.  The exhaustive
    search fills `dims_exhausted`: above n by the column bound, then by scan.
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
    rows = LSubspace.from_vectors(gf, flat).basis
    return list(unflatten_sym(rows, n) if symmetric else rows.reshape(-1, n, n))


def _verify_witness(gf: Gf, basis: np.ndarray, budget: int) -> bool:
    """Whether every nonzero member of the span of `basis` (d, n, n) has rank n,
    by an exhaustive census: the one closure check of the regular representation,
    the block lift and greedy.  There is no sampled witness: past the budget it
    raises `BudgetExceededError`, whose one way out is to raise the budget."""
    n = basis.shape[1]
    try:
        return _profile_from_grams(gf, basis, n, Run(mode="exhaustive", budget=budget)).ranks == {n}
    except BudgetExceededError as exc:
        raise BudgetExceededError(exc.needed, budget, "raise the budget") from None


def construct_regular_rep_subspace(tower: FieldTower, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """The multiplication matrices of L span an n-dimensional invertible-closed
    subspace of M(n, K): nonzero combinations are multiplication by nonzero
    field elements."""
    n, kf = tower.n, tower.K
    # column k of the matrix of x**j holds x**(j + k)
    mats = np.stack([tower.xpow[j : j + n].T for j in range(n)])
    if not _verify_witness(kf, mats, budget):
        raise AssertionError("exhaustive verification found a singular member of a field-derived witness")
    return SearchResult("tau", n, kf.q, n, _canonical_witness(kf, mats, False), {"mode": "exhaustive"}, True)


def construct_symmetric_witness(tower: FieldTower, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """The untwisted trace-form Grams span an n-dimensional invertible-closed
    subspace of S(n, K): the trace pairing is non-degenerate.  The span is the
    family A^0, censused through all of L in at most two coset ranks."""
    n = tower.n
    try:
        prof = rank_profile(tower, translate(tower, n), 0, Run(mode="exhaustive", budget=budget))
    except BudgetExceededError as exc:
        raise BudgetExceededError(exc.needed, budget, "raise the budget") from None
    if prof.ranks != {n}:
        raise AssertionError("exhaustive verification found a singular member of a field-derived witness")
    witness = list(unflatten_sym(family(tower, 0).basis, n))
    return SearchResult("mu", n, tower.q, n, witness, {"mode": "exhaustive"}, True)


def block_construction(u: SearchResult, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Lift an invertible-closed subspace of M(m, K) to S(2m, K) via
    off-diagonal blocks [[0, A], [A^T, 0]]; dimension is preserved."""
    if not u.verified:
        raise ValueError("block construction requires a fully verified input subspace")
    gf, m = Gf(*prime_power_decompose(u.q)), u.n
    a = np.asarray(u.witness_basis, dtype=np.int64).reshape(-1, m, m)
    blocks = np.zeros((len(a), 2 * m, 2 * m), dtype=np.int64)
    blocks[:, :m, m:], blocks[:, m:, :m] = a, a.transpose(0, 2, 1)
    if not _verify_witness(gf, blocks, budget):
        raise AssertionError("block lift of an invertible-closed subspace has a singular member")
    return SearchResult("mu", 2 * m, u.q, u.best_dim, _canonical_witness(gf, blocks, symmetric=True),
                        {"mode": "exhaustive"}, True)


def _members(target: str, flat: np.ndarray, n: int) -> np.ndarray:
    """Matrices (B, n, n) of the ambient vectors (B, ambient)."""
    return flat.reshape(-1, n, n) if target == "tau" else unflatten_sym(flat, n)


def _ambient(target: str, n: int) -> int:
    if target == "tau":
        return n * n
    if target == "mu":
        return n * (n + 1) // 2
    raise ValueError(f"target must be 'tau' or 'mu', got {target!r}")


def _echelon_chunks(q: int, ambient: int, k: int):
    """All k-dimensional subspaces of GF(q)**ambient, one canonical reduced
    echelon basis each, in (pivot columns, free cells) lexicographic order:
    stacks (C, k, ambient) of at most `_CANDIDATE_CHUNK` bases, where the
    free cells, row by row, hold the little-endian base-q digits of a count
    running over one pivot pattern."""
    for pivots in itertools.combinations(range(ambient), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, ambient) if c not in pivots]
        rows, cols = np.array(free, dtype=np.int64).reshape(-1, 2).T
        base = np.zeros((k, ambient), dtype=np.int64)
        base[np.arange(k), pivots] = 1
        total = q ** len(free)
        for lo in range(0, total, _CANDIDATE_CHUNK):
            counts = np.arange(lo, min(total, lo + _CANDIDATE_CHUNK), dtype=np.int64)
            bases = np.repeat(base[None], counts.size, axis=0)
            bases[:, rows, cols] = base_digits(counts, q, len(free))
            yield bases


def _invertibility_table(gf: Gf, target: str, n: int) -> np.ndarray:
    """Rank verdict of every K-line of the ambient space, indexed by code.

    A vector of the ambient space (flattened as `_ambient` counts it) has
    the code sum(v[j] * q**(ambient - 1 - j)): coordinate 0 is the most
    significant digit.  The table covers the codes below 2 * q**(ambient - 1)
    and fills the projective ones, whose leading digit is 1: one vector per
    K-line, ranked in one `rank_many` call per chunk of the engine's own
    projective source.  Rank is constant on K-lines, so this decides every
    nonzero member of the space.
    """
    q, ambient = gf.q, _ambient(target, n)
    table = np.full(2 * q ** (ambient - 1), _UNFILLED, dtype=np.int8)
    place = q ** np.arange(ambient, dtype=np.int64)
    for digits in _range_chunks(q, ambient, _projective_spans(q, ambient), _chunk_size(n)):
        # little-endian digit i is coordinate ambient - 1 - i
        flat = digits[:, ::-1]
        ranks = rank_many(gf, _members(target, flat, n))
        table[digits @ place] = np.where(ranks == n, _INVERTIBLE, _SINGULAR)
    return table


def _first_closed(gf: Gf, table: np.ndarray, ambient: int, k: int, n: int) -> Optional[np.ndarray]:
    """The first k-dimensional subspace in `_echelon_chunks` order whose
    every nonzero member reads invertible in `table`, as its echelon basis
    (k, ambient); None when there is none.

    One combination per K-line is read: the coefficient vectors whose first
    nonzero entry is 1.  In a reduced echelon basis that entry is the
    combination's first nonzero coordinate, so its code is projective and
    needs no normalising.  Each chunk of candidates reads the codes in
    slices that start at one combination and double, at most
    `_chunk_size(n)` combinations at a time, and a candidate is dropped at
    its first singular member.  Most candidates die within their first few
    combinations, so the small first slices pay: a fixed slice of
    `_chunk_size(n)` made the `mu 3 3` search 2.3 times slower.
    """
    q = gf.q
    lines = np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in _projective_spans(q, k)])
    coeffs = base_digits(lines, q, k)[:, ::-1]
    place = q ** np.arange(ambient - 1, -1, -1, dtype=np.int64)
    for bases in _echelon_chunks(q, ambient, k):
        alive = np.ones(len(bases), dtype=bool)
        lo, step = 0, 1
        while lo < len(coeffs) and alive.any():
            idx = np.nonzero(alive)[0]
            take = max(1, min(step, _chunk_size(n) // idx.size))
            # (S, C', ambient): combination s of live candidate c
            combos = _combine_forms(gf, coeffs[lo : lo + take], bases[idx].transpose(1, 0, 2))
            state = table[combos @ place]
            if (state == _UNFILLED).any():
                raise AssertionError("an echelon combination read an unfilled entry of the invertibility table")
            alive[idx] = (state == _INVERTIBLE).all(axis=0)
            lo, step = lo + take, 2 * step
        if alive.any():
            return bases[np.argmax(alive)]
    return None


def exhaustive_search(target: str, n: int, q: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exact maximal invertible-closed dimension on a tiny instance.

    No subspace above dimension n is invertible-closed (column bound: A ->
    A e_1 is injective on one), so those dimensions go into `dims_exhausted`
    unscanned, and the scan runs downward from n, enumerating canonical
    echelon bases in `_echelon_chunks` order.  Every K-line of the ambient
    space is ranked once, into the table of `_invertibility_table`, and a
    candidate is closed iff every one of its combinations whose first
    nonzero coefficient is 1 reads invertible there (`_first_closed`);
    echelon form makes those codes projective.  The first survivor in scan
    order of the first dimension with one is the witness of the exact
    maximum, and every dimension scanned before it joins `dims_exhausted`.

    The budget counts candidates and forms (q**k - 1 per candidate), not
    ranks.  It still counts dimension n + 1, so refusals are those of a
    scan from n + 1: every dimension from top = min(ambient, n + 1) down to
    n is checked against the budget before anything is built or scanned;
    the check needs only q, n and the target.  The table ranks
    (q**ambient - 1)/(q - 1) forms and is built after that check, which
    already bounds it: for top < ambient the top dimension's candidate
    count is a Gaussian binomial [ambient, top]_q, at least [ambient, 1]_q,
    and for top = ambient its q**ambient - 1 forms are at least
    [ambient, 1]_q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p, s = prime_power_decompose(q)
    PrimePower(p, s)  # refuses what Gf(p, s) would, without building a table
    ambient = _ambient(target, n)
    top = min(ambient, n + 1)

    def check_budget(k):
        for needed in (gaussian_binomial(ambient, k, q), q**k - 1):
            if needed > budget:
                raise BudgetExceededError(needed, budget, "rerun with --method greedy or raise the budget")

    for k in range(top, min(ambient, n) - 1, -1):
        check_budget(k)
    gf = Gf(p, s)
    table = _invertibility_table(gf, target, n)
    exhausted = list(range(top, n, -1))
    for k in range(n, 0, -1):
        check_budget(k)
        flat = _first_closed(gf, table, ambient, k, n)
        if flat is not None:
            # a reduced echelon basis is already the canonical witness
            return SearchResult(target, n, q, k, list(_members(target, flat, n)), {"mode": "exhaustive"},
                                True, dims_exhausted=exhausted)
        exhausted.append(k)
    return SearchResult(target, n, q, 0, [], {"mode": "exhaustive"}, True, dims_exhausted=exhausted)


def greedy_search(target: str, n: int, q: int, seed: int = 0, restarts: int = 0,
                  budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Randomized greedy basis extension with exact verification of each step.

    Per restart: draw `_GREEDY_TRIES` random candidate matrices, filter out
    every one that breaks invertible-closure (vectorized, one batched rank
    pass per existing combination), and append the first survivor.  When no
    candidate survives the walk backtracks by dropping a random member, up
    to `_GREEDY_BACKTRACKS` times, keeping the best basis seen.  Restart
    streams derive deterministically from (seed, restart index), so
    restarts = 0 is the deterministic first pass.  By the column bound a
    walk stops at n members, and no restart starts once the best basis has n.
    The best basis is verified by an exhaustive census of its span; over
    the budget it is reported unverified.
    """
    for name, value, least in (("n", n, 1), ("restarts", restarts, 0), ("seed", seed, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
    _ambient(target, n)
    gf = Gf(*prime_power_decompose(q))
    best: list[np.ndarray] = []
    best_restart = 0
    for restart in range(restarts + 1):
        if len(best) == n:
            break
        rng = np.random.default_rng([seed, restart])
        basis: list[np.ndarray] = []
        back_left = _GREEDY_BACKTRACKS
        while len(basis) < n and q ** len(basis) <= budget:
            cand = _find_extension(gf, target, n, basis, rng, _GREEDY_TRIES)
            if cand is not None:
                basis.append(cand)
                if len(basis) > len(best):
                    best = list(basis)
                    best_restart = restart
                continue
            if not basis or back_left == 0:
                break
            back_left -= 1
            basis.pop(int(rng.integers(0, len(basis))))
    try:
        verified = bool(best) and _verify_witness(gf, np.stack(best), budget)
    except BudgetExceededError:
        verified = False
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
