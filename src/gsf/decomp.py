"""Certified verifiers for the direct-sum and constant-rank structure.

Every result is a list of pieces: the global sum of the families A^i, the
constant-rank splits of one family, the summed families of the rank bound.
A `Piece` holds what is observed (parameters j * Fix(sigma**f) built by
`formspace.translate`, with the power i that twists them, or a raw Gram
stack) next to what is claimed (dimension, ranks, and optionally rank
counts or a minimum rank).  Each verifier builds its pieces from the tower
and audits its direct sums by exact echelon accounting.  `_certify`, the
one claim path, then censuses the pieces, all their parameters in one
`formspace.rank_profiles` call, turns them into claims and sets the verdict.
Nothing is trusted; a certificate passes only if every audit holds and
every observation matches.

Every verifier takes one `formspace.Run` (mode, sample count, seed, budget,
workers; re-exported here), and `_certify` hands it to the census engine
as given, except that the k-th census of a certificate draws with seed + k,
so sampled bytes depend on the order of the pieces.  Certificates are pure
values, deterministic functions of (tower, run), and serialize to canonical
JSON so that reruns can be byte-compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from gsf.exactla import _span_audit
from gsf.ffield import FieldTower, two_adic
from gsf.formspace import (
    RankProfile,
    Run,
    _profile_from_grams,
    degenerate_rank_value,
    family,
    gram_basis,
    rank_profiles,
    translate,
)

__all__ = [
    "Certificate",
    "Run",
    "TheoremCParams",
    "theorem_c_case",
    "verify_global",
    "verify_rank_laws",
    "refine_A1_2k",
    "refine_Ai_mod2",
    "refine_A1_pow4",
    "verify_full_refined",
    "min_rank_lower_bound",
]


@dataclass(frozen=True)
class TheoremCParams:
    """Case parameters: q + 1 = 2**a * l with l odd, n = 2**alpha * k with k odd."""

    q: int
    a: int
    l: int
    alpha: int
    k: int

    def __post_init__(self):
        if self.q % 4 != 3:
            raise ValueError(f"q = {self.q} must be 3 mod 4 (-1 must be a nonsquare in the base field)")
        if (self.q + 1) != 2**self.a * self.l or self.l % 2 == 0:
            raise ValueError("inconsistent (a, l) for q + 1")
        if self.alpha < 2 or self.k % 2 == 0:
            raise ValueError("n must be 2**alpha * k with alpha >= 2 and k odd")

    @classmethod
    def from_qn(cls, q: int, n: int) -> "TheoremCParams":
        a, l = two_adic(q + 1)
        alpha, k = two_adic(n)
        return cls(q, a, l, alpha, k)

    @property
    def n(self) -> int:
        return 2**self.alpha * self.k


def theorem_c_case(params: TheoremCParams) -> str:
    """Classify into case1 / case2 / outside."""
    if params.alpha <= params.a + 1:
        return "case1"
    if params.l == 1:
        return "case2"
    return "outside"


# -- certificates -----------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One claimed piece of a decomposition.

    `sub` is what the census enumerates: a `Translate` of parameters twisted
    by sigma^i, or a raw (d, n, n) stack of Grams; None claims a dimension
    only.  `observed_dim` defaults to the dimension of `sub`.  Rank counts
    are claimed only when the census is exhaustive.
    """

    name: str
    sub: object = None
    i: Optional[int] = None
    dim: Optional[int] = None
    ranks: Optional[list[int]] = None
    counts: Optional[dict[int, int]] = None
    min_rank: Optional[int] = None
    observed_dim: Optional[int] = None

    def claim(self, profile: Optional[RankProfile]) -> dict:
        c = {
            "subspace_name": self.name,
            "claimed_dim": self.dim,
            "observed_dim": self.sub.dim if self.observed_dim is None else self.observed_dim,
            "claimed_ranks": sorted(self.ranks) if self.ranks is not None else None,
            "observed_rank_histogram": dict(profile.histogram) if profile is not None else None,
            "enumeration": profile.mode_record() if profile is not None else None,
        }
        if self.counts is not None and profile.mode == "exhaustive":
            c["claimed_rank_counts"] = dict(self.counts)
        if self.min_rank is not None:
            c["claimed_min_rank"] = self.min_rank
            c["observed_min_rank"] = profile.min_rank()
        return c


def claim_ok(claim: dict) -> bool:
    if claim.get("claimed_dim") is not None and claim.get("observed_dim") != claim["claimed_dim"]:
        return False
    hist = claim.get("observed_rank_histogram")
    if claim.get("claimed_ranks") is not None:
        if hist is None or set(hist) != set(claim["claimed_ranks"]):
            return False
    if claim.get("claimed_rank_counts") is not None:
        if hist is None:
            return False
        for r, c in claim["claimed_rank_counts"].items():
            if hist.get(r, 0) != c:
                return False
    if claim.get("claimed_min_rank") is not None:
        if not hist or min(hist) < claim["claimed_min_rank"]:
            return False
    return True


@dataclass
class Certificate:
    """A machine-checkable record of one verified instance."""

    theorem_id: str
    instance: dict
    claims: list[dict]
    direct_sum_ok: bool
    verdict: str
    enumeration: dict

    def to_dict(self) -> dict:
        claims = []
        for c in self.claims:
            cc = dict(c)
            if cc.get("observed_rank_histogram") is not None:
                h = cc["observed_rank_histogram"]
                cc["observed_rank_histogram"] = {str(r): h[r] for r in sorted(h)}
            if cc.get("claimed_rank_counts") is not None:
                h = cc["claimed_rank_counts"]
                cc["claimed_rank_counts"] = {str(r): h[r] for r in sorted(h)}
            claims.append(cc)
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "claims": claims,
            "direct_sum_ok": self.direct_sum_ok,
            "verdict": self.verdict,
            "enumeration": self.enumeration,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _certify(theorem_id: str, tower: FieldTower, instance: dict, pieces: list[Piece],
             audits: list[bool], run: Run, outside: bool = False) -> Certificate:
    """The one claim path: census the pieces, claim, and judge.

    The parameter censuses (pieces with a power i) go to one `rank_profiles`
    call, a raw Gram stack to `_profile_from_grams`; the k-th census draws
    with seed run.seed + k, and the header records sampling if any sampled.
    The verdict is outside_hypotheses when `outside`, else pass exactly when
    every audit holds and every claim matches its observation.
    """
    todo = [(p, replace(run, seed=run.seed + k)) for k, p in enumerate(p for p in pieces if p.sub is not None)]
    by_params = iter(rank_profiles(tower, [(p.sub, p.i, r) for p, r in todo if p.i is not None]))
    profs = [next(by_params) if p.i is not None else _profile_from_grams(tower.K, p.sub, tower.n, r)
             for p, r in todo]
    sampled = any(prof.mode == "sampled" for prof in profs)
    claims = [piece.claim(None if piece.sub is None else profs.pop(0)) for piece in pieces]
    ds = all(audits)
    if outside:
        verdict = "outside_hypotheses"
    else:
        verdict = "pass" if ds and all(claim_ok(c) for c in claims) else "fail"
    enumeration = ({"mode": "sampled", "count": run.sample_count, "seed": run.seed} if sampled
                   else {"mode": "exhaustive"})
    return Certificate(theorem_id, {"p": tower.p, "s": tower.s, "n": tower.n, **instance},
                       claims, ds, verdict, enumeration)


def _pair_representatives(n: int) -> tuple[list[int], Optional[int]]:
    """One power per inverse pair {i, n-i}, plus the involution when n is even."""
    m = (n - 1) // 2 if n % 2 else n // 2 - 1
    return list(range(1, m + 1)), (n // 2 if n % 2 == 0 else None)


# -- verifiers --------------------------------------------------------------------


def _global_pieces(tower: FieldTower, refine: bool) -> tuple[list[Piece], list[bool]]:
    """The global sum: B^1 (n even), A^0, one A^i per inverse pair, Sym_K(L).

    Without `refine` the families claim dimensions only.  With it each
    family claims constant rank n, except that a family of even order is
    replaced by its constant-rank split.  B^1 and A^0 are censused through
    parameters that b -> form(b) maps one-to-one onto them: Fix(sigma**(n/2)),
    which must complement B^1's parameter kernel, and all of L.  The audits
    are the splits' and, last, the independence of the families.
    """
    n = tower.n
    reps, invol = _pair_representatives(n)
    ranks = [n] if refine else None
    pieces, audits, parts = [], [], []
    heads = [("B^1", invol, n // 2)] if invol is not None else []
    for name, i, dim in heads + [("A^0", 0, n)]:
        fam = family(tower, i)
        parts.append(fam)
        params = translate(tower, i or n) if refine else None
        if refine and fam.param_kernel.dim and _span_audit([params, fam.param_kernel]) != (n, True):
            raise AssertionError(f"Fix(sigma^{i}) is not a complement of the parameter kernel of {name}")
        pieces.append(Piece(name, params, i, dim, ranks, observed_dim=fam.dim))
    full = translate(tower, n) if refine else None
    for i in reps:
        fam = family(tower, i)
        parts.append(fam)
        if refine and tower.sigma_order(i) % 2 == 0:
            split, ok = _split_family(tower, i)
            pieces.extend(split)
            audits.append(ok)
        else:
            pieces.append(Piece(f"A^{i}", full, i, n, ranks, observed_dim=fam.dim))
    span, direct = _span_audit(parts)
    pieces.append(Piece("Sym_K(L)", dim=n * (n + 1) // 2, observed_dim=span))
    return pieces, audits + [direct]


def verify_global(tower: FieldTower, run: Run = Run()) -> Certificate:
    """Audit the coarse decomposition of the whole symmetric-form space.

    Builds one family per inverse pair of automorphism powers (plus the
    involution family when n is even, listed first) and checks that the
    pieces are independent with total dimension n(n+1)/2.  No piece is
    censused, so `run` does not change the certificate.
    """
    pieces, audits = _global_pieces(tower, refine=False)
    return _certify("global-decomposition", tower, {}, pieces, audits, run)


def verify_rank_laws(tower: FieldTower, run: Run = Run()) -> Certificate:
    """Check the rank dichotomy of every twisted family over all of L.

    Odd-order powers give constant rank n.  The involution gives ranks
    {0, n} with the zero forms exactly on the (-1)-eigenspace.  Even order
    2r > 2 gives exactly the two ranks {n - n/r, n}, both realized.
    """
    n, q = tower.n, tower.q
    full = translate(tower, n)
    pieces = []
    for i in range(n):
        d = tower.sigma_order(i)
        if d % 2 == 1:
            pieces.append(Piece(f"A^{i}", full, i, ranks=[n]))
        elif d == 2:
            # the exact zero count certifies that the form vanishes precisely
            # on the (-1)-eigenspace
            pieces.append(Piece(f"A^{i}", full, i, ranks=[0, n], counts={0: q ** (n // 2) - 1}))
            pieces.append(Piece(f"A^{i}|E", translate(tower, i, i), i, n // 2, [0]))
        else:
            pieces.append(Piece(f"A^{i}", full, i, ranks=[degenerate_rank_value(tower, i), n]))
    return _certify("rank-laws", tower, {}, pieces, [], run)


def _split_family(tower: FieldTower, i: int) -> tuple[list[Piece], bool]:
    """Constant-rank pieces of the i-th family, for sigma^i of even order d.

    Order 2 mod 4: U is fixed by sigma^(i*d/2) and V = j*U for a
    (-1)-eigenvector j of sigma^i.  Order 0 mod 4: the eigenspace chain of
    sigma^i, whose rank claims are gated by the case classification taken
    relative to the fixed field of sigma^i (base size q**(n/d)); they are
    None (recorded, not asserted) when that classification does not apply
    or lands outside.  Each piece is a translate twisted by sigma^i; the
    flag says whether the pieces are independent and span L.
    """
    n = tower.n
    d = tower.sigma_order(i % n)
    degenerate_rank = degenerate_rank_value(tower, i)
    if d % 4 == 2:
        f = (i * (d // 2)) % n
        pieces = [
            Piece(f"U_{i}", translate(tower, f), i, n // 2, [n]),
            Piece(f"V_{i}", translate(tower, f, i), i, n // 2, [degenerate_rank]),
        ]
    elif d % 4 == 0:
        beta, kp = two_adic(d)
        q_rel = tower.q ** (n // d)
        rel_case = rel_a = None
        if q_rel % 4 == 3:
            rel = TheoremCParams.from_qn(q_rel, d)
            rel_case, rel_a = theorem_c_case(rel), rel.a
        v_ranks = [degenerate_rank] if rel_case in ("case1", "case2") else None
        vdim, f = kp * n // d, (i * kp) % n
        pieces = [
            Piece(f"V_1^{i}", translate(tower, f), i, vdim, v_ranks),
            Piece(f"V_2^{i}", translate(tower, f, f), i, vdim, v_ranks),
        ]
        for idx in range(1, beta):
            t = (i * (d >> idx)) % n
            if rel_case == "case1":
                e_ranks = [n]
            elif rel_case == "case2":
                e_ranks = [n] if idx <= rel_a else [degenerate_rank]
            else:
                e_ranks = None
            pieces.append(Piece(f"E_{idx}^{i}", translate(tower, t, t), i, None, e_ranks))
    else:
        raise ValueError(f"sigma^{i} has odd order {d}: its family does not split")
    span, ds = _span_audit([piece.sub for piece in pieces])
    return pieces, ds and span == n


def refine_A1_2k(tower: FieldTower, run: Run = Run()) -> Certificate:
    """Split the first twisted family when n = 2k with k odd.

    U is the subfield fixed by sigma^k, V = j*U for a (-1)-eigenvector j of
    sigma.  All nonzero parameters in U give rank n; all nonzero parameters
    in V give rank n - 2.
    """
    inside = tower.n % 4 == 2
    pieces, ok = _split_family(tower, 1) if inside else ([], True)
    return _certify("a1-split-2k", tower, {"i": 1}, pieces, [ok], run, outside=not inside)


def refine_Ai_mod2(tower: FieldTower, i: int, run: Run = Run()) -> Certificate:
    """Split the i-th family when sigma^i has order d = 2 mod 4, d != 2.

    The relative version of the 2k split over the fixed field of sigma^i,
    realized concretely as K-subspaces: U_i is fixed by sigma^(i*d/2),
    V_i = j_i * U_i for a (-1)-eigenvector j_i of sigma^i.
    """
    d = tower.sigma_order(i % tower.n)
    inside = d % 4 == 2 and d != 2
    pieces, ok = _split_family(tower, i) if inside else ([], True)
    return _certify("ai-split-mod2", tower, {"i": i, "order": d}, pieces, [ok], run, outside=not inside)


def refine_A1_pow4(tower: FieldTower, run: Run = Run()) -> Certificate:
    """Eigenspace refinement of the first family when 4 divides n.

    Requires -1 to be a nonsquare in the base field (q = 3 mod 4).  The
    parameter space splits as V_1 + V_2 + E_1 + ... + E_(alpha-1); the rank
    claims attached to the pieces depend on the case classification, and in
    the outside case the histograms are recorded without any pass/fail.
    """
    n, q = tower.n, tower.q
    if q % 4 != 3:
        raise ValueError(f"q = {q} is 1 mod 4: -1 is a square in the base field, refinement not applicable")
    alpha, k = two_adic(n)
    if alpha < 2:
        return _certify("a1-split-pow4", tower, {"i": 1, "alpha": alpha, "k": k}, [], [], run, outside=True)
    params = TheoremCParams.from_qn(q, n)
    case = theorem_c_case(params)
    inst = {"i": 1, "q": q, "a": params.a, "l": params.l, "alpha": alpha, "k": k, "case": case}
    pieces, ok = _split_family(tower, 1)
    # this certificate drops the "^1" suffix and claims dim E_idx = n >> idx
    pieces = [replace(piece, name=piece.name.removesuffix("^1"),
                      dim=n >> (pos - 1) if piece.dim is None else piece.dim)
              for pos, piece in enumerate(pieces)]
    return _certify("a1-split-pow4", tower, inst, pieces, [ok], run, outside=case == "outside")


def verify_full_refined(tower: FieldTower, run: Run = Run()) -> Certificate:
    """Compose the global decomposition with every applicable per-family split.

    Families of odd order stay whole (constant rank n); families of even
    order split through `_split_family` (U/V for order 2 mod 4, the
    relatively gated eigenspace chain for order 0 mod 4).
    """
    if tower.n % 2:
        raise ValueError("the fully refined decomposition is stated for even n")
    pieces, audits = _global_pieces(tower, refine=True)
    return _certify("full-refinement", tower, {}, pieces, audits, run)


def min_rank_lower_bound(tower: FieldTower, kk: int, run: Run = Run()) -> Certificate:
    """Every nonzero parameter tuple over the first kk twisted families must
    produce a form of rank at least n - 2*kk."""
    n = tower.n
    m = len(_pair_representatives(n)[0])
    if m == 0:
        raise ValueError(f"the min-rank bound needs n >= 3: n = {n} has no non-involution twisted family")
    if not 1 <= kk <= m:
        raise ValueError(f"kk = {kk} out of range 1..{m}")
    name, bound = f"sum(A^1..A^{kk})", n - 2 * kk
    if kk == 1:  # one family: a parameter census of all of L, which may take the coset source
        piece = Piece(name, translate(tower, n), 1, min_rank=bound)
    else:
        grams = np.concatenate([gram_basis(tower, i) for i in range(1, kk + 1)])
        piece = Piece(name, grams, min_rank=bound, observed_dim=kk * n)
    return _certify("min-rank-bound", tower, {"kk": kk}, [piece], [], run)
