"""Certified verifiers for the direct-sum and constant-rank structure.

Each verifier builds the advertised subspaces from scratch, audits the
direct sums by exact echelon accounting, runs a rank census over every
piece that carries a constant-rank claim, and returns a Certificate: the
claimed numbers next to the observed ones plus a verdict.  Nothing is
trusted; a certificate passes only if every observation matches.

Certificates are pure values, deterministic functions of
(tower, mode, seed), and serialize to canonical JSON so that reruns can be
byte-compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gsf.exactla import LSubspace, _span_audit, eigenspace_of_power
from gsf.ffield import FieldTower
from gsf.formspace import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLE_COUNT,
    FormSubspace,
    RankProfile,
    _profile_from_grams,
    family,
    gram_basis,
    rank_profile,
)

__all__ = [
    "Certificate",
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


def _two_adic(n: int) -> tuple[int, int]:
    """n = 2**alpha * k with k odd."""
    alpha = 0
    while n % 2 == 0:
        n //= 2
        alpha += 1
    return alpha, n


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
        a, l = _two_adic(q + 1)
        alpha, k = _two_adic(n)
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


def _claim(
    name: str,
    claimed_dim: Optional[int] = None,
    observed_dim: Optional[int] = None,
    claimed_ranks: Optional[list[int]] = None,
    profile: Optional[RankProfile] = None,
    claimed_rank_counts: Optional[dict[int, int]] = None,
    claimed_min_rank: Optional[int] = None,
) -> dict:
    c = {
        "subspace_name": name,
        "claimed_dim": claimed_dim,
        "observed_dim": observed_dim,
        "claimed_ranks": sorted(claimed_ranks) if claimed_ranks is not None else None,
        "observed_rank_histogram": dict(profile.histogram) if profile is not None else None,
        "enumeration": profile.mode_record() if profile is not None else None,
    }
    if claimed_rank_counts is not None:
        c["claimed_rank_counts"] = dict(claimed_rank_counts)
    if claimed_min_rank is not None:
        c["claimed_min_rank"] = claimed_min_rank
        c["observed_min_rank"] = profile.min_rank() if profile is not None else None
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


def _verdict(claims: list[dict], direct_sum_ok: bool, outside: bool = False) -> str:
    if outside:
        return "outside_hypotheses"
    return "pass" if direct_sum_ok and all(claim_ok(c) for c in claims) else "fail"


class _Census:
    """Runs the per-claim rank censuses with derived seeds and keeps track of
    whether anything fell back to sampling (for the certificate header)."""

    def __init__(self, tower, mode="auto", sample_count=DEFAULT_SAMPLE_COUNT, seed=0, budget=None, workers=1):
        self.tower = tower
        self.mode = mode
        self.sample_count = sample_count
        self.seed = seed
        self.budget = budget if budget is not None else DEFAULT_BUDGET
        self.workers = workers
        self.any_sampled = False
        self._idx = 0

    def profile(self, sub, i: Optional[int] = None) -> RankProfile:
        """Census of one piece: a parameter or form subspace, or a raw stack of Grams."""
        kwargs = {"sample_count": self.sample_count, "seed": self.seed + self._idx,
                  "budget": self.budget, "workers": self.workers}
        if isinstance(sub, np.ndarray):
            prof = _profile_from_grams(self.tower.K, sub, self.tower.n, self.mode, **kwargs)
        else:
            prof = rank_profile(self.tower, sub, i, self.mode, **kwargs)
        self._idx += 1
        if prof.mode == "sampled":
            self.any_sampled = True
        return prof

    def record(self) -> dict:
        if self.any_sampled:
            return {"mode": "sampled", "count": self.sample_count, "seed": self.seed}
        return {"mode": "exhaustive"}


def _instance(tower: FieldTower, **extra) -> dict:
    d = {"p": tower.p, "s": tower.s, "n": tower.n}
    d.update(extra)
    return d


def _pair_representatives(n: int) -> tuple[list[int], Optional[int]]:
    """One power per inverse pair {i, n-i}, plus the involution when n is even."""
    m = (n - 1) // 2 if n % 2 else n // 2 - 1
    return list(range(1, m + 1)), (n // 2 if n % 2 == 0 else None)


# -- verifiers --------------------------------------------------------------------


def verify_global(tower: FieldTower) -> Certificate:
    """Audit the coarse decomposition of the whole symmetric-form space.

    Builds one family per inverse pair of automorphism powers (plus the
    involution family when n is even, listed first) and checks that the
    pieces are independent with total dimension n(n+1)/2.
    """
    n = tower.n
    amb = n * (n + 1) // 2
    reps, invol = _pair_representatives(n)
    claims = []
    parts = []
    if invol is not None:
        b1 = family(tower, invol)
        claims.append(_claim("B^1", claimed_dim=n // 2, observed_dim=b1.dim))
        parts.append(b1)
    a0 = family(tower, 0)
    claims.append(_claim("A^0", claimed_dim=n, observed_dim=a0.dim))
    parts.append(a0)
    for i in reps:
        fi = family(tower, i)
        claims.append(_claim(f"A^{i}", claimed_dim=n, observed_dim=fi.dim))
        parts.append(fi)
    span, ds = _span_audit(parts)
    claims.append(_claim("Sym_K(L)", claimed_dim=amb, observed_dim=span))
    return Certificate(
        "global-decomposition",
        _instance(tower),
        claims,
        ds,
        _verdict(claims, ds),
        {"mode": "exhaustive"},
    )


def verify_rank_laws(tower: FieldTower, mode="auto", *, sample_count=DEFAULT_SAMPLE_COUNT,
                     seed=0, budget=None, workers=1) -> Certificate:
    """Check the rank dichotomy of every twisted family over all of L.

    Odd-order powers give constant rank n.  The involution gives ranks
    {0, n} with the zero forms exactly on the (-1)-eigenspace.  Even order
    2r > 2 gives exactly the two ranks {n - n/r, n}, both realized.
    """
    n, q, kf = tower.n, tower.q, tower.K
    cz = _Census(tower, mode, sample_count, seed, budget, workers)
    full = LSubspace.full(kf, n)
    claims = []
    for i in range(n):
        d = tower.sigma_order(i)
        if d % 2 == 1:
            claims.append(_claim(f"A^{i}", observed_dim=n, claimed_ranks=[n], profile=cz.profile(full, i)))
        elif d == 2:
            emin = eigenspace_of_power(tower, i, -1)
            prof = cz.profile(full, i)
            # the exact zero count certifies that the form vanishes precisely
            # on the (-1)-eigenspace; only meaningful under full enumeration
            counts = {0: q ** (n // 2) - 1} if prof.mode == "exhaustive" else None
            claims.append(
                _claim(
                    f"A^{i}",
                    observed_dim=n,
                    claimed_ranks=[0, n],
                    profile=prof,
                    claimed_rank_counts=counts,
                )
            )
            claims.append(
                _claim(f"A^{i}|E", claimed_dim=n // 2, observed_dim=emin.dim,
                       claimed_ranks=[0], profile=cz.profile(emin, i))
            )
        else:
            r = d // 2
            claims.append(
                _claim(f"A^{i}", observed_dim=n, claimed_ranks=[n - n // r, n], profile=cz.profile(full, i))
            )
    return Certificate(
        "rank-laws", _instance(tower), claims, True, _verdict(claims, True), cz.record()
    )


def _product_subspace(tower: FieldTower, j: np.ndarray, u: LSubspace) -> LSubspace:
    prods = [tower.mul(j, v) for v in u.basis] if u.dim else np.zeros((0, tower.n), dtype=np.int64)
    return LSubspace.from_vectors(tower.K, np.asarray(prods, dtype=np.int64), tower.n)


def _split_family(tower: FieldTower, i: int) -> tuple[list[tuple], bool]:
    """Constant-rank pieces of the i-th family, for sigma^i of even order d.

    Order 2 mod 4: U is fixed by sigma^(i*d/2) and V = j*U for the canonical
    (-1)-eigenvector j of sigma^i.  Order 0 mod 4: the eigenspace chain of
    sigma^i, whose rank claims are gated by the case classification taken
    relative to the fixed field of sigma^i (base size q**(n/d)); they are
    None (recorded, not asserted) when that classification does not apply
    or lands outside.  Each piece is (name, parameter subspace, claimed dim,
    claimed ranks); the flag says whether the pieces are independent and
    span L.
    """
    n = tower.n
    d = tower.sigma_order(i % n)
    degenerate_rank = n - 2 * n // d
    if d % 4 == 2:
        u = eigenspace_of_power(tower, (i * (d // 2)) % n, 1)
        j = eigenspace_of_power(tower, i, -1).basis[0]
        pieces = [
            (f"U_{i}", u, n // 2, [n]),
            (f"V_{i}", _product_subspace(tower, j, u), n // 2, [degenerate_rank]),
        ]
    elif d % 4 == 0:
        beta, kp = _two_adic(d)
        q_rel = tower.q ** (n // d)
        rel_case = rel_a = None
        if q_rel % 4 == 3:
            rel = TheoremCParams.from_qn(q_rel, d)
            rel_case, rel_a = theorem_c_case(rel), rel.a
        v_ranks = [degenerate_rank] if rel_case in ("case1", "case2") else None
        vdim = kp * n // d
        pieces = [
            (f"V_1^{i}", eigenspace_of_power(tower, (i * kp) % n, 1), vdim, v_ranks),
            (f"V_2^{i}", eigenspace_of_power(tower, (i * kp) % n, -1), vdim, v_ranks),
        ]
        for idx in range(1, beta):
            e = eigenspace_of_power(tower, (i * (d >> idx)) % n, -1)
            if rel_case == "case1":
                e_ranks = [n]
            elif rel_case == "case2":
                e_ranks = [n] if idx <= rel_a else [degenerate_rank]
            else:
                e_ranks = None
            pieces.append((f"E_{idx}^{i}", e, None, e_ranks))
    else:
        raise ValueError(f"sigma^{i} has odd order {d}: its family does not split")
    span, ds = _span_audit([sub for _, sub, _, _ in pieces])
    return pieces, ds and span == n


def _piece_claims(cz: _Census, pieces: list[tuple], i: int) -> list[dict]:
    return [
        _claim(name, claimed_dim=cd, observed_dim=sub.dim, claimed_ranks=ranks, profile=cz.profile(sub, i))
        for name, sub, cd, ranks in pieces
    ]


def refine_A1_2k(tower: FieldTower, mode="auto", *, sample_count=DEFAULT_SAMPLE_COUNT,
                 seed=0, budget=None, workers=1) -> Certificate:
    """Split the first twisted family when n = 2k with k odd.

    U is the subfield fixed by sigma^k, V = j*U for the canonical
    (-1)-eigenvector j of sigma.  All nonzero parameters in U give rank n;
    all nonzero parameters in V give rank n - 2.
    """
    inst = _instance(tower, i=1)
    if tower.n % 4 != 2:
        return Certificate("a1-split-2k", inst, [], True, "outside_hypotheses", {"mode": "exhaustive"})
    cz = _Census(tower, mode, sample_count, seed, budget, workers)
    pieces, ds = _split_family(tower, 1)
    claims = _piece_claims(cz, pieces, 1)
    return Certificate("a1-split-2k", inst, claims, ds, _verdict(claims, ds), cz.record())


def refine_Ai_mod2(tower: FieldTower, i: int, mode="auto", *, sample_count=DEFAULT_SAMPLE_COUNT,
                   seed=0, budget=None, workers=1) -> Certificate:
    """Split the i-th family when sigma^i has order d = 2 mod 4, d != 2.

    The relative version of the 2k split over the fixed field of sigma^i,
    realized concretely as K-subspaces: U_i is fixed by sigma^(i*d/2),
    V_i = j_i * U_i for the canonical (-1)-eigenvector j_i of sigma^i.
    """
    d = tower.sigma_order(i % tower.n)
    inst = _instance(tower, i=i, order=d)
    if d % 4 != 2 or d == 2:
        return Certificate("ai-split-mod2", inst, [], True, "outside_hypotheses", {"mode": "exhaustive"})
    cz = _Census(tower, mode, sample_count, seed, budget, workers)
    pieces, ds = _split_family(tower, i)
    claims = _piece_claims(cz, pieces, i)
    return Certificate("ai-split-mod2", inst, claims, ds, _verdict(claims, ds), cz.record())


def refine_A1_pow4(tower: FieldTower, mode="auto", *, sample_count=DEFAULT_SAMPLE_COUNT,
                   seed=0, budget=None, workers=1) -> Certificate:
    """Eigenspace refinement of the first family when 4 divides n.

    Requires -1 to be a nonsquare in the base field (q = 3 mod 4).  The
    parameter space splits as V_1 + V_2 + E_1 + ... + E_(alpha-1); the rank
    claims attached to the pieces depend on the case classification, and in
    the outside case the histograms are recorded without any pass/fail.
    """
    n, q = tower.n, tower.q
    if q % 4 != 3:
        raise ValueError(f"q = {q} is 1 mod 4: -1 is a square in the base field, refinement not applicable")
    alpha, k = _two_adic(n)
    if alpha < 2:
        return Certificate(
            "a1-split-pow4",
            _instance(tower, i=1, alpha=alpha, k=k),
            [],
            True,
            "outside_hypotheses",
            {"mode": "exhaustive"},
        )
    params = TheoremCParams.from_qn(q, n)
    case = theorem_c_case(params)
    inst = _instance(tower, i=1, q=q, a=params.a, l=params.l, alpha=alpha, k=k, case=case)
    cz = _Census(tower, mode, sample_count, seed, budget, workers)
    pieces, ds = _split_family(tower, 1)
    # this certificate drops the "^1" suffix and claims dim E_idx = n >> idx
    pieces = [
        (name.removesuffix("^1"), sub, cd if cd is not None else n >> (pos - 1), ranks)
        for pos, (name, sub, cd, ranks) in enumerate(pieces)
    ]
    claims = _piece_claims(cz, pieces, 1)
    return Certificate("a1-split-pow4", inst, claims, ds, _verdict(claims, ds, outside=case == "outside"),
                       cz.record())


def verify_full_refined(tower: FieldTower, mode="auto", *, sample_count=DEFAULT_SAMPLE_COUNT,
                        seed=0, budget=None, workers=1) -> Certificate:
    """Compose the global decomposition with every applicable per-family split.

    Families of odd order stay whole (constant rank n); families of even
    order split through `_split_family` (U/V for order 2 mod 4, the
    relatively gated eigenspace chain for order 0 mod 4).
    """
    n, kf = tower.n, tower.K
    if n % 2:
        raise ValueError("the fully refined decomposition is stated for even n")
    amb = n * (n + 1) // 2
    cz = _Census(tower, mode, sample_count, seed, budget, workers)
    reps, invol = _pair_representatives(n)
    claims = []
    audits = []
    global_parts = []

    b1 = family(tower, invol)
    claims.append(_claim("B^1", claimed_dim=n // 2, observed_dim=b1.dim, claimed_ranks=[n],
                         profile=cz.profile(b1)))
    global_parts.append(b1)
    a0 = family(tower, 0)
    claims.append(_claim("A^0", claimed_dim=n, observed_dim=a0.dim, claimed_ranks=[n],
                         profile=cz.profile(a0)))
    global_parts.append(a0)

    full = LSubspace.full(kf, n)
    for i in reps:
        fi = family(tower, i)
        global_parts.append(fi)
        if tower.sigma_order(i) % 2:
            claims.append(_claim(f"A^{i}", claimed_dim=n, observed_dim=fi.dim, claimed_ranks=[n],
                                 profile=cz.profile(full, i)))
            continue
        pieces, ok = _split_family(tower, i)
        claims.extend(_piece_claims(cz, pieces, i))
        audits.append(ok)

    span, direct = _span_audit(global_parts)
    audits.append(direct)
    claims.append(_claim("Sym_K(L)", claimed_dim=amb, observed_dim=span))
    ds = all(audits)
    return Certificate("full-refinement", _instance(tower), claims, ds, _verdict(claims, ds), cz.record())


def min_rank_lower_bound(tower: FieldTower, kk: int, mode="auto", *, sample_count=DEFAULT_SAMPLE_COUNT,
                         seed=0, budget=None, workers=1) -> Certificate:
    """Every nonzero parameter tuple over the first kk twisted families must
    produce a form of rank at least n - 2*kk."""
    n = tower.n
    m = len(_pair_representatives(n)[0])
    if not 1 <= kk <= m:
        raise ValueError(f"kk = {kk} out of range 1..{m}")
    cz = _Census(tower, mode, sample_count, seed, budget, workers)
    grams = np.concatenate([gram_basis(tower, i) for i in range(1, kk + 1)])
    prof = cz.profile(grams)
    bound = n - 2 * kk
    claims = [
        _claim(
            f"sum(A^1..A^{kk})",
            observed_dim=kk * n,
            profile=prof,
            claimed_min_rank=bound,
        )
    ]
    return Certificate(
        "min-rank-bound", _instance(tower, kk=kk), claims, True, _verdict(claims, True), cz.record()
    )
