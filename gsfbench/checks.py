"""Output checks derived from the paper, not copied from gsf's output.

For a family twisted by sigma^i, d the order of sigma^i in Gal(L/K), the
rank law is: odd d gives {n}; d = 2 gives {0, n} with exactly q^(n/2) - 1
zero forms; d = 2r gives {n - n/r, n}.  The refinements sharpen this per
piece (U/V splits, the two-power eigenspace chain with its case
classification), and every exhaustive census of a d-dimensional parameter
space ranks exactly q^d - 1 forms.  `check_output` applies these rules to
what a command printed; `subsample` re-ranks a seeded sample of a
workload's forms by elimination written here, over GF(p) or GF(7^3).

The output checks use the standard library only; `subsample` runs inside a
worker that already imported gsf.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

# -- field arithmetic and elimination -----------------------------------------


class PrimeField:
    def __init__(self, p: int):
        self.p = self.q = p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)


class ExtField:
    """GF(p^s), s <= 3, on gsf's codes: base-p digits of the coefficients in
    the power basis of GF(p)[y]/(g), g the first monic irreducible of degree s
    when monic polynomials are ordered by their coefficients read as a
    base-p integer, constant term least significant."""

    def __init__(self, p: int, s: int):
        if not 2 <= s <= 3:
            raise ValueError("a polynomial of degree 2 or 3 is irreducible iff it has no root")
        self.p, self.s, self.q = p, s, p**s
        self.modulus = next(
            g for g in (self._digits(m) + [1] for m in range(p**s))
            if all(self._eval(g, x) for x in range(p))
        )

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**k) % self.p for k in range(self.s)]

    def _code(self, digits) -> int:
        return sum(d * self.p**k for k, d in enumerate(digits))

    def _eval(self, g, x: int) -> int:
        return sum(c * x**k for k, c in enumerate(g)) % self.p

    def sub(self, a: int, b: int) -> int:
        return self._code((x - y) % self.p for x, y in zip(self._digits(a), self._digits(b)))

    def mul(self, a: int, b: int) -> int:
        p, s = self.p, self.s
        da, db = self._digits(a), self._digits(b)
        conv = [0] * (2 * s - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                conv[i + j] += x * y
        for m in range(2 * s - 2, s - 1, -1):
            c = conv[m] % p
            for t in range(s):
                conv[m - s + t] -= c * self.modulus[t]
        return self._code(c % p for c in conv[:s])

    def inv(self, a: int) -> int:
        r, e = 1, self.q - 2
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r


def eliminate(mat, f) -> tuple[int, int]:
    """(rank, determinant) of a matrix of field codes by Gaussian elimination.

    The determinant is 0 unless the matrix is square of full rank.
    """
    rows = [list(r) for r in mat]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    r, det = 0, 1
    for c in range(ncols):
        piv = next((k for k in range(r, nrows) if rows[k][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = f.sub(0, det)
        det = f.mul(det, rows[r][c])
        inv = f.inv(rows[r][c])
        pr = [f.mul(inv, x) for x in rows[r]]
        rows[r] = pr
        for k in range(r + 1, nrows):
            fac = rows[k][c]
            if fac:
                rows[k] = [f.sub(x, f.mul(fac, y)) for x, y in zip(rows[k], pr)]
        r += 1
    return r, (det if r == nrows == ncols else 0)


# -- the paper's laws ---------------------------------------------------------


def sigma_order(n: int, i: int) -> int:
    return n // math.gcd(n, i) if i % n else 1


def family_ranks(n: int, i: int) -> set[int]:
    """Every rank a nonzero parameter b can give in the family of sigma^i."""
    d = sigma_order(n, i)
    if d % 2:
        return {n}
    if d == 2:
        return {0, n}
    return {n - n // (d // 2), n}


def two_adic(m: int) -> tuple[int, int]:
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    return e, m


def theorem_c_case(q: int, n: int) -> str:
    """q + 1 = 2^a l and n = 2^alpha k (l, k odd): case1 when alpha <= a + 1,
    else case2 when l = 1, else outside."""
    a, l = two_adic(q + 1)
    alpha, _ = two_adic(n)
    if alpha <= a + 1:
        return "case1"
    return "case2" if l == 1 else "outside"


def _chain(n: int, q_rel: int, d: int, suffix: str, i: int) -> dict:
    """Pieces V_1, V_2, E_1..E_(beta-1) of a family of order d = 2^beta k,
    refined over a fixed field of size q_rel: name -> (i, ranks, dim)."""
    beta, _ = two_adic(d)
    case = theorem_c_case(q_rel, d) if q_rel % 4 == 3 else None
    a, _ = two_adic(q_rel + 1)
    low = n - 2 * n // d
    v_ranks = {low} if case in ("case1", "case2") else None
    out = {f"V_1{suffix}": (i, v_ranks, n >> beta), f"V_2{suffix}": (i, v_ranks, n >> beta)}
    for idx in range(1, beta):
        if case == "case1" or (case == "case2" and idx <= a):
            e_ranks = {n}
        elif case == "case2":
            e_ranks = {low}
        else:
            e_ranks = None
        out[f"E_{idx}{suffix}"] = (i, e_ranks, n >> idx)
    return out


def _uv(n: int, i: int, suffix: str) -> dict:
    d = sigma_order(n, i)
    return {f"U_{suffix}": (i, {n}, n // 2), f"V_{suffix}": (i, {n - 2 * n // d}, n // 2)}


def _pair_reps(n: int) -> list[int]:
    return list(range(1, (n - 1) // 2 + 1)) if n % 2 else list(range(1, n // 2))


def expected_claims(cert: dict) -> tuple[dict, bool]:
    """The claims the paper makes for this certificate's instance.

    Returns ({name: (family power i or None, claimed ranks or None,
    dimension or None)}, outside_hypotheses).
    """
    tid, inst = cert["theorem_id"], cert["instance"]
    n, q = inst["n"], inst["p"] ** inst["s"]
    amb = n * (n + 1) // 2
    if tid == "global-decomposition":
        exp = {"B^1": (n // 2, None, n // 2)} if n % 2 == 0 else {}
        exp["A^0"] = (0, None, n)
        exp.update({f"A^{i}": (i, None, n) for i in _pair_reps(n)})
        exp["Sym_K(L)"] = (None, None, amb)
        return exp, False
    if tid == "rank-laws":
        exp = {}
        for i in range(n):
            exp[f"A^{i}"] = (i, family_ranks(n, i), None)
            if sigma_order(n, i) == 2:
                exp[f"A^{i}|E"] = (i, {0}, n // 2)
        return exp, False
    if tid == "full-refinement":
        exp = {"B^1": (n // 2, {n}, n // 2), "A^0": (0, {n}, n)}
        for i in _pair_reps(n):
            d = sigma_order(n, i)
            if d % 2:
                exp[f"A^{i}"] = (i, {n}, n)
            elif d % 4 == 2:
                exp.update(_uv(n, i, str(i)))
            else:
                exp.update(_chain(n, q ** (n // d), d, f"^{i}", i))
        exp["Sym_K(L)"] = (None, None, amb)
        return exp, False
    if tid == "a1-split-2k":
        if n % 4 != 2:
            return {}, True
        return _uv(n, 1, "1"), False
    if tid == "ai-split-mod2":
        d = sigma_order(n, inst["i"])
        if d % 4 != 2 or d == 2:
            return {}, True
        return _uv(n, inst["i"], str(inst["i"])), False
    if tid == "a1-split-pow4":
        if two_adic(n)[0] < 2:
            return {}, True
        return _chain(n, q, n, "", 1), theorem_c_case(q, n) == "outside"
    if tid == "min-rank-bound":
        return {f"sum(A^1..A^{inst['kk']})": (None, None, inst["kk"] * n)}, False
    raise ValueError(f"unknown theorem id {tid!r}")


def check_certificate(cert: dict) -> list[str]:
    """Every way the certificate departs from the paper's laws."""
    errs: list[str] = []
    tid, inst = cert["theorem_id"], cert["instance"]
    where = f"{tid} {inst}"
    exp, outside = expected_claims(cert)
    n, q = inst["n"], inst["p"] ** inst["s"]
    claims = {c["subspace_name"]: c for c in cert["claims"]}
    if set(claims) != set(exp):
        errs.append(f"{where}: pieces {sorted(claims)}, expected {sorted(exp)}")
    want_verdict = "outside_hypotheses" if outside else "pass"
    if cert.get("verdict") != want_verdict:
        errs.append(f"{where}: verdict {cert.get('verdict')!r}, expected {want_verdict!r}")
    if cert.get("direct_sum_ok") is not True:
        errs.append(f"{where}: direct sum audit failed")
    if tid == "a1-split-pow4" and inst.get("case") != theorem_c_case(q, n):
        errs.append(f"{where}: case {inst.get('case')!r}, expected {theorem_c_case(q, n)!r}")

    split = tid in ("full-refinement", "a1-split-2k", "ai-split-mod2", "a1-split-pow4")
    family_dims: dict = {}
    for name, c in claims.items():
        if name not in exp:
            continue
        fam, ranks, dim = exp[name]
        if dim is not None and c.get("observed_dim") != dim:
            errs.append(f"{where} {name}: dimension {c.get('observed_dim')}, expected {dim}")
        if split and fam is not None and not name.startswith(("A^", "B^")):
            family_dims[fam] = family_dims.get(fam, 0) + (c.get("observed_dim") or 0)
        claimed = c.get("claimed_ranks")
        if (sorted(ranks) if ranks is not None else None) != claimed:
            errs.append(f"{where} {name}: claims ranks {claimed}, "
                        f"the paper gives {sorted(ranks) if ranks is not None else None}")
        if "kk" in inst and c.get("claimed_min_rank") != n - 2 * inst["kk"]:
            errs.append(f"{where} {name}: claims min rank {c.get('claimed_min_rank')}, "
                        f"the paper gives {n - 2 * inst['kk']}")
        if tid == "global-decomposition" or name == "Sym_K(L)":
            continue
        hist = c.get("observed_rank_histogram")
        if not hist:
            errs.append(f"{where} {name}: no rank histogram")
            continue
        errs += _check_histogram(f"{where} {name}", c, {int(r): v for r, v in hist.items()},
                                 q, n, fam, ranks, inst)

    if tid in ("global-decomposition", "full-refinement"):
        total = sum((c.get("observed_dim") or 0) for name, c in claims.items() if name != "Sym_K(L)")
        if total != n * (n + 1) // 2:
            errs.append(f"{where}: piece dimensions add up to {total}, expected {n * (n + 1) // 2}")
    if any(v != n for v in family_dims.values()):
        errs.append(f"{where}: piece dimensions per family {family_dims}, expected {n} each")
    return errs


def _check_histogram(where, claim, hist, q, n, fam, ranks, inst) -> list[str]:
    errs = []
    enum = claim.get("enumeration") or {}
    total = sum(hist.values())
    if enum.get("mode") == "exhaustive":
        want = q ** claim["observed_dim"] - 1
        if total != want:
            errs.append(f"{where}: {total} forms ranked, an exhaustive census has {want}")
    elif enum.get("mode") == "sampled":
        if total != enum.get("count"):
            errs.append(f"{where}: {total} forms ranked, {enum.get('count')} were sampled")
    else:
        errs.append(f"{where}: unknown enumeration {enum}")
    if any(v <= 0 for v in hist.values()):
        errs.append(f"{where}: empty histogram bin {hist}")
    observed = set(hist)
    if fam is not None and not observed <= family_ranks(n, fam):
        errs.append(f"{where}: ranks {sorted(observed)} outside the law {sorted(family_ranks(n, fam))}")
    if ranks is not None:
        if enum.get("mode") == "exhaustive" and observed != ranks:
            errs.append(f"{where}: exhaustive ranks {sorted(observed)}, the paper gives {sorted(ranks)}")
        elif not observed <= ranks:
            errs.append(f"{where}: sampled ranks {sorted(observed)} outside {sorted(ranks)}")
    if fam is not None and sigma_order(n, fam) == 2 and claim["subspace_name"] == f"A^{fam}" \
            and enum.get("mode") == "exhaustive" and hist.get(0) != q ** (n // 2) - 1:
        errs.append(f"{where}: {hist.get(0)} zero forms, expected {q ** (n // 2) - 1}")
    if "kk" in inst:
        bound = n - 2 * inst["kk"]
        if min(observed) < bound or max(observed) > n:
            errs.append(f"{where}: ranks {sorted(observed)} outside [{bound}, {n}]")
    return errs


# -- per-workload output checks -----------------------------------------------

_GOLDEN_KIND = {
    "global": "global-decomposition",
    "rank-laws": "rank-laws",
    "full-refined": "full-refinement",
    "a1-2k": "a1-split-2k",
    "a1-pow4": "a1-split-pow4",
    "min-rank-1": "min-rank-bound",
}
_EXIT = {"pass": 0, "outside_hypotheses": 3}


def check_golden(stdout: str, exit_code: int, certificates: list[str], golden_dir: Path) -> list[str]:
    """golden-check reported every pinned file OK, and the certificates it
    computed equal the pinned bytes and obey the paper's laws."""
    pinned = sorted(p.name for p in golden_dir.glob("*.json"))
    lines = stdout.splitlines()
    ok = [ln[3:] for ln in lines if ln.startswith("OK ")]
    errs = []
    if exit_code != 0:
        errs.append(f"golden-check exited {exit_code}")
    if not pinned:
        errs.append(f"no pinned certificates in {golden_dir}")
    if sorted(ok) != pinned or not lines or lines[-1] != f"{len(pinned)}/{len(pinned)} certificates match":
        errs.append(f"golden-check report does not list every pinned file as OK: {lines[-1:]}")
    if len(certificates) != len(ok):
        errs.append(f"{len(certificates)} certificates computed, {len(ok)} reported")
    for fname, text in zip(ok, certificates):
        if text != (golden_dir / fname).read_text(encoding="utf-8"):
            errs.append(f"{fname}: recomputed certificate differs from the pinned bytes")
            continue
        cert = json.loads(text)
        # file names read gf<p>_<s>_<n>_<kind>.json
        gf, s, n, kind = fname[: -len(".json")].split("_", 3)
        inst = cert["instance"]
        if cert["theorem_id"] != _GOLDEN_KIND.get(kind) or \
                (inst["p"], inst["s"], inst["n"]) != (int(gf[2:]), int(s), int(n)):
            errs.append(f"{fname}: holds {cert['theorem_id']} {inst}")
        errs += check_certificate(cert)
    return errs


def check_certificate_output(stdout: str, exit_code: int, theorem_id: str, instance: dict) -> list[str]:
    cert = json.loads(stdout)
    errs = []
    if cert.get("theorem_id") != theorem_id:
        errs.append(f"theorem {cert.get('theorem_id')!r}, expected {theorem_id!r}")
    if any(cert.get("instance", {}).get(k) != v for k, v in instance.items()):
        errs.append(f"instance {cert.get('instance')}, expected {instance}")
    want_exit = _EXIT.get(cert.get("verdict"))
    if exit_code != want_exit:
        errs.append(f"exit code {exit_code} for verdict {cert.get('verdict')!r}")
    return errs + check_certificate(cert)


def check_search(stdout: str, exit_code: int, n: int, q: int) -> list[str]:
    """best_dim = n with n + 1 exhausted (dim <= n), and every nonzero
    combination of the symmetric witness has nonzero determinant mod q."""
    res = json.loads(stdout)
    errs = []
    if exit_code != 0:
        errs.append(f"search exited {exit_code}")
    if (res.get("target"), res.get("n"), res.get("q")) != ("mu", n, q):
        errs.append(f"searched {res.get('target')} n={res.get('n')} q={res.get('q')}")
    if res.get("best_dim") != n or res.get("dims_exhausted") != [n + 1] or res.get("verified") is not True:
        errs.append(f"best_dim {res.get('best_dim')}, exhausted {res.get('dims_exhausted')}, "
                    f"verified {res.get('verified')}; expected {n}, [{n + 1}], True")
    basis = res.get("witness_basis") or []
    f = PrimeField(q)
    if len(basis) != n:
        return errs + [f"witness has {len(basis)} members, expected {n}"]
    for m in basis:
        if any(len(row) != n for row in m) or len(m) != n or \
                any(m[a][b] != m[b][a] or not 0 <= m[a][b] < q for a in range(n) for b in range(n)):
            errs.append(f"witness member {m} is not a symmetric {n}x{n} matrix over GF({q})")
    if errs:
        return errs
    for coeffs in itertools.product(range(q), repeat=n):
        if not any(coeffs):
            continue
        comb = [[sum(c * m[a][b] for c, m in zip(coeffs, basis)) % q for b in range(n)] for a in range(n)]
        if eliminate(comb, f)[1] == 0:
            errs.append(f"combination {coeffs} of the witness is singular: {comb}")
    return errs


def check_output(workload: str, stdout: str, exit_code: int, certificates: list[str], root: Path) -> list[str]:
    """Every departure of one repeat's output from what the workload must print."""
    try:
        return _check_output(workload, stdout, exit_code, certificates, root)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed output ({exc!r})"]


def _check_output(workload, stdout, exit_code, certificates, root) -> list[str]:
    if workload == "golden":
        return check_golden(stdout, exit_code, certificates, root / "src" / "gsf" / "golden")
    if workload == "two-power":
        return check_certificate_output(stdout, exit_code, "a1-split-pow4", {"p": 11, "s": 1, "n": 32})
    if workload == "ext-field":
        return check_certificate_output(stdout, exit_code, "full-refinement", {"p": 7, "s": 3, "n": 4})
    if workload == "search":
        return check_search(stdout, exit_code, 3, 3)
    raise ValueError(f"unknown workload {workload!r}")


# -- seeded subsample, re-ranked here -----------------------------------------

SUBSAMPLE_PER_PIECE = 6


def subsample(workload: str, seed: int, towers: list) -> list[str]:
    """Re-rank a seeded subsample of the workload's forms by `eliminate`.

    two-power: forms of the first family with b drawn from each refinement
    piece; their rank must equal rank_many's, and be below n exactly when
    degenerate_by_norm holds.  ext-field: forms of every family with b drawn
    from L and from K, ranked over GF(7^3) arithmetic written here.
    """
    if workload not in ("two-power", "ext-field"):
        return []
    import numpy as np

    from gsf.exactla import eigenspace_of_power, rank_many
    from gsf.formspace import degenerate_by_norm, gram_matrix

    rng = random.Random(seed)
    tower = towers[-1]
    n, kf = tower.n, tower.K
    errs = []
    if workload == "two-power":
        field = PrimeField(kf.p)
        alpha, k = two_adic(n)
        pieces = [eigenspace_of_power(tower, k, 1), eigenspace_of_power(tower, k, -1)]
        pieces += [eigenspace_of_power(tower, n >> idx, -1) for idx in range(1, alpha)]
        params = []
        for piece in pieces:
            for _ in range(SUBSAMPLE_PER_PIECE):
                coeffs = _nonzero(rng, kf.q, piece.dim)
                params.append((1, np.asarray(coeffs, dtype=np.int64) @ piece.basis % kf.p))
    else:
        field = ExtField(kf.p, kf.s)
        if [int(c) for c in kf.modulus] != field.modulus:
            return [f"gsf's GF({kf.q}) modulus {list(kf.modulus)} is not {field.modulus}"]
        params = [(i, np.asarray(_nonzero(rng, kf.q, n), dtype=np.int64))
                  for i in range(n) for _ in range(SUBSAMPLE_PER_PIECE)]
        params += [(1, tower.scalar(rng.randrange(1, kf.q))) for _ in range(SUBSAMPLE_PER_PIECE)]
    seen = set()
    for i, b in params:
        g = gram_matrix(tower, b, i)
        theirs = int(rank_many(kf, g[None])[0])
        ours, _ = eliminate(g.tolist(), field)
        seen.add((i, ours))
        if theirs != ours:
            errs.append(f"b={b.tolist()} i={i}: rank_many gives {theirs}, elimination gives {ours}")
        if workload == "two-power" and degenerate_by_norm(tower, b, i) != (ours < n):
            errs.append(f"b={b.tolist()}: rank {ours} but degenerate_by_norm is {not ours < n}")
    if workload == "two-power" and {r for _, r in seen} != family_ranks(n, 1):
        errs.append(f"subsample ranks {sorted(seen)} do not show both ranks of the law")
    return errs


def _nonzero(rng: random.Random, q: int, d: int) -> list[int]:
    while True:
        c = [rng.randrange(q) for _ in range(d)]
        if any(c):
            return c
