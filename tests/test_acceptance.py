"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single pass line (visible with `pytest -s`); a failing
assertion is the fail line.  Stated runtime ceilings are asserted with
wall-clock measurements.
"""

import time

import numpy as np
import pytest

from gsf.cli import golden_check
from gsf.decomp import (
    Run,
    min_rank_lower_bound,
    refine_A1_2k,
    refine_A1_pow4,
    verify_global,
    verify_rank_laws,
)
from gsf.exactla import LSubspace, rank_many
from gsf.extremal import (
    construct_regular_rep_subspace,
    construct_symmetric_witness,
    exhaustive_search,
    real_mu_interval,
    rho,
)
from gsf.ffield import FieldTower, is_prime
from gsf.formspace import degenerate_by_norm, family, gram_basis, rank_profile


def _report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def small_towers(tower, max_size=3**6, min_n=2):
    """Every tower with q**n <= max_size, q an odd prime power, n >= min_n."""
    out = []
    for p in range(3, max_size + 1, 2):
        if not is_prime(p):
            continue
        s = 1
        while p**s * p**s <= max_size or (min_n == 1 and p**s <= max_size):
            q = p**s
            n = min_n
            while q**n <= max_size:
                out.append(tower(p, s, n))
                n += 1
            s += 1
        if p * p > max_size:
            break
    return out


def test_criterion_01_global_decomposition_odd_degree(tower):
    for p, n in [(3, 5), (5, 3)]:
        t0 = time.perf_counter()
        cert = verify_global(tower(p, 1, n))
        elapsed = time.perf_counter() - t0
        assert cert.verdict == "pass" and cert.direct_sum_ok
        dims = [c["observed_dim"] for c in cert.claims[:-1]]
        assert dims == [n] * ((n + 1) // 2)
        assert cert.claims[-1]["observed_dim"] == n * (n + 1) // 2
        assert elapsed < 1.0, f"criterion 1 instance ({p},1,{n}) took {elapsed:.2f}s"
    _report(1, "odd-degree global decomposition on GF(3^5) and GF(5^3), dims n summing to n(n+1)/2")


def test_criterion_02_rank_dichotomy_exhaustive(tower):
    t = tower(3, 1, 4)
    t0 = time.perf_counter()
    prof = rank_profile(t, LSubspace.full(t.K, 4), 1, Run(mode="exhaustive"))
    elapsed = time.perf_counter() - t0
    assert prof.total == 80
    assert set(prof.histogram) == {2, 4}
    assert prof.histogram[2] > 0 and prof.histogram[4] > 0
    assert elapsed < 1.0
    _report(2, f"GF(3^4) twist-1 histogram over 80 forms is {prof.histogram}, exactly ranks 2 and 4")


def test_criterion_03_norm_rank_oracle_equivalence(tower):
    t0 = time.perf_counter()
    pairs = 0
    for t in small_towers(tower):
        n, kf = t.n, t.K
        vecs = None
        for i in range(1, n):
            if t.sigma_order(i) <= 2:
                continue
            if vecs is None:
                vecs = t.element_vectors()[1:]
            grams = gram_basis(t, i)
            if kf.s == 1:
                mats = np.einsum("vt,tjk->vjk", vecs, grams) % kf.p
            else:
                mats = np.zeros((len(vecs), n, n), dtype=np.int64)
                for col in range(n):
                    mats = kf.add(mats, kf.mul(vecs[:, col, None, None], grams[col][None]))
            ranks = rank_many(kf, mats)
            for v, r in zip(vecs, ranks):
                assert degenerate_by_norm(t, v, i) == (r < n), (t, i, v)
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs > 7000
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    _report(3, f"norm and rank degeneracy oracles agree on {pairs} (b, i) pairs across all towers up to 3^6")


def test_criterion_04_uv_refinement_gf3_6(tower):
    t0 = time.perf_counter()
    cert = refine_A1_2k(tower(3, 1, 6))
    elapsed = time.perf_counter() - t0
    assert cert.verdict == "pass"
    by_name = {c["subspace_name"]: c for c in cert.claims}
    assert by_name["U_1"]["observed_dim"] == 3 and by_name["U_1"]["observed_rank_histogram"] == {6: 26}
    assert by_name["V_1"]["observed_dim"] == 3 and by_name["V_1"]["observed_rank_histogram"] == {4: 26}
    assert elapsed < 1.0
    _report(4, "GF(3^6) split: U gives 26 forms of rank 6, V gives 26 forms of rank 4")


def test_criterion_05_theorem_c_case1(tower):
    t0 = time.perf_counter()
    for n, total in [(4, 80), (8, 6560)]:
        cert = refine_A1_pow4(tower(3, 1, n))
        assert cert.verdict == "pass" and cert.instance["case"] == "case1"
        assert cert.direct_sum_ok
        assert cert.enumeration == {"mode": "exhaustive"}
        for c in cert.claims:
            hist = c["observed_rank_histogram"]
            if c["subspace_name"].startswith("E_"):
                assert set(hist) == {n}
            else:
                assert set(hist) == {n - 2}
        whole = rank_profile(tower(3, 1, n), LSubspace.full(tower(3, 1, n).K, n), 1, Run(mode="exhaustive"))
        assert whole.total == total
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.1f}s"
    _report(5, "case-1 eigenspace refinement exhaustive on GF(3^4) (80 forms) and GF(3^8) (6560 forms)")


def test_criterion_06_outside_hypotheses_telemetry():
    t0 = time.perf_counter()
    t = FieldTower(11, 1, 32)
    cert = refine_A1_pow4(t, Run(mode="sampled", sample_count=10_000, seed=0))
    elapsed = time.perf_counter() - t0
    assert cert.verdict == "outside_hypotheses"
    assert cert.instance["case"] == "outside" and cert.instance["a"] == 2
    by_name = {c["subspace_name"]: c for c in cert.claims}
    for name, c in by_name.items():
        assert c["claimed_ranks"] is None  # nothing asserted
        assert c["enumeration"]["mode"] == "sampled" and c["enumeration"]["count"] == 10_000
    mixed = [name for name in ("E_3", "E_4") if len(by_name[name]["observed_rank_histogram"]) >= 2]
    assert mixed == ["E_3", "E_4"]  # pieces beyond a = 2 show mixed ranks
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    _report(6, f"GF(11^32) classified outside; sampled pieces E_3, E_4 show mixed ranks in {elapsed:.1f}s")


def test_criterion_07_dimension_theorem(tower):
    t0 = time.perf_counter()
    checked = 0
    for q in (3, 5, 7):
        for n in range(1, 9):
            t = tower(q, 1, n)
            fams = [family(t, i) for i in range(n)]
            for i in range(n):
                expect = n // 2 if t.sigma_order(i) == 2 else n
                assert fams[i].dim == expect, (q, n, i)
                assert fams[i] == fams[(n - i) % n]
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.1f}s"
    _report(7, f"dimension law and inverse-pair equality over {checked} families, q in {{3,5,7}}, n <= 8")


def test_criterion_08_extremal_witnesses(tower):
    t0 = time.perf_counter()
    towers = small_towers(tower)
    for t in towers:
        reg = construct_regular_rep_subspace(t)
        sym = construct_symmetric_witness(t)
        assert reg.best_dim == t.n and reg.verified, t
        assert sym.best_dim == t.n and sym.verified, t
    search = exhaustive_search("tau", 2, 3)
    assert search.best_dim == 2 and 3 in search.dims_exhausted
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s"
    _report(8, f"regular-rep and trace-form witnesses fully verified on {len(towers)} towers; no 3-dim subspace at n=2, q=3")


def test_criterion_09_min_rank_bound(tower):
    t0 = time.perf_counter()
    c1 = min_rank_lower_bound(tower(3, 1, 4), 1)
    c2 = min_rank_lower_bound(tower(3, 1, 5), 2)
    elapsed = time.perf_counter() - t0
    assert c1.verdict == "pass" and c1.claims[0]["observed_min_rank"] >= 2
    assert c2.verdict == "pass" and c2.claims[0]["observed_min_rank"] >= 1
    assert sum(c2.claims[0]["observed_rank_histogram"].values()) == 3**10 - 1
    assert elapsed < 60.0, f"criterion 9 took {elapsed:.1f}s"
    _report(9, f"minimum ranks {c1.claims[0]['observed_min_rank']} (GF(3^4), kk=1) and "
               f"{c2.claims[0]['observed_min_rank']} (GF(3^5), kk=2) meet the n-2k bound")


def test_criterion_10_formula_calculators():
    t0 = time.perf_counter()
    spot = {1: 1, 2: 2, 4: 4, 8: 8, 16: 9, 32: 10, 64: 12}
    for n in range(1, 65):
        e, odd = 0, n
        while odd % 2 == 0:
            odd //= 2
            e += 1
        assert rho(n) == 2 ** (e % 4) + 8 * (e // 4)
    for n, want in spot.items():
        assert rho(n) == want
    assert real_mu_interval(2) == (1, 2)
    assert real_mu_interval(4) == (2, 4)
    assert real_mu_interval(8) == (4, 8)
    assert real_mu_interval(16) == (8, 8)
    assert real_mu_interval(7) == (1, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(10, "rho(1..64) matches the closed form, spot set included; interval table as printed")


def test_criterion_11_determinism(tower):
    code, report = golden_check()
    assert code == 0, report
    for n in (4, 8):
        t = tower(3, 1, n)
        one = refine_A1_pow4(t, Run(workers=1)).to_json()
        eight = refine_A1_pow4(t, Run(workers=8)).to_json()
        assert one == eight
    _report(11, "golden corpus byte-identical after recompute; 1-worker and 8-worker certificates agree")
