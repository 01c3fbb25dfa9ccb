import json

import numpy as np
import pytest

from gsf.decomp import (
    Certificate,
    TheoremCParams,
    claim_ok,
    min_rank_lower_bound,
    refine_A1_2k,
    refine_A1_pow4,
    refine_Ai_mod2,
    theorem_c_case,
    verify_full_refined,
    verify_global,
    verify_rank_laws,
)
from gsf.exactla import eigenspace_of_power


def _claims_by_name(cert):
    return {c["subspace_name"]: c for c in cert.claims}


# -- global decomposition ---------------------------------------------------------


@pytest.mark.parametrize(
    "p,s,n,dims",
    [
        (3, 1, 5, {"A^0": 5, "A^1": 5, "A^2": 5, "Sym_K(L)": 15}),
        (3, 1, 4, {"B^1": 2, "A^0": 4, "A^1": 4, "Sym_K(L)": 10}),
        (3, 1, 2, {"B^1": 1, "A^0": 2, "Sym_K(L)": 3}),
        (5, 1, 3, {"A^0": 3, "A^1": 3, "Sym_K(L)": 6}),
    ],
)
def test_verify_global_instances(p, s, n, dims, tower):
    cert = verify_global(tower(p, s, n))
    assert cert.verdict == "pass" and cert.direct_sum_ok
    got = {c["subspace_name"]: c["observed_dim"] for c in cert.claims}
    assert got == dims


def test_verify_global_trivial_extension(tower):
    cert = verify_global(tower(3, 1, 1))
    assert cert.verdict == "pass"
    assert [c["observed_dim"] for c in cert.claims] == [1, 1]


def test_verify_global_piece_count_odd(tower):
    cert = verify_global(tower(3, 1, 7))
    names = [c["subspace_name"] for c in cert.claims]
    assert names == ["A^0", "A^1", "A^2", "A^3", "Sym_K(L)"]
    assert cert.verdict == "pass"


# -- rank laws -------------------------------------------------------------------


def test_rank_laws_gf27(tower):
    cert = verify_rank_laws(tower(3, 1, 3))
    assert cert.verdict == "pass"
    assert _claims_by_name(cert)["A^1"]["observed_rank_histogram"] == {3: 26}


def test_rank_laws_gf9_involution(tower):
    cert = verify_rank_laws(tower(3, 1, 2))
    assert cert.verdict == "pass"
    claims = _claims_by_name(cert)
    assert claims["A^1"]["observed_rank_histogram"] == {0: 2, 2: 6}
    assert claims["A^1"]["claimed_rank_counts"] == {0: 2}
    assert claims["A^1|E"]["observed_rank_histogram"] == {0: 2}


def test_rank_laws_gf81_both_even_ranks_occur(tower):
    cert = verify_rank_laws(tower(3, 1, 4))
    assert cert.verdict == "pass"
    hist = _claims_by_name(cert)["A^1"]["observed_rank_histogram"]
    assert set(hist) == {2, 4} and all(v > 0 for v in hist.values())


def test_rank_laws_gf3_6_order_table(tower):
    cert = verify_rank_laws(tower(3, 1, 6))
    claims = _claims_by_name(cert)
    assert set(claims["A^1"]["observed_rank_histogram"]) == {4, 6}  # order 6
    assert set(claims["A^2"]["observed_rank_histogram"]) == {6}  # order 3
    assert set(claims["A^3"]["observed_rank_histogram"]) == {0, 6}  # involution
    assert cert.verdict == "pass"


# -- U/V split for n = 2k --------------------------------------------------------


def test_refine_a1_2k_gf3_6(tower):
    cert = refine_A1_2k(tower(3, 1, 6))
    assert cert.verdict == "pass"
    claims = _claims_by_name(cert)
    assert claims["U_1"]["observed_dim"] == 3
    assert claims["V_1"]["observed_dim"] == 3
    assert claims["U_1"]["observed_rank_histogram"] == {6: 26}
    assert claims["V_1"]["observed_rank_histogram"] == {4: 26}


def test_refine_a1_2k_degenerate_edge_gf9(tower):
    cert = refine_A1_2k(tower(3, 1, 2))
    assert cert.verdict == "pass"
    claims = _claims_by_name(cert)
    assert claims["V_1"]["observed_rank_histogram"] == {0: 2}  # n - 2 = 0: the zero form


def test_refine_a1_2k_outside(tower):
    assert refine_A1_2k(tower(3, 1, 4)).verdict == "outside_hypotheses"
    assert refine_A1_2k(tower(3, 1, 5)).verdict == "outside_hypotheses"


def test_refine_a1_2k_norm_of_eigenvector_ratio(tower):
    # the canonical j satisfies N_{L/L_2}(sigma(j)/j) = -1
    t = tower(3, 1, 6)
    j = eigenspace_of_power(t, 1, -1).basis[0]
    ratio = t.div(t.frobenius_apply(1, j), j)
    minus_one = t.scalar(2)
    assert np.array_equal(t.norm_rel(2, ratio), minus_one)


# -- mod-4 == 2 split -------------------------------------------------------------


def test_refine_ai_mod2_gf3_6(tower):
    cert = refine_Ai_mod2(tower(3, 1, 6), 1)
    assert cert.verdict == "pass"
    claims = _claims_by_name(cert)
    assert claims["U_1"]["observed_dim"] == 3 and claims["U_1"]["observed_rank_histogram"] == {6: 26}
    assert claims["V_1"]["observed_dim"] == 3 and claims["V_1"]["observed_rank_histogram"] == {4: 26}


def test_refine_ai_mod2_outside_for_odd_order(tower):
    cert = refine_Ai_mod2(tower(3, 1, 6), 2)  # order 3
    assert cert.verdict == "outside_hypotheses"
    assert refine_Ai_mod2(tower(3, 1, 4), 2).verdict == "outside_hypotheses"  # involution
    assert refine_Ai_mod2(tower(3, 1, 4), 1).verdict == "outside_hypotheses"  # order 0 mod 4


def test_refine_ai_mod2_gf3_10_sampled(tower):
    t = tower(3, 1, 10)
    cert = refine_Ai_mod2(t, 1, mode="sampled", sample_count=600, seed=0)
    assert cert.verdict == "pass"
    claims = _claims_by_name(cert)
    # d = 10, so the degenerate pieces have rank n - 2n/d = 10 - 2 = 8
    assert claims["V_1"]["observed_rank_histogram"] == {8: 600}
    assert claims["U_1"]["observed_rank_histogram"] == {10: 600}


# -- two-power refinement ---------------------------------------------------------


def test_theorem_c_case_examples():
    assert theorem_c_case(TheoremCParams.from_qn(3, 4)) == "case1"
    assert theorem_c_case(TheoremCParams.from_qn(3, 32)) == "case2"
    assert theorem_c_case(TheoremCParams.from_qn(11, 32)) == "outside"
    assert theorem_c_case(TheoremCParams.from_qn(7, 16)) == "case1"  # a = 3, alpha = 4


def test_theorem_c_params_validation():
    with pytest.raises(ValueError):
        TheoremCParams.from_qn(5, 4)  # q = 1 mod 4
    with pytest.raises(ValueError):
        TheoremCParams.from_qn(3, 6)  # alpha = 1
    p = TheoremCParams.from_qn(11, 32)
    assert (p.a, p.l, p.alpha, p.k) == (2, 3, 5, 1)
    assert p.n == 32


def test_refine_a1_pow4_gf81(tower):
    cert = refine_A1_pow4(tower(3, 1, 4))
    assert cert.verdict == "pass" and cert.instance["case"] == "case1"
    claims = _claims_by_name(cert)
    assert claims["V_1"]["observed_dim"] == 1 and claims["V_1"]["observed_rank_histogram"] == {2: 2}
    assert claims["V_2"]["observed_rank_histogram"] == {2: 2}
    assert claims["E_1"]["observed_dim"] == 2 and claims["E_1"]["observed_rank_histogram"] == {4: 8}


def test_refine_a1_pow4_gf3_8(tower):
    cert = refine_A1_pow4(tower(3, 1, 8))
    assert cert.verdict == "pass" and cert.instance["case"] == "case1"
    claims = _claims_by_name(cert)
    assert claims["E_1"]["observed_dim"] == 4 and set(claims["E_1"]["observed_rank_histogram"]) == {8}
    assert claims["E_2"]["observed_dim"] == 2 and set(claims["E_2"]["observed_rank_histogram"]) == {8}
    assert claims["V_1"]["observed_rank_histogram"] == {6: 2}


def test_refine_a1_pow4_case1_boundary_gf7_16(tower):
    # q = 7: q + 1 = 2^3, and alpha = 4 = a + 1 sits right on the case-1 edge
    t = tower(7, 1, 16)
    cert = refine_A1_pow4(t, mode="sampled", sample_count=300, seed=0)
    assert cert.verdict == "pass" and cert.instance["case"] == "case1"
    claims = _claims_by_name(cert)
    assert claims["E_1"]["observed_dim"] == 8 and claims["E_1"]["observed_rank_histogram"] == {16: 300}
    assert claims["E_3"]["observed_rank_histogram"] == {16: 300}
    assert claims["V_1"]["observed_rank_histogram"] == {14: 300}


def test_rank_laws_sampled_mode_skips_count_pinning(tower):
    cert = verify_rank_laws(tower(3, 1, 4), mode="sampled", sample_count=200, seed=3)
    claims = _claims_by_name(cert)
    assert "claimed_rank_counts" not in claims["A^2"] or claims["A^2"]["claimed_rank_counts"] is None
    assert cert.enumeration == {"mode": "sampled", "count": 200, "seed": 3}


def test_refine_a1_pow4_rejects_one_mod_four(tower):
    with pytest.raises(ValueError):
        refine_A1_pow4(tower(5, 1, 4))


def test_refine_a1_pow4_outside_alpha(tower):
    assert refine_A1_pow4(tower(3, 1, 6)).verdict == "outside_hypotheses"


# -- full refinement --------------------------------------------------------------


def test_full_refined_gf9_minimal(tower):
    cert = verify_full_refined(tower(3, 1, 2))
    assert cert.verdict == "pass"
    names = [c["subspace_name"] for c in cert.claims]
    assert names == ["B^1", "A^0", "Sym_K(L)"]


def test_full_refined_gf3_6_pieces(tower):
    cert = verify_full_refined(tower(3, 1, 6))
    assert cert.verdict == "pass"
    claims = _claims_by_name(cert)
    assert set(claims) == {"B^1", "A^0", "U_1", "V_1", "A^2", "Sym_K(L)"}
    assert claims["A^2"]["observed_rank_histogram"] == {6: 728}  # odd order: whole family
    assert claims["B^1"]["observed_rank_histogram"] == {6: 26}
    assert claims["U_1"]["observed_rank_histogram"] == {6: 26}
    assert claims["V_1"]["observed_rank_histogram"] == {4: 26}


def test_full_refined_gf81_composition(tower):
    cert = verify_full_refined(tower(3, 1, 4))
    assert cert.verdict == "pass"
    claims = _claims_by_name(cert)
    assert set(claims) == {"B^1", "A^0", "V_1^1", "V_2^1", "E_1^1", "Sym_K(L)"}
    assert claims["E_1^1"]["observed_rank_histogram"] == {4: 8}
    assert claims["V_1^1"]["claimed_ranks"] == [2]


def test_full_refined_relative_gate_gf3_8(tower):
    cert = verify_full_refined(tower(3, 1, 8))
    assert cert.verdict == "pass"
    claims = _claims_by_name(cert)
    # i = 2 sits over GF(9), where -1 is a square: histograms recorded, no claims
    assert claims["E_1^2"]["claimed_ranks"] is None
    assert claims["E_1^2"]["observed_rank_histogram"]  # still measured
    # i = 1 and i = 3 sit over GF(3): fully claimed
    assert claims["E_1^1"]["claimed_ranks"] == [8]
    assert claims["E_1^3"]["claimed_ranks"] == [8]


def test_full_refined_rejects_odd(tower):
    with pytest.raises(ValueError):
        verify_full_refined(tower(3, 1, 5))


# -- minimum rank over summed families --------------------------------------------


def test_min_rank_gf81_k1(tower):
    cert = min_rank_lower_bound(tower(3, 1, 4), 1)
    assert cert.verdict == "pass"
    claim = cert.claims[0]
    assert claim["claimed_min_rank"] == 2 and claim["observed_min_rank"] == 2


def test_min_rank_gf3_5_k2(tower):
    cert = min_rank_lower_bound(tower(3, 1, 5), 2)
    assert cert.verdict == "pass"
    claim = cert.claims[0]
    assert claim["claimed_min_rank"] == 1
    assert claim["observed_min_rank"] >= 1
    assert sum(claim["observed_rank_histogram"].values()) == 3**10 - 1


def test_min_rank_kk_range(tower):
    with pytest.raises(ValueError):
        min_rank_lower_bound(tower(3, 1, 4), 2)
    with pytest.raises(ValueError):
        min_rank_lower_bound(tower(3, 1, 4), 0)


# -- certificate mechanics ---------------------------------------------------------


def test_claim_ok_semantics():
    assert claim_ok({"claimed_dim": 3, "observed_dim": 3})
    assert not claim_ok({"claimed_dim": 3, "observed_dim": 2})
    assert claim_ok({"claimed_ranks": [2, 4], "observed_rank_histogram": {2: 5, 4: 7}})
    assert not claim_ok({"claimed_ranks": [4], "observed_rank_histogram": {2: 5, 4: 7}})
    assert not claim_ok({"claimed_ranks": [2, 4], "observed_rank_histogram": {4: 7}})  # both must occur
    assert claim_ok({"claimed_min_rank": 2, "observed_rank_histogram": {3: 1}})
    assert not claim_ok({"claimed_min_rank": 2, "observed_rank_histogram": {1: 1, 3: 1}})
    assert not claim_ok({"claimed_rank_counts": {0: 2}, "observed_rank_histogram": {0: 3, 4: 1}})


def test_certificate_json_is_canonical(tower):
    cert = verify_global(tower(3, 1, 4))
    text = cert.to_json()
    assert text == verify_global(tower(3, 1, 4)).to_json()
    parsed = json.loads(text)
    assert parsed["verdict"] == "pass"
    assert text.endswith("\n")
    # histogram keys serialize as strings
    rl = verify_rank_laws(tower(3, 1, 2))
    parsed = json.loads(rl.to_json())
    hists = [c["observed_rank_histogram"] for c in parsed["claims"]]
    assert all(all(isinstance(k, str) for k in h) for h in hists if h)


def test_certificates_worker_invariant(tower):
    t = tower(3, 1, 4)
    a = verify_rank_laws(t, workers=1).to_json()
    b = verify_rank_laws(t, workers=8).to_json()
    assert a == b


def test_certificates_deterministic_across_reruns(tower):
    t = tower(3, 1, 6)
    a = verify_full_refined(t, mode="sampled", sample_count=300, seed=1).to_json()
    b = verify_full_refined(t, mode="sampled", sample_count=300, seed=1).to_json()
    assert a == b


def test_verdict_matches_claim_audit(tower):
    for cert in (verify_global(tower(3, 1, 4)), verify_rank_laws(tower(3, 1, 3))):
        expected = "pass" if cert.direct_sum_ok and all(claim_ok(c) for c in cert.claims) else "fail"
        assert cert.verdict == expected


@pytest.mark.parametrize("p,n", [(3, 6), (3, 8), (7, 4), (3, 10)])
def test_refiners_match_the_full_refinement(p, n, tower):
    t = tower(p, 1, n)
    full = _claims_by_name(verify_full_refined(t))
    refined = [refine_A1_2k(t) if n % 4 == 2 else refine_A1_pow4(t)]
    refined += [refine_Ai_mod2(t, i) for i in range(1, n // 2) if t.sigma_order(i) % 4 == 2]
    for cert in refined:
        assert cert.verdict == "pass" and cert.claims
        for claim in cert.claims:
            name = claim["subspace_name"]
            twin = full[name] if name in full else full[name + "^1"]
            if name.startswith("E_"):
                # only a1-split-pow4 claims the E dimensions
                assert twin["claimed_dim"] is None
                assert claim["claimed_dim"] == claim["observed_dim"] == n >> int(name[2:])
                claim = dict(claim, claimed_dim=None)
            assert claim == dict(twin, subspace_name=name)
