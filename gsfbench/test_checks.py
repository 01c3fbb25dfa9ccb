"""Each output check accepts gsf's real output and rejects a corrupted one.

    python3 -m pytest gsfbench

Certificates come from the pinned corpus; nothing here runs a workload.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import checks

GOLDEN = Path(__file__).resolve().parent.parent / "src" / "gsf" / "golden"

# a symmetric 3-dimensional invertible-closed subspace of S(3, GF(3))
WITNESS = [
    [[1, 0, 0], [0, 0, 1], [0, 1, 1]],
    [[0, 1, 0], [1, 2, 0], [0, 0, 1]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
]


def pinned(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def claim(cert: dict, name: str) -> dict:
    return next(c for c in cert["claims"] if c["subspace_name"] == name)


def search_output(basis) -> str:
    return json.dumps({"target": "mu", "n": 3, "q": 3, "best_dim": 3, "dims_exhausted": [4],
                       "verified": True, "mode": {"mode": "exhaustive"}, "witness_basis": basis})


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_pinned_corpus_obeys_the_laws(path):
    assert checks.check_certificate(json.loads(path.read_text(encoding="utf-8"))) == []


def test_rank_outside_the_law_is_rejected():
    cert = pinned("gf3_1_8_rank-laws.json")
    hist = claim(cert, "A^2")["observed_rank_histogram"]  # order 4: ranks {4, 8}
    hist["5"] = hist.pop("4")
    assert any("outside the law" in e for e in checks.check_certificate(cert))


def test_rank_outside_the_law_is_rejected_in_a_sampled_outside_case():
    dims = {"V_1": 1, "V_2": 1, "E_1": 16, "E_2": 8, "E_3": 4, "E_4": 2}
    cert = {
        "theorem_id": "a1-split-pow4",
        "instance": {"p": 11, "s": 1, "n": 32, "i": 1, "q": 11, "a": 2, "l": 3, "alpha": 5, "k": 1,
                     "case": "outside"},
        "claims": [{"subspace_name": name, "claimed_dim": dim, "observed_dim": dim, "claimed_ranks": None,
                    "observed_rank_histogram": {"30": 10, "32": 990},
                    "enumeration": {"mode": "sampled", "count": 1000, "seed": 0}}
                   for name, dim in dims.items()],
        "direct_sum_ok": True,
        "verdict": "outside_hypotheses",
        "enumeration": {"mode": "sampled", "count": 1000, "seed": 0},
    }
    assert checks.check_certificate(cert) == []
    claim(cert, "E_1")["observed_rank_histogram"] = {"31": 1, "32": 999}
    assert any("outside the law" in e for e in checks.check_certificate(cert))
    cert["instance"]["case"] = "case2"
    assert any("case" in e for e in checks.check_certificate(cert))


def test_missing_law_rank_in_an_exhaustive_census_is_rejected():
    cert = pinned("gf3_1_8_rank-laws.json")
    hist = claim(cert, "A^2")["observed_rank_histogram"]
    hist["8"] += hist.pop("4")
    assert any("the paper gives" in e for e in checks.check_certificate(cert))


def test_wrong_histogram_total_is_rejected():
    cert = pinned("gf7_1_4_full-refined.json")
    hist = claim(cert, "B^1")["observed_rank_histogram"]
    hist["4"] += 1
    assert any("an exhaustive census has" in e for e in checks.check_certificate(cert))


def test_wrong_sampled_total_is_rejected():
    cert = pinned("gf7_1_4_full-refined.json")
    c = claim(cert, "A^0")
    c["enumeration"] = {"mode": "sampled", "count": 100, "seed": 0}
    c["observed_rank_histogram"] = {"4": 99}
    assert any("were sampled" in e for e in checks.check_certificate(cert))


def test_wrong_zero_count_of_the_involution_is_rejected():
    cert = pinned("gf3_1_4_rank-laws.json")
    hist = claim(cert, "A^2")["observed_rank_histogram"]
    hist["0"] -= 1
    hist["4"] += 1
    assert any("zero forms" in e for e in checks.check_certificate(cert))


def test_global_dimensions_must_add_up():
    cert = pinned("gf3_1_5_global.json")
    claim(cert, "A^1")["observed_dim"] = 4
    assert any("add up to" in e for e in checks.check_certificate(cert))


def test_min_rank_below_the_bound_is_rejected():
    cert = pinned("gf3_1_6_min-rank-1.json")
    c = claim(cert, "sum(A^1..A^1)")
    hist = c["observed_rank_histogram"]
    low = min(hist, key=int)
    hist[str(int(low) - 1)] = hist.pop(low)
    assert any("outside [4, 6]" in e for e in checks.check_certificate(cert))


def test_wrong_verdict_is_rejected():
    cert = pinned("gf3_1_6_a1-2k.json")
    cert["verdict"] = "fail"
    assert any("verdict" in e for e in checks.check_certificate(cert))


def test_golden_bytes_must_match_the_pinned_corpus():
    names = sorted(p.name for p in GOLDEN.glob("*.json"))
    report = "".join(f"OK {n}\n" for n in names) + f"{len(names)}/{len(names)} certificates match\n"
    texts = [(GOLDEN / n).read_text(encoding="utf-8") for n in names]
    assert checks.check_golden(report, 0, texts, GOLDEN) == []
    texts[3] = texts[3].replace('"verdict": "pass"', '"verdict": "fail"')
    assert any("differs from the pinned bytes" in e for e in checks.check_golden(report, 0, texts, GOLDEN))
    short = report.replace(f"OK {names[0]}\n", f"DIFF {names[0]} (first differing line 3)\n")
    assert checks.check_golden(short, 2, texts, GOLDEN) != []


def test_search_witness_is_accepted():
    assert checks.check_search(search_output(WITNESS), 0, 3, 3) == []


def test_witness_with_a_singular_member_is_rejected():
    bad = copy.deepcopy(WITNESS)
    bad[2] = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    errs = checks.check_search(search_output(bad), 0, 3, 3)
    assert any("is singular" in e for e in errs)


def test_witness_with_a_dependent_member_is_rejected():
    bad = copy.deepcopy(WITNESS)
    bad[2] = [[(2 * x) % 3 for x in row] for row in WITNESS[0]]
    assert any("is singular" in e for e in checks.check_search(search_output(bad), 0, 3, 3))


def test_asymmetric_witness_is_rejected():
    bad = copy.deepcopy(WITNESS)
    bad[0][0][1] = 1
    assert any("not a symmetric" in e for e in checks.check_search(search_output(bad), 0, 3, 3))


def test_search_must_reach_the_bound_n():
    out = json.loads(search_output(WITNESS[:2]))
    out["best_dim"] = 2
    assert checks.check_search(json.dumps(out), 0, 3, 3) != []


def test_gf343_arithmetic():
    f = checks.ExtField(7, 3)
    assert f.modulus == [2, 0, 0, 1]
    assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, f.q))
    assert all(f.sub(f.mul(a, 5), f.mul(5, a)) == 0 for a in range(f.q))


def test_eliminate_rank_and_determinant():
    f = checks.PrimeField(11)
    assert checks.eliminate([[1, 2], [2, 4]], f) == (1, 0)
    assert checks.eliminate([[0, 1], [1, 0]], f) == (2, 10)
    assert checks.eliminate([[2, 0, 0], [0, 3, 0], [0, 0, 4]], f) == (3, 24 % 11)


def test_malformed_output_is_reported_not_raised():
    assert checks.check_output("search", "no json here", 0, [], GOLDEN) != []
    assert checks.check_output("two-power", '{"theorem_id": "a1-split-pow4"}', 3, [], GOLDEN) != []
