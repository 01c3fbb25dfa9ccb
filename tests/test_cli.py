import hashlib
import json
import shutil
import tracemalloc

import pytest

from gsf.cli import default_golden_dir, golden_entries, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "3", "--n", "5")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "pass"
    assert cert["theorem_id"] == "global-decomposition"


def test_rho_output_shape(capsys):
    code, out, _ = run(capsys, "rho", "--n", "16")
    assert code == 0
    assert json.loads(out) == {"rho": 9}


def test_real_mu_output(capsys):
    code, out, _ = run(capsys, "real-mu", "--n", "8")
    assert code == 0
    assert json.loads(out) == {"n": 8, "mu_interval": [4, 8]}


def test_tower_output(capsys):
    code, out, _ = run(capsys, "tower", "--p", "3", "--n", "2")
    assert code == 0
    d = json.loads(out)
    assert d == {"p": 3, "s": 1, "n": 2, "q": 3, "base_poly": [0, 1], "ext_poly": [1, 0, 1]}


def test_form_output_and_rank(capsys):
    code, out, _ = run(capsys, "form", "--p", "3", "--n", "2", "--b", "1,0", "--i", "1")
    assert code == 0
    d = json.loads(out)
    assert d["gram"] == [[1, 0], [0, 1]] and d["rank"] == 2


def test_family_output(capsys):
    code, out, _ = run(capsys, "family", "--p", "3", "--n", "4", "--i", "2")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 2 and d["param_kernel_dim"] == 2


def test_rank_laws_exit_zero(capsys):
    code, out, _ = run(capsys, "rank-laws", "--p", "3", "--n", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_refine_dispatch_2k(capsys):
    code, out, _ = run(capsys, "refine", "--p", "3", "--n", "6", "--i", "1")
    assert code == 0
    assert json.loads(out)["theorem_id"] == "a1-split-2k"


def test_refine_dispatch_pow4(capsys):
    code, out, _ = run(capsys, "refine", "--p", "3", "--n", "4", "--i", "1")
    assert code == 0
    assert json.loads(out)["theorem_id"] == "a1-split-pow4"


def test_refine_dispatch_mod2_outside_exit_three(capsys):
    code, out, _ = run(capsys, "refine", "--p", "3", "--n", "6", "--i", "2")
    assert code == 3
    assert json.loads(out)["verdict"] == "outside_hypotheses"


def test_refine_full(capsys):
    code, out, _ = run(capsys, "refine", "--p", "3", "--n", "4", "--full")
    assert code == 0
    assert json.loads(out)["theorem_id"] == "full-refinement"


def test_refine_full_odd_usage_error(capsys):
    code, _, err = run(capsys, "refine", "--p", "3", "--n", "5", "--full")
    assert code == 1 and "usage error" in err


def test_refine_requires_i_or_full(capsys):
    code, _, err = run(capsys, "refine", "--p", "3", "--n", "6")
    assert code == 1 and "usage error" in err


def test_theorem_c_outside_exit_three(capsys):
    code, out, _ = run(
        capsys, "theorem-c", "--q", "11", "--n", "32",
        "--mode", "sampled", "--seed", "0", "--sample-count", "200",
    )
    assert code == 3
    cert = json.loads(out)
    assert cert["instance"]["case"] == "outside"
    assert cert["verdict"] == "outside_hypotheses"


def test_theorem_c_case1_pass(capsys):
    code, out, _ = run(capsys, "theorem-c", "--q", "3", "--n", "4")
    assert code == 0
    assert json.loads(out)["instance"]["case"] == "case1"


def test_theorem_c_prime_power_base(capsys):
    # q = 27 factors as 3^3 and is 3 mod 4; runs over the table field GF(27)
    code, out, _ = run(capsys, "theorem-c", "--q", "27", "--n", "4")
    assert code == 0
    cert = json.loads(out)
    assert cert["instance"]["s"] == 3 and cert["instance"]["case"] == "case1"


def test_theorem_c_rejects_one_mod_four(capsys):
    code, _, err = run(capsys, "theorem-c", "--q", "5", "--n", "4")
    assert code == 1 and "usage error" in err


def test_min_rank_cli(capsys):
    code, out, _ = run(capsys, "min-rank", "--p", "3", "--n", "4", "--k", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_search_exhaustive_cli(capsys):
    code, out, _ = run(capsys, "search", "--target", "tau", "--n", "2", "--q", "3")
    assert code == 0
    d = json.loads(out)
    assert d["best_dim"] == 2 and 3 in d["dims_exhausted"]


def test_search_greedy_cli(capsys):
    code, out, _ = run(capsys, "search", "--target", "mu", "--n", "4", "--q", "3",
                       "--method", "greedy", "--seed", "0")
    assert code == 0
    assert json.loads(out)["best_dim"] == 4


def test_block_cli(capsys):
    code, out, _ = run(capsys, "block", "--p", "3", "--n", "4")
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 4 and d["best_dim"] == 2 and d["verified"]


def test_block_over_budget_names_the_budget(capsys):
    # the GF(3^6) witness has 3^6 - 1 = 728 nonzero members: refused before any census
    code, out, err = run(capsys, "block", "--p", "3", "--n", "12", "--budget", "100")
    assert code == 1 and out == ""
    assert err == ("budget exceeded: exhaustive enumeration needs 728 forms, over the budget of 100; "
                   "rerun in sampled mode or raise the budget\n")


@pytest.mark.parametrize("argv,digest", [
    (("--p", "3", "--n", "4"), "d3c62e1529c379907535980330dd0f52ae70a879e82057b1278bfce8decc50d0"),
    (("--p", "3", "--s", "2", "--n", "4"), "9f9f5f92b5ab86af0d16dee9f04a54a2bf86ba312e5e05d23707788baf088200"),
    (("--p", "3", "--n", "6"), "d65c0d2e4e2f9677254de8f4ffe0d588fd3adfa7c1d489720deb03d3383933fd"),
])
def test_block_stdout_pinned(capsys, argv, digest):
    # within the budget the witness census is exhaustive, as `auto` chose it
    code, out, err = run(capsys, "block", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_malformed_element_distinct_message(capsys):
    code, _, err = run(capsys, "form", "--p", "3", "--n", "2", "--b", "1,x", "--i", "1")
    assert code == 1 and "malformed element encoding" in err
    code, _, err = run(capsys, "form", "--p", "3", "--n", "2", "--b", "1,2,1", "--i", "1")
    assert code == 1 and "malformed element encoding" in err


def test_unknown_flag_usage_error(capsys):
    code, _, err = run(capsys, "rho", "--n", "4", "--frobnicate")
    assert code == 1 and "usage error" in err


def test_unknown_command_usage_error(capsys):
    code, _, err = run(capsys, "transmogrify")
    assert code == 1 and "usage error" in err


def test_nonpositive_budget_usage_error(capsys):
    code, _, err = run(capsys, "rank-laws", "--p", "3", "--n", "3", "--budget", "0")
    assert code == 1 and "budget must be positive" in err


def test_budget_exceeded_distinct_message(capsys):
    code, _, err = run(capsys, "rank-laws", "--p", "3", "--n", "6",
                       "--mode", "exhaustive", "--budget", "10")
    assert code == 1 and "budget exceeded" in err


def test_sampled_mode_requires_seed(capsys):
    code, _, err = run(capsys, "rank-laws", "--p", "3", "--n", "3", "--mode", "sampled")
    assert code == 1 and "requires --seed" in err


def test_output_to_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "decompose", "--p", "3", "--n", "3", "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["verdict"] == "pass"


def test_table_format(capsys):
    code, out, _ = run(capsys, "rank-laws", "--p", "3", "--n", "2", "--format", "table")
    assert code == 0
    assert "verdict: pass" in out and "A^1" in out


def test_workers_flag_gives_identical_bytes(capsys):
    _, out1, _ = run(capsys, "rank-laws", "--p", "3", "--n", "4", "--workers", "1")
    _, out8, _ = run(capsys, "rank-laws", "--p", "3", "--n", "4", "--workers", "8")
    assert out1 == out8


# -- golden corpus ----------------------------------------------------------------


def test_golden_check_packaged_corpus(capsys):
    code, out, _ = run(capsys, "golden-check")
    assert code == 0
    assert "certificates match" in out and "DIFF" not in out


def test_golden_check_corrupted_file(tmp_path, capsys):
    src = default_golden_dir()
    dst = tmp_path / "golden"
    shutil.copytree(src, dst)
    victim = dst / "gf3_1_4_global.json"
    victim.write_text(victim.read_text().replace('"pass"', '"fail"'))
    code, out, _ = run(capsys, "golden-check", "--golden-dir", str(dst))
    assert code == 2
    assert "DIFF gf3_1_4_global.json" in out


def test_golden_check_missing_file(tmp_path, capsys):
    src = default_golden_dir()
    dst = tmp_path / "golden"
    shutil.copytree(src, dst)
    (dst / "gf3_1_2_global.json").unlink()
    code, out, _ = run(capsys, "golden-check", "--golden-dir", str(dst))
    assert code == 2 and "MISSING gf3_1_2_global.json" in out


def test_golden_check_empty_dir_usage_error(tmp_path, capsys):
    empty = tmp_path / "golden"
    empty.mkdir()
    code, _, err = run(capsys, "golden-check", "--golden-dir", str(empty))
    assert code == 1 and "usage error" in err


def test_golden_check_missing_dir_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "golden-check", "--golden-dir", str(tmp_path / "nope"))
    assert code == 1 and "usage error" in err


def test_golden_write_then_check_roundtrip(tmp_path, capsys):
    dst = tmp_path / "fresh"
    code, out, _ = run(capsys, "golden-check", "--golden-dir", str(dst), "--write")
    assert code == 0 and out.count("WROTE") == len(golden_entries())
    code, out, _ = run(capsys, "golden-check", "--golden-dir", str(dst))
    assert code == 0


def test_gsf_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GSF_BUDGET", "10")
    code, _, err = run(capsys, "rank-laws", "--p", "3", "--n", "6", "--mode", "exhaustive")
    assert code == 1 and "budget exceeded" in err
    monkeypatch.setenv("GSF_BUDGET", "junk")
    code, _, err = run(capsys, "rank-laws", "--p", "3", "--n", "3")
    assert code == 1 and "GSF_BUDGET" in err


def test_internal_check_failure_exit_four(capsys, monkeypatch):
    import gsf.extremal

    def broken(*args, **kwargs):
        raise AssertionError("exhaustive verification found a singular member of a field-derived witness")

    monkeypatch.setattr(gsf.extremal, "_verify_witness", broken)
    code, out, err = run(capsys, "block", "--p", "3", "--n", "4")
    assert code == 4 and out == ""
    assert err.startswith("internal check failed: exhaustive verification found a singular member")
    assert "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-5"])
def test_nonpositive_sample_count_usage_error(capsys, count):
    code, out, err = run(capsys, "rank-laws", "--p", "3", "--n", "4", "--mode", "sampled",
                         "--seed", "0", "--sample-count", count)
    assert code == 1 and out == ""
    assert "sample count must be >= 1" in err


def test_parser_flag_sets_and_search_defaults():
    import argparse

    from gsf.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def flags(name):
        return sorted(o for a in sub.choices[name]._actions for o in a.option_strings if o.startswith("--"))

    assert flags("rho") == flags("real-mu") == ["--format", "--help", "--n", "--output"]
    assert flags("search") == ["--budget", "--format", "--help", "--method", "--n", "--output", "--q",
                               "--restarts", "--seed", "--target"]
    args = sub.choices["search"].parse_args(["--target", "mu", "--n", "3", "--q", "3"])
    assert (args.seed, args.budget, args.output_path, args.format) == (0, None, None, "json")


@pytest.mark.parametrize("argv", [
    ["tower", "--p", "2147483647", "--n", "2"],  # a 16 GiB inverse table
    ["tower", "--p", "3", "--s", "9", "--n", "2"],  # 3 GiB add/mul tables
    ["search", "--target", "tau", "--n", "3", "--q", "2147483647"],
])
def test_oversized_field_refused_before_any_table(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith("(2**24)\n") and err.count("\n") == 1
    assert peak < 1 << 20  # nothing near a field table was allocated


# Every golden certificate is exhaustive, so these pin the sampled bytes: the
# per-claim seed is the run seed plus the claim's index in census order.
@pytest.mark.parametrize("argv, exit_code, digest", [
    ("rank-laws --p 3 --n 6 --mode sampled --seed 2 --sample-count 300", 0,
     "4d0c25b67d764df241019b2986fb54c12c0d2440aa7b647cd2145014cfa7e34d"),
    ("refine --full --p 7 --s 3 --n 4 --seed 0 --sample-count 500", 0,
     "e4b7cfd9e1e2ed19f62d9441337b0b03e8ff80d1514f91b33bbd257da030eabc"),
    # auto mode: exhaustive and sampled pieces in one certificate
    ("theorem-c --q 11 --n 32 --seed 0 --sample-count 200", 3,
     "a6b77a909a00d2ec72bcb9edc5787dda121d971d184564784608fea6a6fe9614"),
    ("min-rank --p 3 --n 6 --k 2 --mode sampled --seed 1 --sample-count 100", 0,
     "188b2d6a22091c3ac2caa29df7c157f786bb93821cae1d6e4709989e49b35419"),
    ("refine --i 2 --p 3 --n 12 --mode sampled --seed 4 --sample-count 200", 0,
     "46191bd492810046b8e16182d5145824f45b529c49a55376d4514ac60d5fa45f"),
])
def test_sampled_certificate_bytes_pinned(capsys, argv, exit_code, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (exit_code, "")
    assert '"sampled"' in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_oversized_search_refused_before_the_field_tables(capsys):
    # GF(16777213) is under the table cap, but its tables take about 300 MB
    # and the scan is over budget: the refusal needs only q, n and the target
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "search", "--target", "mu", "--n", "2", "--q", "16777213")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == ("budget exceeded: exhaustive enumeration needs 4722363949595307802596 forms, "
                   "over the budget of 2000000; rerun in sampled mode or raise the budget\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("argv, message", [
    ("search --target tau --n -1 --q 3", "error: n must be >= 1"),
    ("search --target mu --n 0 --q 3", "error: n must be >= 1"),
    ("search --target mu --n 0 --q 3 --method greedy", "error: n must be >= 1"),
    ("search --target mu --n 3 --q 3 --method greedy --restarts -1", "error: restarts must be >= 0"),
    ("real-mu --n -3", "error: n must be >= 1"),
])
def test_nonsense_sizes_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("argv", [
    "rank-laws --p 3 --n 4 --mode sampled --seed -1",
    "min-rank --p 3 --n 5 --k 1 --seed -2",
    "search --target mu --n 3 --q 3 --method greedy --seed -1",
])
def test_negative_seed_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (1, "", "usage error: seed must be >= 0\n")
