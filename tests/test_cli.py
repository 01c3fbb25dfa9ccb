import hashlib
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


@pytest.mark.parametrize("argv,digest", [
    ("--p 3 --n 4 --i 2", "df7ac85af28e6e6b9bf2f8cc05d31cab30531274f9689e55b3cdc8833a99b6a0"),
    ("--p 3 --n 4 --i 0", "340a179fdf424952691c5611938e6dc1e23aeb379f680106ec5a28500b319496"),
    ("--p 3 --n 5 --i 1", "4f4018d4439e84f3494460e57d10a5b8e08908b3b22f5ebbfce322206ba29fef"),
    ("--p 5 --n 8 --i 4", "a6b2dbf846da56dc6479cbd30745b0d07419a83a4e11247ba53ff24ea1578c6d"),
    ("--p 11 --n 6 --i 3", "84f9f83837ee696689bf34e46aec9ebe5b02bc1445d0057897dbc525210f7583"),
    ("--p 3 --s 2 --n 4 --i 2", "5963330a324ebde75761b0e4eb8bc8b19e74b6491f44abc3181bd0a15482ac38"),
    ("--p 7 --s 3 --n 4 --i 1", "1a7130c061ae178aaa73d6c907cb22a013923ac069dea04aaf521b2b6fd113e0"),
])
def test_family_stdout_pinned(capsys, argv, digest):
    # the involutions report param_kernel_dim n/2, every other power 0
    code, out, err = run(capsys, "family", *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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


def test_refine_full_odd_degree_pinned(capsys):
    # odd n: the central theorem, every family whole and of constant rank n
    for argv, digest in [
        ("--p 3 --n 5", "635721cf3b0a5b8c3dee95bc22929bcc3d61d278797d793b4f5c50f8e96e4efd"),
        ("--p 3 --s 2 --n 3", "bfb338a94d5c563c1a1db0663b807b7d15e8eecf5eb670ceb2bdc5718ac33e37"),
    ]:
        code, out, err = run(capsys, "refine", "--full", *argv.split())
        assert code == 0 and err == ""
        cert = json.loads(out)
        assert cert["theorem_id"] == "full-refinement" and cert["verdict"] == "pass"
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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


@pytest.mark.parametrize("n", [1, 2])
def test_min_rank_needs_a_non_involution_family(capsys, n):
    code, out, err = run(capsys, "min-rank", "--p", "3", "--n", str(n), "--k", "1")
    assert (code, out) == (1, "")
    assert err == f"error: the min-rank bound needs n >= 3: n = {n} has no non-involution twisted family\n"


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
    # `block` has no sampled mode, so the refusal names only the budget
    assert err == ("budget exceeded: exhaustive enumeration needs 728 forms, over the budget of 100; "
                   "raise the budget\n")


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
    # a census command can sample, so its refusal says so
    assert err.endswith("; rerun in sampled mode or raise the budget\n")


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


def test_golden_entry_on_its_own_tower_equals_the_shared_tower_result():
    # the certificates of one instance share a tower and so its memo; each is
    # rebuilt here on a tower of its own, which starts with an empty memo
    shared = [(fname, build().to_json()) for fname, build in golden_entries()]
    for k, (fname, text) in enumerate(shared):
        fresh = golden_entries()[k][1]().to_json()  # a fresh tower per golden_entries() call
        assert fresh == text == (default_golden_dir() / fname).read_text(encoding="utf-8"), fname


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


def test_parser_flag_sets_and_search_defaults(capsys, monkeypatch):
    import argparse

    from gsf.cli import _COMMANDS, UsageError, _build_parser

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width

    def subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    sub = subparsers(_build_parser())
    assert list(sub) == list(_COMMANDS) and len(sub) == 13

    def flags(name):
        return sorted(o for a in sub[name]._actions for o in a.option_strings if o.startswith("--"))

    assert flags("rho") == flags("real-mu") == ["--format", "--help", "--n", "--output"]
    assert flags("search") == ["--budget", "--format", "--help", "--method", "--n", "--output", "--q",
                               "--restarts", "--seed", "--target"]
    args = sub["search"].parse_args(["--target", "mu", "--n", "3", "--q", "3"])
    assert (args.seed, args.budget, args.output_path, args.format) == (0, None, None, "json")

    # a run builds only its command's subparser, and it must be the full parser's
    def shape(parser):
        return [(a.option_strings, a.dest, a.default, a.choices, a.required, a.type, a.help)
                for a in parser._actions]

    for name in _COMMANDS:
        alone = subparsers(_build_parser(name))
        assert list(alone) == [name]
        assert shape(alone[name]) == shape(sub[name])
        assert alone[name].format_help() == sub[name].format_help()
    # with no command or an unknown one main builds every subparser: the
    # same message as the full parser's, and the choices name all 13 commands
    for argv in ([], ["bogus"]):
        with pytest.raises(UsageError) as exc:
            _build_parser().parse_args(argv)
        assert run(capsys, *argv) == (1, "", f"usage error: {exc.value}\n")
    choices = str(exc.value).split("choose from")[1]
    assert all(name in choices for name in _COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out == _build_parser().format_help()


@pytest.mark.parametrize("argv", [
    ["tower", "--p", "3", "--n", "2", "--output"],
    ["golden-check", "--write", "--golden-dir"],
])
def test_unwritable_path_is_one_error_line(tmp_path, capsys, argv):
    blocker = tmp_path / "file"  # a file where a directory is needed
    blocker.write_text("")
    target = blocker / "out"
    code, out, err = run(capsys, *argv, str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("n", [257, 2000, 10**9])
def test_oversized_extension_degree_refused_before_any_table(capsys, n):
    # the tower keeps n Frobenius matrices, n**3 entries: n = 2000 would be 64 GB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "tower", "--p", "3", "--n", str(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (f"error: extension degree n = {n} needs {n**3} Frobenius matrix entries, "
                   "past the limit of 16777216 (2**24)\n")
    assert peak < 1 << 20


# Every golden certificate is exhaustive, so these pin the sampled bytes: the
# per-claim seed is the run seed plus the claim's index in census order.
@pytest.mark.parametrize("argv, exit_code, digest", [
    ("rank-laws --p 3 --n 6 --mode sampled --seed 2 --sample-count 300", 0,
     "4d0c25b67d764df241019b2986fb54c12c0d2440aa7b647cd2145014cfa7e34d"),
    ("refine --full --p 7 --s 3 --n 4 --mode sampled --seed 0 --sample-count 500", 0,
     "d7425d0f78b3d9dec02d394027b1936cfa100e8259ad209ba7fe18be37ad98c1"),
    # sampled mode samples every piece, even those whose cosets fit the budget
    ("theorem-c --q 11 --n 32 --mode sampled --seed 0 --sample-count 200", 3,
     "1bb9e9583ea35f1d2b811b779797ed0d905a37e71acb9e9268a4ac2f77e358f2"),
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


# Two auto-mode certificates whose coset generator search goes past its first
# candidate (E_1 of GF(11^32) tries 11); their bytes depend on the h chosen
@pytest.mark.parametrize("argv, exit_code, digest", [
    ("theorem-c --q 11 --n 32 --seed 0 --sample-count 1000", 3,
     "86f5a608d8eaefc5a8f96a11848ec442ca7fb6775b28839c463f21aef2081308"),
    ("refine --full --p 7 --s 3 --n 4 --seed 0 --sample-count 5000", 0,
     "4b60b59ad5d96baa5a858ba3bf36eb93c04455bd0c1082fc0fc7c91b03cfc910"),
])
def test_auto_coset_certificate_bytes_pinned(capsys, argv, exit_code, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (exit_code, "")
    assert '"sampled"' not in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _claim_digest(claim) -> str:
    return hashlib.sha256(json.dumps(claim, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def test_auto_certificate_mixes_coset_censuses_and_samples(capsys):
    # under a budget of 5: E_2 and E_3 (m = 3 cosets each) are exact; V_1, V_2
    # and E_4 (cosets that do not pay) and E_1 (m = 6) are sampled, with the
    # claims that sampling every piece gave before coset censuses passed the form budget
    code, out, err = run(capsys, "theorem-c", "--q", "11", "--n", "32", "--budget", "5", "--seed", "0",
                         "--sample-count", "200")
    assert (code, err) == (3, "")
    claims = {c["subspace_name"]: c for c in json.loads(out)["claims"]}
    assert {name: c["enumeration"]["mode"] for name, c in claims.items()} == {
        "V_1": "sampled", "V_2": "sampled", "E_1": "sampled", "E_2": "exhaustive", "E_3": "exhaustive",
        "E_4": "sampled"}
    assert {name: _claim_digest(claims[name]) for name in ("V_1", "V_2", "E_1", "E_4")} == {
        "V_1": "2e488041ef448df6", "V_2": "a49cc6bc7fb752a7", "E_1": "5ee6b4064df63a91", "E_4": "b2858a01dd34cec2"}
    assert sum(claims["E_2"]["observed_rank_histogram"].values()) == 11**8 - 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "abfa15cc5fb7b369daf9d52fdb4cb43ae0ff25309e00f6cc8d0c35072361b45f")


def test_min_rank_census_past_two_to_the_63(capsys):
    # all of GF(11^32), 11**32 - 1 forms: 12 cosets of |U| ~ 1.8e32 parameters, past 2**63
    code, out, err = run(capsys, "min-rank", "--p", "11", "--n", "32", "--k", "1")
    assert (code, err) == (0, "")
    cert = json.loads(out)
    (claim,) = cert["claims"]
    assert cert["enumeration"] == claim["enumeration"] == {"mode": "exhaustive"}
    assert sum(claim["observed_rank_histogram"].values()) == 11**32 - 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rank_laws_gf3_20_is_exact_in_auto_mode(capsys, seed):
    # sampling once reported a false fail here for seeds 1 to 3; every family's cosets fit the budget
    code, out, err = run(capsys, "rank-laws", "--p", "3", "--n", "20", "--seed", str(seed))
    assert (code, err) == (0, "")
    assert '"sampled"' not in out and json.loads(out)["verdict"] == "pass"


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
                   "over the budget of 2000000; rerun with --method greedy or raise the budget\n")
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


_ROOT = Path(__file__).resolve().parent.parent
_HOOKED_RUN = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import gsf.cli
spec = importlib.util.spec_from_file_location("probe", sys.argv[2])
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
gsf = sys.modules["gsf"]
probe.Tracer(gsf)
clock = probe.SetupClock(gsf)
code = gsf.cli.main(["tower", "--p", "3", "--n", "2"])
sys.exit(code or (len(clock.towers) != 1))
"""


def test_benchmark_probe_hooks_still_fit_gsf():
    # the benchmark's probe rebinds gsf's functions by name; it runs in a child
    # process so that the rebinding stays out of the test process
    proc = subprocess.run([sys.executable, "-c", _HOOKED_RUN, str(_ROOT / "src"),
                           str(_ROOT / "gsfbench" / "probe.py")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ext_poly"] == [1, 0, 1]
