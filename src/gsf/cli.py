"""Command-line driver: every verifier and search, JSON certificates out.

Exit codes: 0 for pass/success, 2 for a failing verdict, 3 for
outside_hypotheses, 1 for usage, encoding and budget errors, 4 when an
internal consistency check fails (a bug, never a verdict).  Reports are
canonical JSON (sorted keys, UTF-8); `--format table` renders a lossy
human summary and is excluded from golden comparisons.  The environment
variable GSF_BUDGET overrides the default enumeration budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from gsf.decomp import (
    Certificate,
    min_rank_lower_bound,
    refine_A1_2k,
    refine_A1_pow4,
    refine_Ai_mod2,
    verify_full_refined,
    verify_global,
    verify_rank_laws,
)
from gsf.extremal import (
    block_construction,
    construct_regular_rep_subspace,
    exhaustive_search,
    greedy_search,
    real_mu_interval,
    rho,
)
from gsf.ffield import FieldTower, prime_power_decompose
from gsf.formspace import BudgetExceededError, DEFAULT_BUDGET, DEFAULT_SAMPLE_COUNT, Run, family, gram

__all__ = ["main", "golden_check", "golden_entries"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _env_budget() -> int:
    raw = os.environ.get("GSF_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"GSF_BUDGET must be an integer, got {raw!r}") from exc


# arguments as (flag, add_argument keywords), shared where commands share them
_TOWER = [("--p", dict(type=int, required=True, help="odd prime characteristic")),
          ("--s", dict(type=int, default=1, help="base field is GF(p**s)")),
          ("--n", dict(type=int, required=True, help="extension degree"))]
_N = [("--n", dict(type=int, required=True))]
_OUTPUT = [("--output", dict(dest="output_path", default=None)),
           ("--format", dict(choices=["json", "table"], default="json"))]
_TAIL = [("--budget", dict(type=int, default=None))] + _OUTPUT
_CENSUS = [("--mode", dict(choices=["auto", "exhaustive", "sampled"], default="auto")),
           ("--sample-count", dict(type=int, default=DEFAULT_SAMPLE_COUNT)),
           ("--seed", dict(type=int, default=None)),
           ("--workers", dict(type=int, default=1))] + _TAIL


def _build_parser(command=None) -> _Parser:
    """The gsf parser.  For the name of a command it holds that command's
    subparser only, all a run of it parses; for None or any other word it
    holds every command's, so help, usage errors and the list of choices
    read the same whatever was asked for."""
    parser = _Parser(prog="gsf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        if command == name or command not in _COMMANDS:
            p = sub.add_parser(name, help=help_text)
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
    return parser


def _parse_element(tower: FieldTower, text: str) -> np.ndarray:
    try:
        digits = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"malformed element encoding {text!r}: digits must be integers") from exc
    try:
        return tower.element_from_digits(digits)
    except ValueError as exc:
        raise UsageError(f"malformed element encoding {text!r}: {exc}") from exc


def _tower_from_args(args) -> FieldTower:
    return FieldTower(args.p, args.s, args.n)


def _render_table(obj: dict) -> str:
    lines = []
    if "claims" in obj:
        lines.append(f"{obj.get('theorem_id', '?')}  instance={obj.get('instance')}")
        lines.append(f"verdict: {obj.get('verdict')}   direct_sum_ok: {obj.get('direct_sum_ok')}")
        header = f"{'piece':<12} {'dim':>9} {'claimed ranks':<16} histogram"
        lines.append(header)
        lines.append("-" * len(header))
        for c in obj["claims"]:
            dim = f"{c.get('observed_dim')}/{c.get('claimed_dim')}"
            ranks = c.get("claimed_ranks")
            hist = c.get("observed_rank_histogram")
            lines.append(f"{c['subspace_name']:<12} {dim:>9} {str(ranks):<16} {hist}")
    else:
        for k in sorted(obj):
            lines.append(f"{k}: {obj[k]}")
    return "\n".join(lines) + "\n"


_VERDICT_EXIT = {"pass": 0, "fail": 2, "outside_hypotheses": 3}


def _config(args) -> Run:
    """Validate the shared options; sampled mode requires an explicit seed."""
    mode = getattr(args, "mode", "auto")
    sample_count = getattr(args, "sample_count", DEFAULT_SAMPLE_COUNT)
    seed = getattr(args, "seed", None)
    budget = args.budget if getattr(args, "budget", None) is not None else _env_budget()
    workers = getattr(args, "workers", 1)
    if budget <= 0:
        raise UsageError("budget must be positive")
    if workers < 1:
        raise UsageError("workers must be >= 1")
    if sample_count < 1:
        raise UsageError("sample count must be >= 1")
    if seed is not None and seed < 0:
        raise UsageError("seed must be >= 0")
    if mode == "sampled" and seed is None:
        raise UsageError("sampled mode requires --seed")
    return Run(mode=mode, sample_count=sample_count, seed=seed if seed is not None else 0,
               budget=budget, workers=workers)


def _power(tower: FieldTower, i: int, low: int = 0) -> int:
    if not low <= i < tower.n:
        raise UsageError(f"--i must be in {low}..{tower.n - 1}")
    return i


def _tower_report(args, run: Run) -> dict:
    tower = _tower_from_args(args)
    return {**tower.to_dict(), "q": tower.q}


def _form_report(args, run: Run) -> dict:
    tower = _tower_from_args(args)
    i = _power(tower, args.i)
    f = gram(tower, _parse_element(tower, args.b), i)
    return {**f.to_dict(), "rank": f.rank()}


def _family_report(args, run: Run) -> dict:
    """The echelon basis of one family; b -> form(b) has kernel dimension n - dim."""
    tower = _tower_from_args(args)
    i = _power(tower, args.i)
    fam = family(tower, i)
    return {"i": i, "dim": fam.dim, "basis": fam.basis.tolist(), "param_kernel_dim": tower.n - fam.dim}


def _refine_report(args, run: Run) -> Certificate:
    tower = _tower_from_args(args)
    if args.full:
        return verify_full_refined(tower, run)
    if args.i is None:
        raise UsageError("refine needs --i or --full")
    i, n = _power(tower, args.i, 1), tower.n
    if i == 1 and n % 2 == 0:
        return (refine_A1_2k if n % 4 == 2 else refine_A1_pow4)(tower, run)
    return refine_Ai_mod2(tower, i, run)


def _theorem_c_report(args, run: Run) -> Certificate:
    p, s = prime_power_decompose(args.q)
    if p == 2:
        raise UsageError("characteristic 2 is not supported")
    if args.q % 4 != 3:
        raise UsageError(f"q = {args.q} is 1 mod 4: -1 is a square in the base field")
    return refine_A1_pow4(FieldTower(p, s, args.n), run)


def _search_report(args, run: Run) -> dict:
    if args.method == "exhaustive":
        return exhaustive_search(args.target, args.n, args.q, budget=run.budget).to_dict()
    return greedy_search(args.target, args.n, args.q, seed=args.seed,
                         restarts=args.restarts, budget=run.budget).to_dict()


def _block_report(args, run: Run) -> dict:
    if args.n % 2:
        raise UsageError("block lifting needs an even target size n")
    base = construct_regular_rep_subspace(FieldTower(args.p, args.s, args.n // 2), run.budget)
    return block_construction(base, run.budget).to_dict()


def _golden_report(args, run: Run) -> int:
    code, report = golden_check(args.golden_dir, write=args.write, workers=run.workers, budget=run.budget)
    sys.stdout.write(report)
    return code


# name: (help, arguments, report).  A report comes from (args, run): a plain
# dict, a certificate whose verdict sets the exit code, or the exit code of
# golden-check, which writes its own report.  The order is the help's.
_COMMANDS = {
    "tower": ("construct and print a field tower", _TOWER + _TAIL, _tower_report),
    "form": ("Gram matrix of one twisted form", _TOWER + _TAIL + [
        ("--b", dict(required=True, help="element as comma-separated base-p digits, little-endian")),
        ("--i", dict(type=int, required=True, help="automorphism power"))], _form_report),
    "family": ("canonical basis of one form family", _TOWER + _TAIL + [("--i", dict(type=int, required=True))],
               _family_report),
    "rank-laws": ("rank dichotomy census over every power", _TOWER + _CENSUS,
                  lambda args, run: verify_rank_laws(_tower_from_args(args), run)),
    "decompose": ("global direct-sum certificate", _TOWER + _CENSUS,
                  lambda args, run: verify_global(_tower_from_args(args), run)),
    "refine": ("split one family into constant-rank pieces", _TOWER + _CENSUS + [
        ("--i", dict(type=int, default=None)),
        ("--full", dict(action="store_true", help="compose all applicable splits"))], _refine_report),
    "theorem-c": ("two-power case classification plus refinement census", [
        ("--q", dict(type=int, required=True, help="base field size (odd prime power, 3 mod 4)"))] + _N + _CENSUS,
        _theorem_c_report),
    "min-rank": ("lower bound census over summed families", _TOWER + _CENSUS + [
        ("--k", dict(dest="kk", type=int, required=True, help="number of summed families"))],
        lambda args, run: min_rank_lower_bound(_tower_from_args(args), args.kk, run)),
    "rho": ("Radon-Hurwitz number", _N + _OUTPUT, lambda args, run: {"rho": rho(args.n)}),
    "real-mu": ("real-field symmetric interval", _N + _OUTPUT,
                lambda args, run: {"n": args.n, "mu_interval": list(real_mu_interval(args.n))}),
    "search": ("invertible-closed subspace search", [
        ("--target", dict(choices=["tau", "mu"], required=True))] + _N + [
        ("--q", dict(type=int, required=True)),
        ("--method", dict(choices=["exhaustive", "greedy"], default="exhaustive")),
        ("--seed", dict(type=int, default=0)),
        ("--restarts", dict(type=int, default=0))] + _TAIL, _search_report),
    "block": ("lift a full-matrix witness to symmetric blocks", _TOWER + _TAIL, _block_report),
    "golden-check": ("recompute and byte-compare pinned certificates", [
        ("--golden-dir", dict(default=None)),
        ("--write", dict(action="store_true", help="regenerate the pinned corpus")),
        ("--workers", dict(type=int, default=1)),
        ("--budget", dict(type=int, default=None))], _golden_report),
}


def _dispatch(args) -> int:
    report = _COMMANDS[args.command][2](args, _config(args))
    if isinstance(report, int):
        return report
    code = 0
    if isinstance(report, Certificate):
        code, report = _VERDICT_EXIT[report.verdict], report.to_dict()
    if args.format == "table":
        text = _render_table(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if args.output_path:
        Path(args.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


# -- golden corpus ---------------------------------------------------------------

GOLDEN_INSTANCES = [(3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 6), (3, 1, 8), (7, 1, 4)]


def golden_entries(workers: int = 1, budget: int = DEFAULT_BUDGET):
    """The pinned corpus: (filename, builder) pairs in a fixed order.

    The certificates of one instance share its tower, built on first use:
    a tower is immutable, so what its memo holds serves them all.
    """
    run = Run(budget=budget, workers=workers)
    entries = []
    for p, s, n in GOLDEN_INSTANCES:
        tower = functools.cache(functools.partial(FieldTower, p, s, n))

        def make(fn, tower=tower):
            return lambda: fn(tower(), run=run)

        stem = f"gf{p}_{s}_{n}"
        entries.append((f"{stem}_global.json", make(verify_global)))
        entries.append((f"{stem}_rank-laws.json", make(verify_rank_laws)))
        if n % 2 == 0:
            entries.append((f"{stem}_full-refined.json", make(verify_full_refined)))
        if n % 4 == 2:
            entries.append((f"{stem}_a1-2k.json", make(refine_A1_2k)))
        if n % 4 == 0:
            entries.append((f"{stem}_a1-pow4.json", make(refine_A1_pow4)))
        if n >= 3:
            entries.append((f"{stem}_min-rank-1.json", make(functools.partial(min_rank_lower_bound, kk=1))))
    return entries


def default_golden_dir() -> Path:
    return Path(__file__).resolve().parent / "golden"


def golden_check(golden_dir=None, write: bool = False, workers: int = 1,
                 budget: int = DEFAULT_BUDGET) -> tuple[int, str]:
    """Recompute every pinned certificate and byte-compare against the corpus.

    Returns (exit_code, report): 0 all equal, 2 any difference, 1 when the
    directory is missing or empty.  With write=True the corpus is
    regenerated instead.
    """
    directory = Path(golden_dir) if golden_dir else default_golden_dir()
    entries = golden_entries(workers=workers, budget=budget)
    lines = []
    if write:
        directory.mkdir(parents=True, exist_ok=True)
        for fname, build in entries:
            (directory / fname).write_text(build().to_json(), encoding="utf-8")
            lines.append(f"WROTE {fname}")
        return 0, "\n".join(lines) + "\n"
    if not directory.is_dir():
        raise UsageError(f"golden directory {directory} does not exist")
    if not any(directory.glob("*.json")):
        raise UsageError(f"golden directory {directory} contains no pinned certificates")
    bad = 0
    for fname, build in entries:
        path = directory / fname
        if not path.is_file():
            lines.append(f"MISSING {fname}")
            bad += 1
            continue
        fresh = build().to_json()
        pinned = path.read_text(encoding="utf-8")
        if fresh == pinned:
            lines.append(f"OK {fname}")
        else:
            bad += 1
            diff_at = next(
                (k for k, (a, b) in enumerate(zip(pinned.splitlines(), fresh.splitlines())) if a != b),
                min(len(pinned.splitlines()), len(fresh.splitlines())),
            )
            lines.append(f"DIFF {fname} (first differing line {diff_at + 1})")
    lines.append(f"{len(entries) - bad}/{len(entries)} certificates match")
    return (2 if bad else 0), "\n".join(lines) + "\n"


def main(argv=None) -> int:
    """Run one command line (`sys.argv[1:]` when argv is None); returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(_build_parser(argv[0] if argv else None).parse_args(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a report or pinned certificate that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
