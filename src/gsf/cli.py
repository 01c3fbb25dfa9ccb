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
from dataclasses import replace
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="gsf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--output", dest="output_path", default=None)
        p.add_argument("--format", choices=["json", "table"], default="json")

    def common(p, tower=True, enum=True):
        if tower:
            p.add_argument("--p", type=int, required=True, help="odd prime characteristic")
            p.add_argument("--s", type=int, default=1, help="base field is GF(p**s)")
            p.add_argument("--n", type=int, required=True, help="extension degree")
        if enum:
            p.add_argument("--mode", choices=["auto", "exhaustive", "sampled"], default="auto")
            p.add_argument("--sample-count", type=int, default=DEFAULT_SAMPLE_COUNT)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--workers", type=int, default=1)
        p.add_argument("--budget", type=int, default=None)
        output(p)

    common(sub.add_parser("tower", help="construct and print a field tower"), enum=False)

    p_form = sub.add_parser("form", help="Gram matrix of one twisted form")
    common(p_form, enum=False)
    p_form.add_argument("--b", required=True, help="element as comma-separated base-p digits, little-endian")
    p_form.add_argument("--i", type=int, required=True, help="automorphism power")

    p_family = sub.add_parser("family", help="canonical basis of one form family")
    common(p_family, enum=False)
    p_family.add_argument("--i", type=int, required=True)

    common(sub.add_parser("rank-laws", help="rank dichotomy census over every power"))
    common(sub.add_parser("decompose", help="global direct-sum certificate"))

    p_refine = sub.add_parser("refine", help="split one family into constant-rank pieces")
    common(p_refine)
    p_refine.add_argument("--i", type=int, default=None)
    p_refine.add_argument("--full", action="store_true", help="compose all applicable splits")

    p_tc = sub.add_parser("theorem-c", help="two-power case classification plus refinement census")
    p_tc.add_argument("--q", type=int, required=True, help="base field size (odd prime power, 3 mod 4)")
    p_tc.add_argument("--n", type=int, required=True)
    common(p_tc, tower=False)

    p_mr = sub.add_parser("min-rank", help="lower bound census over summed families")
    common(p_mr)
    p_mr.add_argument("--k", dest="kk", type=int, required=True, help="number of summed families")

    p_rho = sub.add_parser("rho", help="Radon-Hurwitz number")
    p_rho.add_argument("--n", type=int, required=True)
    output(p_rho)

    p_mu = sub.add_parser("real-mu", help="real-field symmetric interval")
    p_mu.add_argument("--n", type=int, required=True)
    output(p_mu)

    p_search = sub.add_parser("search", help="invertible-closed subspace search")
    p_search.add_argument("--target", choices=["tau", "mu"], required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--q", type=int, required=True)
    p_search.add_argument("--method", choices=["exhaustive", "greedy"], default="exhaustive")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--restarts", type=int, default=0)
    p_search.add_argument("--budget", type=int, default=None)
    output(p_search)

    p_block = sub.add_parser("block", help="lift a full-matrix witness to symmetric blocks")
    common(p_block, enum=False)

    p_gold = sub.add_parser("golden-check", help="recompute and byte-compare pinned certificates")
    p_gold.add_argument("--golden-dir", default=None)
    p_gold.add_argument("--write", action="store_true", help="regenerate the pinned corpus")
    p_gold.add_argument("--workers", type=int, default=1)
    p_gold.add_argument("--budget", type=int, default=None)

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


def _refine_dispatch(tower: FieldTower, i: int, run: Run) -> Certificate:
    n = tower.n
    if i == 1 and n % 2 == 0:
        if n % 4 == 2:
            return refine_A1_2k(tower, run)
        return refine_A1_pow4(tower, run)
    return refine_Ai_mod2(tower, i, run)


def _report(args, run: Run):
    """The command's report: a plain dict, or a certificate whose verdict sets the exit code."""
    cmd = args.command

    if cmd == "tower":
        tower = _tower_from_args(args)
        d = tower.to_dict()
        d["q"] = tower.q
        return d

    if cmd == "form":
        tower = _tower_from_args(args)
        if not 0 <= args.i < tower.n:
            raise UsageError(f"--i must be in 0..{tower.n - 1}")
        b = _parse_element(tower, args.b)
        f = gram(tower, b, args.i)
        d = f.to_dict()
        d["rank"] = f.rank()
        return d

    if cmd == "family":
        tower = _tower_from_args(args)
        if not 0 <= args.i < tower.n:
            raise UsageError(f"--i must be in 0..{tower.n - 1}")
        return family(tower, args.i).to_dict()

    if cmd == "rank-laws":
        return verify_rank_laws(_tower_from_args(args), run)

    if cmd == "decompose":
        return verify_global(_tower_from_args(args), run)

    if cmd == "refine":
        tower = _tower_from_args(args)
        if args.full:
            if tower.n % 2:
                raise UsageError("--full needs an even extension degree")
            return verify_full_refined(tower, run)
        if args.i is None:
            raise UsageError("refine needs --i or --full")
        if not 1 <= args.i < tower.n:
            raise UsageError(f"--i must be in 1..{tower.n - 1}")
        return _refine_dispatch(tower, args.i, run)

    if cmd == "theorem-c":
        p, s = prime_power_decompose(args.q)
        if p == 2:
            raise UsageError("characteristic 2 is not supported")
        if args.q % 4 != 3:
            raise UsageError(f"q = {args.q} is 1 mod 4: -1 is a square in the base field")
        return refine_A1_pow4(FieldTower(p, s, args.n), run)

    if cmd == "min-rank":
        return min_rank_lower_bound(_tower_from_args(args), args.kk, run)

    if cmd == "rho":
        return {"rho": rho(args.n)}

    if cmd == "real-mu":
        lo, hi = real_mu_interval(args.n)
        return {"n": args.n, "mu_interval": [lo, hi]}

    if cmd == "search":
        if args.method == "exhaustive":
            return exhaustive_search(args.target, args.n, args.q, budget=run.budget).to_dict()
        return greedy_search(args.target, args.n, args.q, seed=args.seed,
                             restarts=args.restarts, budget=run.budget).to_dict()

    if cmd == "block":
        if args.n % 2:
            raise UsageError("block lifting needs an even target size n")
        # the lift needs an exactly verified witness, so an over-budget census is refused
        base = construct_regular_rep_subspace(FieldTower(args.p, args.s, args.n // 2),
                                              replace(run, mode="exhaustive"))
        return block_construction(base, budget=run.budget).to_dict()

    raise UsageError(f"unknown command {cmd!r}")


def _dispatch(args) -> int:
    run = _config(args)
    if args.command == "golden-check":
        code, report = golden_check(args.golden_dir, write=args.write, workers=run.workers, budget=run.budget)
        sys.stdout.write(report)
        return code
    report = _report(args, run)
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
    """The pinned corpus: (filename, builder) pairs in a fixed order."""
    run = Run(budget=budget, workers=workers)
    entries = []
    for p, s, n in GOLDEN_INSTANCES:

        def make(fn, p=p, s=s, n=n):
            return lambda: fn(FieldTower(p, s, n), run=run)

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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
