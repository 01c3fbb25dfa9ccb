"""Traced run of every workload: per-layer metrics side by side.

    python3 gsfbench/trace_report.py [--seed N]

For each workload this runs what `run.py --trace 1` runs for BENCHMARK.json's
run_seconds (untraced and traced repeats alternating), then prints one row
per per-layer metric and one column per workload.  It ends with the tracing
overhead of each workload: the span count times the cost of one span
(`trace.span_cost_s`), and beside it traced minus untraced run_s
(`trace.overhead_s`), which moves with the machine's drift.  Exits 1 if an
output check or an attribution check (`problems`) fails.
"""

from __future__ import annotations

import argparse
import sys

import run
from workloads import WORKLOADS

# cli.main is the root span, so time in a gsf function that no hook covers
# lands in the self time of its nearest hooked caller; called from cli.main,
# that is cli.self_s.  Parsing, the golden byte-compare and printing stay
# well under this share of the run.
CLI_SELF_SHARE = 0.05


def problems(res: dict) -> list[str]:
    """What is wrong with one workload's traced result; empty if nothing."""
    v = {k: x["value"] for k, x in res["metrics"].items()}
    out = []
    if not res["correct"] or res["failed"]:
        out.append(f"output checks: correct={res['correct']}, {res['failed']}/{res['attempted']} failed")
    # holds by construction while cli.main is hooked; fails if the root span is lost
    if abs(v["trace.unattributed_s"]) > v["trace.span_cost_s"]:
        out.append(f"import and layer self times miss {v['trace.unattributed_s']:.3g} s of the traced run_s, "
                   f"more than the span cost {v['trace.span_cost_s']:.3g} s")
    if v["cli.self_s"] > CLI_SELF_SHARE * v["trace.run_s"]:
        out.append(f"cli.self_s {v['cli.self_s']:.3g} s is over {CLI_SELF_SHARE:.0%} of the traced run_s "
                   f"{v['trace.run_s']:.3g} s: time outside every hooked layer")
    return out


def main() -> int:
    sp = run.spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    names = list(WORKLOADS)
    results = {w: run.measure(w, args.seed, sp["run_seconds"], trace=True) for w in names}

    width = max(len(m["name"]) for m in sp["per_layer"])
    print(f"{'metric':<{width}} {'unit':<9}" + "".join(f"{w:>14}" for w in names))
    for m in sp["per_layer"]:
        cells = "".join(f"{results[w]['metrics'][m['name']]['value']:>14.6g}" for w in names)
        print(f"{m['name']:<{width}} {m['unit']:<9}{cells}")

    ok = True
    print()
    for w in names:
        res = results[w]
        v = {k: x["value"] for k, x in res["metrics"].items()}
        errs = problems(res)
        ok &= not errs
        print(f"{w}: {res['attempted']} repeats, traced run_s {v['trace.run_s']:.4f} s, tracing overhead {v['trace.span_cost_s']:.4f} s "
              f"from spans ({v['trace.overhead_s']:+.4f} s traced minus untraced); "
              + ("; ".join(errs) if errs else "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
