"""gsf benchmark: one workload, timed end to end in fresh processes.

    python3 gsfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gsf is imported from its `src/`.  Each
repeat of the workload's command runs in a fresh `worker.py` process, so a
cache kept for the life of a process only shows the gain of a single
invocation.  Repeats follow one another until the next one would end past
`--seconds` (at least MIN_REPEATS), and every metric is the median over the
repeats.  Every repeat's output is checked (checks.py); the first repeat
also re-ranks a seeded subsample of forms.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates untraced and traced repeats and prints the per-layer metrics:
medians over the traced repeats, plus the tracing overhead (traced minus
untraced run_s).  The last line of standard output is the JSON result; it is
also written to .gsfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".gsfbench"

import checks  # noqa: E402
import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPEATS = 3
MIN_TRACED_REPEATS = 4  # two untraced, two traced
WORKER_TIMEOUT_S = 60
# stop starting repeats past this point, so a run ends within 180 s
HARD_STOP_S = 100


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_worker(workload: str, seed: int, trace_file: Path | None, subsample: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    if subsample:
        cmd.append("--subsample")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker killed after {WORKER_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}\n")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def warm_up() -> None:
    """Import gsf once, untimed: writes its bytecode and fills the file cache."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import gsf.cli",
                    str(ROOT / "src")], cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repeats of the workload and return the result object."""
    OUT.mkdir(exist_ok=True)
    warm_up()
    attempted = failed = 0
    errors: list[str] = []
    plain, traced = [], []
    durations = []
    start = time.perf_counter()
    minimum = MIN_TRACED_REPEATS if trace else MIN_REPEATS
    while True:
        k = attempted
        trace_file = OUT / f"trace-{workload}-seed{seed}-{k}.json" if trace and k % 2 else None
        t0 = time.perf_counter()
        res = run_worker(workload, seed, trace_file, subsample=k == 0)
        durations.append(time.perf_counter() - t0)
        attempted += 1
        if res is None:
            failed += 1
        else:
            errs = checks.check_output(workload, res["stdout"], res["exit"], res["certificates"], ROOT)
            errs += res.get("subsample_errors", [])
            errors += [f"repeat {k}: {e}" for e in errs]
            if trace_file is not None:
                res["layers"] = probe.summarize(json.loads(trace_file.read_text(encoding="utf-8")))
                traced.append(res)
            else:
                plain.append(res)
        elapsed = time.perf_counter() - start
        if attempted >= minimum and elapsed + statistics.median(durations) > seconds:
            break
        if elapsed > HARD_STOP_S:
            break
    for e in errors:
        sys.stderr.write(e + "\n")

    sp = spec()
    if trace:
        values = _layer_metrics(plain, traced)
        wanted = sp["per_layer"]
    else:
        values = _end_to_end(plain)
        wanted = sp["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    repeats = [{k: r[k] for k in ("run_s", "setup_s", "import_s", "peak_rss_mb") if k in r}
               for r in plain + traced]
    return {"correct": not errors and bool(plain or traced), "attempted": attempted, "failed": failed,
            "metrics": metrics, "repeats": repeats}


def _median(rows, key) -> float:
    vals = [r[key] for r in rows]
    return statistics.median(vals) if vals else 0.0


def _end_to_end(rows: list[dict]) -> dict:
    for r in rows:
        r["census_s"] = r["run_s"] - r["setup_s"]
    return {k: _median(rows, k) for k in ["run_s", "setup_s", "census_s", "peak_rss_mb"]}


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    layers = [dict(r["layers"]) for r in traced]
    for r, lay in zip(traced, layers):
        lay["trace.run_s"] = r["run_s"]
        lay["trace.import_s"] = r["import_s"]
        lay["trace.unattributed_s"] = r["run_s"] - r["import_s"] - sum(
            lay[f"{layer}.self_s"] for layer in probe.LAYERS)
    out = {k: statistics.median(lay[k] for lay in layers) for k in layers[0]} if layers else {}
    if traced and plain:
        out["trace.overhead_s"] = _median(traced, "run_s") - _median(plain, "run_s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gsf" / "cli.py").is_file():
        print(f"no gsf sources under {ROOT / 'src'}: run from the root of a gsf checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, sort_keys=True, indent=1) + "\n")
    line = json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}, sort_keys=True)
    for name, m in result["metrics"].items():
        sys.stderr.write(f"{args.workload:>10} {name:<30} {m['value']:.6g} {m['unit']}\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
