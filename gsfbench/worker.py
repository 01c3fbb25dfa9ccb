"""One timed gsf command in a fresh process; prints one JSON line.

    python3 gsfbench/worker.py --workload NAME --seed N [--trace FILE] [--subsample]

Times `import gsf` and `gsf.cli.main(argv)` for the workload's command line,
with gsf's standard output kept in memory.  With `--trace FILE` every hooked
gsf function records a span and the spans are written to FILE at the end.
With `--subsample`, after the timing, the seeded subsample checks of
checks.py run on the towers the command built.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import probe  # noqa: E402  (stdlib only, like workloads)
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    # the subsample checks use the towers the untraced setup clock keeps
    once = ap.add_mutually_exclusive_group()
    once.add_argument("--trace", default=None)
    once.add_argument("--subsample", action="store_true")
    args = ap.parse_args()
    if not (SRC / "gsf" / "cli.py").is_file():
        print(f"gsf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Both settings take out machine state that is not gsf's doing.  numpy
    # asks for transparent huge pages on large arrays, and whether the kernel
    # grants them moved peak RSS by 4 MB between otherwise equal runs.
    # OpenBLAS starts a thread per core that spins during `import numpy`
    # while gsf never calls BLAS; with the other core busy that spinning
    # swung the import between 0.10 and 0.17 s.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    argv = WORKLOADS[args.workload](args.seed)

    t0 = time.perf_counter()
    import gsf.cli  # noqa: F401  (loads every gsf module)
    import_s = time.perf_counter() - t0

    gsf = sys.modules["gsf"]
    if not Path(gsf.__file__).resolve().is_relative_to(SRC):
        print(f"imported gsf from {gsf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    certs = probe.capture_certificates(gsf) if args.workload == "golden" else []
    clock = tracer = None
    if args.trace:
        tracer = probe.Tracer(gsf)
    else:
        clock = probe.SetupClock(gsf)

    out = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = gsf.cli.main(argv)
    main_s = time.perf_counter() - t1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "exit": rc,
        "stdout": out.getvalue(),
        "certificates": certs,
        "import_s": import_s,
        "run_s": import_s + main_s,
        "peak_rss_mb": rss_mb,
    }
    if clock is not None:
        result["setup_s"] = import_s + clock.seconds
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    if args.subsample:
        import checks

        result["subsample_errors"] = checks.subsample(args.workload, args.seed, clock.towers)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
