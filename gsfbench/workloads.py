"""The four benchmark workloads: the gsf command line of each, by seed.

Stdlib only: the worker imports this module before it times `import gsf`,
so nothing here may pull in numpy.  Why each workload is there is written
in BENCHMARK.json and README.md.

The run's `--seed` becomes gsf's `--seed` where the command samples, so two
seeds rank different forms at the same count and cost.  The output checks
never depend on which forms were drawn.
"""

from __future__ import annotations

TWO_POWER_SAMPLES = 1000
EXT_FIELD_SAMPLES = 5000

WORKLOADS = {
    "golden": lambda seed: ["golden-check"],
    "two-power": lambda seed: [
        "theorem-c", "--q", "11", "--n", "32",
        "--seed", str(seed), "--sample-count", str(TWO_POWER_SAMPLES),
    ],
    "ext-field": lambda seed: [
        "refine", "--full", "--p", "7", "--s", "3", "--n", "4",
        "--seed", str(seed), "--sample-count", str(EXT_FIELD_SAMPLES),
    ],
    "search": lambda seed: ["search", "--target", "mu", "--n", "3", "--q", "3"],
}
