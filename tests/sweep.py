"""Run every suite over seeds 0..SEEDS-1 at each sample count, in one process,
and exit 1 if any check fails, naming each by its seed, sample count and check.

    python -X dev -W error tests/sweep.py SEEDS SAMPLES [SAMPLES ...]

For example `tests/sweep.py 100 3 20 200` is the seed sweep and
`tests/sweep.py 5 10000` the large-sample sweep.
"""

import sys

from holoconf.report import SuiteConfig
from holoconf.suites import run_suite


def main(argv):
    seeds, *sample_counts = map(int, argv)
    failed = [
        f"seed {seed}, --samples {samples}: {c.name} failed: {c.message}"
        for seed in range(seeds)
        for samples in sample_counts
        for c in run_suite(SuiteConfig(seed=seed, samples=samples)).checks
        if not c.passed
    ]
    runs = seeds * len(sample_counts)
    print("\n".join(failed) or f"sweep: 0 failed checks in {runs} runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
