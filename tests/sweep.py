"""Run every suite over seeds 0..SEEDS-1 at each sample count, in one process,
and exit 1 if any check fails, naming each by its seed, sample count and check.

    python -X dev -W error tests/sweep.py SEEDS SAMPLES [SAMPLES ...]

For example `tests/sweep.py 100 3 20 200` is the seed sweep and
`tests/sweep.py 5 10000` the large-sample sweep.  The summary line ends with
one sha256 over the concatenated to_json() of every report, in loop order
(seed, then sample count), so running the same command in two trees tells
whether every report is byte-identical.
"""

import hashlib
import sys

from holoconf.report import SuiteConfig
from holoconf.suites import run_suite


def main(argv):
    seeds, *sample_counts = map(int, argv)
    digest, failed = hashlib.sha256(), []
    for seed in range(seeds):
        for samples in sample_counts:
            report = run_suite(SuiteConfig(seed=seed, samples=samples))
            digest.update(report.to_json().encode())
            failed += [
                f"seed {seed}, --samples {samples}: {c.name} failed: {c.message}" for c in report.checks if not c.passed
            ]
    runs = seeds * len(sample_counts)
    print(*failed, f"sweep: {len(failed)} failed checks in {runs} runs, reports sha256 {digest.hexdigest()}", sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
