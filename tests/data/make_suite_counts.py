"""Record the (cases, checks, ok) counts pinned by tests/test_acceptance.py.

Every suite runs on the smallest grid: n = 2, level 2 and q = 2.  A
change that adds or removes checks on purpose regenerates the file and
says so; a refactor must leave it byte for byte unchanged.  Run from the
repository root:

    PYTHONPATH=src python tests/data/make_suite_counts.py
"""

import json
import os
import sys

from affq import verify as V

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "suite_counts.json")


def main():
    cfg = V.Config(n_list=(2,), r_min=2, r_max=2, q_list=(2,))
    counts = {}
    for suite in V.SUITE_NAMES:
        report = V.run_suite(suite, cfg)
        counts[suite] = {key: report[key] for key in ("cases", "checks", "ok")}
    with open(OUT, "w") as fh:
        fh.write(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    sys.stdout.write("%d suites written to %s\n" % (len(counts), OUT))


if __name__ == "__main__":
    main()
