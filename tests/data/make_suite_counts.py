"""Record the (cases, checks, ok) counts pinned by tests/test_acceptance.py.

suite_counts.json holds the counts of every suite on the smallest grid:
n = 2, level 2 and q = 2.  criterion_counts.json holds them on the
default grids that the acceptance criteria run; a passing report carries
nothing else, so equal counts there mean an unchanged `affq verify`
report.  A change that adds or removes checks on purpose regenerates
both files and says so; a refactor must leave them byte for byte
unchanged.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_suite_counts.py
"""

import json
import os
import sys

from affq import verify as V

HERE = os.path.dirname(os.path.abspath(__file__))
GRIDS = (
    ("suite_counts.json", V.Config(n_list=(2,), r_min=2, r_max=2, q_list=(2,))),
    ("criterion_counts.json", V.Config()),
)


def main():
    for name, cfg in GRIDS:
        counts = {}
        for suite in V.SUITE_NAMES:
            report = V.run_suite(suite, cfg)
            counts[suite] = {key: report[key] for key in ("cases", "checks", "ok")}
        out = os.path.join(HERE, name)
        with open(out, "w") as fh:
            fh.write(json.dumps(counts, indent=1, sort_keys=True) + "\n")
        sys.stdout.write("%d suites written to %s\n" % (len(counts), out))


if __name__ == "__main__":
    main()
