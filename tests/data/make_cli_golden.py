"""Record the CLI output bytes replayed by tests/test_cli.py.

The requests are drawn from seeded grids: ``schur-mul`` with a
subdiagonal-plus-diagonal left factor in both bases, ``vbln-mul``
one-layer products (lower and upper) applied to ``reduce`` outputs, whose
coefficients carry non-trivial denominators, then ``schur-mul`` with a
superdiagonal-plus-diagonal left factor in both bases, ``hall`` products
checked against the census at q = 2, 3, ``hall`` products at n = 4, a
period that no verify grid reaches, and last ``vbln-mul`` one-layer
products at n = 2, 3, 4 on labels with an entry at distance 2, with a
part 2 in alpha, applied to elements that are one-layer products
themselves.  The later groups are drawn
after the earlier ones from the same generator, so adding a group leaves
the earlier records unchanged.  The file pins the exact
``num/den`` representation of every coefficient, which value equality of
``LaurentFraction`` does not.

The output has one JSON record per line: the CLI arguments, the input
object and the exact output text.  Run from the repository root, at a
commit whose outputs are trusted:

    PYTHONPATH=src python tests/data/make_cli_golden.py
"""

import json
import os
import random
import sys
import tempfile

from affq import cli
from affq import hall as Ha
from affq import matrices as M
from affq import realization as R
from affq import schur as S
from affq import verify as V

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "cli_golden.jsonl")
sys.path.insert(0, os.path.dirname(HERE))
from test_schur import lower_shapes_for  # noqa: E402  (the tests' reference)


def schur_requests(rng, shapes_for=lower_shapes_for, count=24):
    pool = []
    for n, r_max in ((2, 3), (3, 3)):
        for r in range(1, r_max + 1):
            for A in M.band_matrices(n, r, 1):
                for C in shapes_for(M.ro(A)):
                    pool.append({"left": M.to_json(C), "right": M.to_json(A)})
    picked = rng.sample(pool, count)
    return [(["schur-mul", "--basis", b], p) for b in ("e", "n") for p in picked]


def vbln_requests(rng):
    out = []
    for op, count in (("one-layer-lower", 30), ("one-layer-upper", 18)):
        for _ in range(count):
            n = rng.choice((2, 3))
            labels = V.mixed_labels(n, 2, 1)
            A = rng.choice(labels)
            j = tuple(rng.randrange(-1, 2) for _ in range(n))
            lam = tuple(rng.randrange(0, 2) for _ in range(n))
            alpha = tuple(rng.randrange(0, 2) for _ in range(n))
            element = R.to_json(R.reduce_j_lambda(A, j, lam))
            out.append((["vbln-mul"], {"op": op, "alpha": list(alpha), "element": element}))
    return out


def vbln_wide_requests(rng, count=12):
    """One-layer products beyond the distance-1 labels and 0/1 weights of
    ``vbln_requests``: the label has an entry at distance 2, alpha has a
    part 2, and the input element is a one-layer product (either side) of
    a reduce output.  A draw over the total-size cap is drawn again."""
    out = []
    while len(out) < count:
        n = (2, 3, 4)[len(out) % 3]
        labels = [
            A for A in V.mixed_labels(n, 2, 2) if any(abs(j - i) == 2 for i, j, _ in A.entries)
        ]
        A = rng.choice(labels)
        j = tuple(rng.randrange(-1, 2) for _ in range(n))
        lam = tuple(rng.randrange(0, 2) for _ in range(n))
        beta = tuple(rng.randrange(0, 2) for _ in range(n))
        inner = rng.choice((R.mul_by_semisimple_plus, R.mul_by_semisimple_minus))
        x = inner(beta, R.reduce_j_lambda(A, j, lam))
        alpha = [rng.randrange(0, 2) for _ in range(n)]
        alpha[rng.randrange(n)] = 2
        sizes = [M.sigma(B) for B, _ in x.terms]
        if not sizes or sum(sizes) + len(sizes) * sum(alpha) > 4 * cli.MAX_VBLN_SIZE:
            continue
        op = rng.choice(("one-layer-lower", "one-layer-upper"))
        out.append((["vbln-mul"], {"op": op, "alpha": alpha, "element": R.to_json(x)}))
    return out


def hall_requests(rng, count=16, periods=(2, 3)):
    """Semisimple Hall products with |alpha| + dim M(A) <= 4, so that the
    census at q = 2, 3 stays cheap."""
    out = []
    for _ in range(count):
        n = rng.choice(periods)
        A = rng.choice(Ha.enumerate_labels(n, 3, 3))
        room = 4 - Ha.dim_rep(A)
        alpha = [0] * n
        for _ in range(rng.randint(1, room)):
            alpha[rng.randrange(n)] += 1
        payload = {"alpha": alpha, "matrix": M.to_json(A)}
        out.append((["hall", "--q", "2,3"], payload))
    return out


def run(args, payload):
    """Output bytes of one CLI request, fed through --in/--out files."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.json")
        dst = os.path.join(tmp, "out.json")
        with open(src, "w") as fh:
            json.dump(payload, fh)
        code = cli.main(list(args) + ["--in", src, "--out", dst])
        with open(dst) as fh:
            return code, fh.read()


def main():
    rng = random.Random(20131107)
    records = []
    requests = schur_requests(rng) + vbln_requests(rng)
    requests += schur_requests(rng, S.upper_shapes_for, 16) + hall_requests(rng)
    requests += hall_requests(rng, 8, (4,)) + vbln_wide_requests(rng)
    for args, payload in requests:
        code, data = run(args, payload)
        if code != 0:
            raise SystemExit("request failed: %r" % (args,))
        records.append({"args": args, "input": payload, "output": data})
    with open(OUT, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    sys.stdout.write("%d requests written to %s\n" % (len(records), OUT))


if __name__ == "__main__":
    main()
