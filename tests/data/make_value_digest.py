"""Record the value digest pinned by tests/test_value_digest.py.

A passing ``affq verify`` report holds only case and check counts, so a
change that moves a value on both sides of a check keeps the report.  The
digest pins the values themselves: the sha256 of the canonical JSON of

* every closed and oracle product on the schur-oracle grid at n = 2, 3
  and r <= 3: each upper pair (B, A), B in ``S.upper_shapes_for(ro(A))``,
  with ``S.e_mul_upper``, and its mirror (negate B, negate A), which runs
  over the lower pairs, with ``S.e_mul_lower``; both meet ``S.oracle_mul``;
* the inputs a, b, c and the products ab, (ab)c, bc and a(bc) of every
  ``hecke-assoc`` case at r = 2, 3, drawn as ``verify`` draws them;
* every level-free product of the ``level-coherence`` grid at n = 2 on
  A(j): the four generator kinds and ``R.reduce_j_lambda`` on
  ``_lambda_grid``, at every weight j of ``_weight_grid``, as ``R.to_json``
  with its ``coeff_num`` and ``coeff_den``, so the fraction representation
  is pinned as well as its value; and its ``R.eval_at_level`` shadow at
  each level r <= 3 of the case;
* the steps of one level-free chain whose fraction bytes depend on the
  order in which the one-layer product visits its T matrices: ``0(0)``
  reduced with lambda = (2, 0), then the plus, minus and plus products
  with alpha = (1, 1) at n = 2, each step as ``R.to_json``.  Its values do
  not depend on that order, but the ``coeff_num``/``coeff_den`` of its last
  step do, and no record above moves with it.

Records are sorted by their canonical JSON, so the digest does not depend
on the visiting order.  A change that keeps every value leaves the file
byte for byte unchanged.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_value_digest.py
"""

import hashlib
import json
import os
import random
import sys

from affq import hecke as H
from affq import laurent as L
from affq import matrices as M
from affq import realization as R
from affq import schur as S
from affq import verify as V

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "value_digest.json")
SCHUR_GRID = ((2, 3), (3, 3))  # (n, largest r), at the band of the schur-oracle suite
HECKE_LEVELS = (2, 3)
LEVEL_N, LEVEL_R = 2, 3  # the level-coherence grid at n = 2, levels r <= 3


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hecke_json(h):
    return [[list(win), L.json_pairs(h.terms[win])] for win in sorted(h.terms)]


def schur_records():
    out = []
    for n, r_max in SCHUR_GRID:
        for r in range(1, r_max + 1):
            for A in M.band_matrices(n, r, V._BANDS[n]):
                for B in S.upper_shapes_for(M.ro(A)):
                    for rule, left, right, closed in (
                        ("upper", B, A, S.e_mul_upper),
                        ("lower", M.negate(B), M.negate(A), S.e_mul_lower),
                    ):
                        out.append(
                            {
                                "rule": rule,
                                "left": M.to_json(left),
                                "right": M.to_json(right),
                                "closed": S.to_json(closed(left, right)),
                                "oracle": S.to_json(S.oracle_mul(left, right)),
                            }
                        )
    return out


def hecke_records():
    out = []
    for r in HECKE_LEVELS:
        for chunk in range(4):
            rng = random.Random("assoc:%d:%d" % (r, chunk))
            for k in range(120):
                a, b, c = (V._rand_elem(rng, r) for _ in range(3))
                ab, bc = H.mul(a, b), H.mul(b, c)
                rec = {"r": r, "chunk": chunk, "k": k}
                for name, h in (
                    ("a", a), ("b", b), ("c", c), ("ab", ab), ("bc", bc),
                    ("ab_c", H.mul(ab, c)), ("a_bc", H.mul(a, bc)),
                ):
                    rec[name] = _hecke_json(h)
                out.append(rec)
    return out


def level_records():
    n = LEVEL_N
    out = []
    for A in V.mixed_labels(n, 2, n):
        levels = range(max(1, M.sigma(A)), LEVEL_R + 1)
        for j in V._weight_grid(n):
            x = R.v_basis(n, A, j)
            frees = []
            for jp in V._weight_grid(n):
                frees.append(("diag-left", jp, R.mul_by_0j(jp, x)))
                frees.append(("diag-right", jp, R.mul_0j_right(x, jp)))
            for alpha in V._alpha_grid(n, 2):
                frees.append(("one-layer-upper", alpha, R.mul_by_semisimple_plus(alpha, x)))
                frees.append(("one-layer-lower", alpha, R.mul_by_semisimple_minus(alpha, x)))
            for lam in V._lambda_grid(n):
                frees.append(("reduce", lam, R.reduce_j_lambda(A, j, lam)))
            for op, arg, free in frees:
                out.append(
                    {
                        "op": op,
                        "matrix": M.to_json(A),
                        "j": list(j),
                        "arg": list(arg),
                        "level-free": R.to_json(free),
                        "levels": [[r, S.to_json(R.eval_at_level(free, r))] for r in levels],
                    }
                )
    return out


def chain_records():
    x = R.reduce_j_lambda(M.pmat(2, []), (0, 0), (2, 0))
    out = [{"step": 0, "op": "reduce", "level-free": R.to_json(x)}]
    for step, (op, mul) in enumerate(
        (
            ("one-layer-upper", R.mul_by_semisimple_plus),
            ("one-layer-lower", R.mul_by_semisimple_minus),
            ("one-layer-upper", R.mul_by_semisimple_plus),
        ),
        1,
    ):
        x = mul((1, 1), x)
        out.append({"step": step, "op": op, "level-free": R.to_json(x)})
    return out


def value_digest():
    """The digest record: the sha256 and the record counts."""
    schur = sorted(_canonical(rec) for rec in schur_records())
    hecke = sorted(_canonical(rec) for rec in hecke_records())
    level = sorted(_canonical(rec) for rec in level_records())
    chain = sorted(_canonical(rec) for rec in chain_records())
    text = "[" + ",".join(schur + hecke + level + chain) + "]"
    return {
        "chain_records": len(chain),
        "hecke_records": len(hecke),
        "level_records": len(level),
        "schur_records": len(schur),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main():
    with open(OUT, "w") as fh:
        fh.write(json.dumps(value_digest(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write("value digest written to %s\n" % OUT)


if __name__ == "__main__":
    main()
