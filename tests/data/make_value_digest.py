"""Record the value digest pinned by tests/test_value_digest.py.

A passing ``affq verify`` report holds only case and check counts, so a
change that moves a value on both sides of a check keeps the report.  The
digest pins the values themselves: the sha256 of the canonical JSON of

* every closed and oracle product on the schur-oracle grid at n = 2, 3
  and r <= 3: each upper pair (B, A), B in ``S.upper_shapes_for(ro(A))``,
  with ``S.e_mul_upper``, and its mirror (negate B, negate A), which runs
  over the lower pairs, with ``S.e_mul_lower``; both meet ``S.oracle_mul``;
* the inputs a, b, c and the products ab, (ab)c, bc and a(bc) of every
  ``hecke-assoc`` case at r = 2, 3, drawn as ``verify`` draws them.

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
from affq import schur as S
from affq import verify as V

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "value_digest.json")
SCHUR_GRID = ((2, 3), (3, 3))  # (n, largest r), at the band of the schur-oracle suite
HECKE_LEVELS = (2, 3)


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


def value_digest():
    """The digest record: the sha256 and the record counts."""
    schur = sorted(_canonical(rec) for rec in schur_records())
    hecke = sorted(_canonical(rec) for rec in hecke_records())
    text = "[" + ",".join(schur + hecke) + "]"
    return {
        "hecke_records": len(hecke),
        "schur_records": len(schur),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main():
    with open(OUT, "w") as fh:
        fh.write(json.dumps(value_digest(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write("value digest written to %s\n" % OUT)


if __name__ == "__main__":
    main()
