"""Independent checks of CLI responses, run outside the timed region.

Each valid request is checked against the library's own oracle:

- ``coset``: exit 0 (the walked length equals the closed formula) and the
  ``permutations.jmath`` round trip gives the input matrix back;
- ``schur-mul``: equal to the Hecke convolution ``schur.oracle_mul``;
- ``reduce``: evaluated at two levels, equal to ``schur.A_j_lambda_r``;
- ``vbln-mul``: evaluated at the lowest level that keeps every label of the
  input and the response, equal to the level product of the
  evaluated input with the generator, by ``closed_product_upper``/``lower``;
  for the diagonal generator on the right, [X][diag(mu)] is [X] when
  co(X) = mu and zero otherwise, so the product rescales each term by
  v^(co(X).j) (the Hecke oracle gives the same but costs seconds per check);
- ``hall``: exit 0, which means the closed form agreed with the brute census.

Malformed requests must exit 2.  A coercion request answered with exit 0 is
the known defect: it is counted as failed and reported on its own.
"""

import hashlib
import json


class QueryChecker:
    """Verdicts on (request, response) pairs, cached by their bytes."""

    def __init__(self, L, M, P, S, R):
        self.L, self.M, self.P, self.S, self.R = L, M, P, S, R
        self._cache = {}

    def verdict(self, req, payload, rec):
        """None when the response is right, else a one-line reason."""
        if rec.get("error"):
            return rec["error"]
        key = hashlib.sha256(
            json.dumps([req["argv"], payload, rec["code"], rec["out"]], sort_keys=True).encode()
        ).digest()
        if key not in self._cache:
            self._cache[key] = self._judge(req, payload, rec["code"], rec["out"])
        return self._cache[key]

    def _judge(self, req, payload, code, out):
        if code != req["expect"]:
            return "exit %s, expected %s" % (code, req["expect"])
        if req["expect"] != 0:
            return None
        try:
            obj = json.loads(out)
        except ValueError:
            return "response is not JSON"
        check = getattr(self, "_check_" + req["cmd"].replace("-", "_"))
        try:
            return check(req, payload, obj)
        except Exception as exc:  # the response could not be checked
            return "check raised %s: %s" % (type(exc).__name__, exc)

    def _check_coset(self, req, payload, obj):
        M, P = self.M, self.P
        A = M.from_json(payload)
        y = P.perm(obj["r"], obj["window"])
        if obj["length"] != obj["length_formula"]:
            return "walked length differs from the closed formula"
        if P.jmath(M.ro(A), y, M.co(A)) != A:
            return "jmath round trip failed"
        return None

    def _check_schur_mul(self, req, payload, obj):
        M, S = self.M, self.S
        B, A = M.from_json(payload["left"]), M.from_json(payload["right"])
        got = S.from_json(obj)
        if "n" in req["argv"]:
            want = S.convert(
                S.oracle_product(
                    S.convert(S.basis_element(B, "n"), "e"),
                    S.convert(S.basis_element(A, "n"), "e"),
                ),
                "n",
            )
        else:
            want = S.oracle_mul(B, A)
        return None if S.s_eq(got, want) else "differs from the Hecke oracle"

    def _top_level(self, *elements):
        return max([self.M.sigma(A) for x in elements for (A, _) in x.terms] + [1])

    def _check_reduce(self, req, payload, obj):
        M, S, R = self.M, self.S, self.R
        A = M.from_json(payload["matrix"])
        j, lam = tuple(payload["j"]), tuple(payload["lambda"])
        x = R.from_json(obj)
        top = self._top_level(x)
        for r in (top, top + 1):
            if not S.s_eq(R.eval_at_level(x, r), S.A_j_lambda_r(A, j, lam, r)):
                return "differs from A_j_lambda_r at level %d" % r
        return None

    def _check_vbln_mul(self, req, payload, obj):
        L, M, S, R = self.L, self.M, self.S, self.R
        x, y = R.from_json(payload["element"]), R.from_json(obj)
        n, op = x.n, payload["op"]
        zero_label, zero_j = M.pmat(n, []), (0,) * n
        r = self._top_level(x, y)
        ex = R.eval_at_level(x, r)
        if op == "diag-left":
            want = S.closed_product_upper(S.A_j_r(zero_label, tuple(payload["j"]), r), ex)
        elif op == "diag-right":
            j = tuple(payload["j"])
            items = [(X, L.vshift(c, M.dot(M.co(X), j))) for X, c in ex.terms.items()]
            want = S.s_from_items(n, r, items, "n")
        elif op == "one-layer-upper":
            gen = S.A_j_r(M.s_alpha(tuple(payload["alpha"])), zero_j, r)
            want = S.closed_product_upper(gen, ex)
        else:
            gen = S.A_j_r(M.t_s_alpha(tuple(payload["alpha"])), zero_j, r)
            want = S.closed_product_lower(gen, ex)
        if not S.s_eq(R.eval_at_level(y, r), want):
            return "%s differs from the level-%d product" % (op, r)
        return None

    def _check_hall(self, req, payload, obj):
        # Exit 0 already means every closed value equals its brute count.
        for term in obj["terms"]:
            for q, closed, brute in term["checks"]:
                if closed != brute:
                    return "closed form differs from the census at q=%d" % q
        return None
