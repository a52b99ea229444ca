"""The benchmark's workloads: acceptance-suite grids and a seeded CLI request mix.

A suite workload is a fixed list of operations, each one ``verify.run_suite``
call on one grid point, run in a fixed order.  Its inputs are the acceptance
grids themselves, so the seed does not change them.

The ``queries`` workload is a list of CLI requests generated from the seed
with plain ``random`` and JSON, never with the library, so a change to the
library cannot change the inputs.  ``vbln-mul`` requests form symbolic
chains: each chain starts with a ``reduce`` request, and each later step
feeds the previous response's element through one more generator product,
so fraction denominators grow along the chain and are never cleared.
"""

import random

# (suite, Config keyword arguments) in run order.  The grids are cut from
# the acceptance defaults so that one pass takes about 11 s: levels 2-3 for
# the oracle suites (the n=2, r=4 schur-oracle case alone takes 15-17 s) and
# level-coherence up to level 3 with n=2 (n=3 runs the same code paths at
# several times the cost).  The hall suite is left out: its census is
# exercised by the hall requests of `queries`, and a longer pass would
# leave too few passes per run on this noisy machine.
SUITE_OPS = {
    "suites": [
        (suite, {"n_list": (2, 3), "r_min": r, "r_max": r})
        for suite in ("schur-oracle", "hecke", "coset-length")
        for r in (2, 3)
    ]
    + [
        ("level-coherence", {"n_list": (2,), "r_max": 3}),
        ("triangular", {}),
        ("commutator", {}),
    ],
}

WORKLOADS = tuple(SUITE_OPS) + ("queries",)

QUERY_COMMANDS = ("coset", "schur-mul", "vbln-mul", "reduce", "hall")

# Requests per pass of `queries`: the 99th percentile then has 24 samples
# beyond it, so that it varies little from seed to seed.
QUERY_COUNT = 2400
CHAINS = 80  # each a reduce request, then one vbln-mul per CHAIN_PATTERN step
HALL_REQUESTS = 120
SCHUR_SHARE = 0.45  # of the requests left after chains, hall and malformed
# Malformed requests, per kind.  "missing-key", "not-one-layer" and
# "over-census-cap" are rejected with exit 2 by the seed program; the
# "coercion" kinds are the JSON-type cases it accepts with exit 0.
MALFORMED_PER_KIND = 16
MALFORMED_KINDS = ("missing-key", "not-one-layer", "over-census-cap")
COERCION_KINDS = ("coercion-float", "coercion-bool")

_BANDS = {2: 2, 3: 1}
# Every chain starts from a one-box label with |lambda| = 2 and applies the
# generators in this order, with seeded weights.  Heads of one size, a fixed
# order and one-box layers keep the growth of every chain alike; with random
# sizes, orders and two-box layers a rare chain grows to seconds per step
# and dominates the pass, and the tail latency varies widely by seed.
CHAIN_PATTERN = ("one-layer-upper", "diag-right", "one-layer-lower", "diag-left", "one-layer-upper")
_ALPHAS = ([1, 0], [0, 1])
# Segment lengths of a strictly upper label of dimension d, at most 3 parts.
_SEGMENTS = {2: ((2,), (1, 1)), 3: ((3,), (2, 1), (1, 1, 1)), 4: ((3, 1), (2, 2), (2, 1, 1))}


def op_label(suite, kwargs):
    """A short stable name for one suite operation."""
    bits = [suite]
    for key in sorted(kwargs):
        val = kwargs[key]
        text = ",".join(map(str, val)) if isinstance(val, tuple) else str(val)
        bits.append("%s=%s" % (key, text))
    return " ".join(bits)


def band_entries(rng, n, r):
    """A random nonnegative band matrix of size r, as JSON entries."""
    band = _BANDS[n]
    cells = [(i, j) for i in range(1, n + 1) for j in range(i - band, i + band + 1)]
    counts = {}
    for _ in range(r):
        cell = rng.choice(cells)
        counts[cell] = counts.get(cell, 0) + 1
    return [[i, j, a] for (i, j), a in sorted(counts.items())]


def row_sums(n, entries):
    mu = [0] * n
    for i, _, a in entries:
        mu[(i - 1) % n] += a
    return mu


def one_layer_left(rng, n, mu, upper):
    """A one-layer-plus-diagonal label with column sums mu (0-based lists).

    Upper: alpha_i at (i, i+1) lands in column i+1.  Lower: gamma_i at
    (i+1, i) lands in column i.  The diagonal makes up the rest.
    """
    if upper:
        layer = [rng.randint(0, mu[(i + 1) % n]) for i in range(n)]
        diag = [mu[k] - layer[(k - 1) % n] for k in range(n)]
        cells = [[i + 1, i + 2, c] for i, c in enumerate(layer) if c]
    else:
        layer = [rng.randint(0, mu[i]) for i in range(n)]
        diag = [mu[k] - layer[k] for k in range(n)]
        cells = [[i + 2, i + 1, c] for i, c in enumerate(layer) if c]
    cells += [[k + 1, k + 1, c] for k, c in enumerate(diag) if c]
    return {"n": n, "entries": cells}


def _one_box_label(rng, n):
    """A zero-diagonal label with one box within distance n of the diagonal."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(i - n, i + n + 1) if j != i]
    i, j = rng.choice(cells)
    return {"n": n, "entries": [[i, j, 1]]}


def _request(cmd, payload, argv=(), expect=0, kind="valid", chain=None):
    return {
        "cmd": cmd,
        "argv": [cmd] + list(argv),
        "payload": payload,
        "expect": expect,
        "kind": kind,
        "chain": chain,
    }


def _coset(rng):
    n = rng.choice((2, 3))
    return _request("coset", {"n": n, "entries": band_entries(rng, n, rng.randint(1, 4))})


def _schur_mul(rng):
    n = rng.choice((2, 3))
    right = band_entries(rng, n, rng.randint(1, 3))
    left = one_layer_left(rng, n, row_sums(n, right), rng.random() < 0.5)
    payload = {"left": left, "right": {"n": n, "entries": right}}
    return _request("schur-mul", payload, ["--basis", rng.choice("en")])


def _hall(rng, k):
    """The k-th hall request: total dimension 4, |alpha| + dim M(A) = 4.

    One total size keeps the cost of the census, which grows steeply with
    the dimension, alike across requests and seeds.  A is strictly upper
    with at most three segments of length <= 3, inside the hall suite grid.
    n, |alpha| and the segment lengths cycle with k, so every seed sends
    each shape equally often; the seed places the boxes and segments.
    """
    n = 2 + k % 2
    alpha = [0] * n
    boxes = k % 3
    for _ in range(boxes):
        alpha[rng.randrange(n)] += 1
    shapes = _SEGMENTS[4 - boxes]
    parts = shapes[(k // 6) % len(shapes)]
    counts = {}
    for m in parts:
        i = rng.randint(1, n)
        counts[(i, i + m)] = counts.get((i, i + m), 0) + 1
    matrix = {"n": n, "entries": [[i, j, a] for (i, j), a in sorted(counts.items())]}
    return _request("hall", {"alpha": alpha, "matrix": matrix}, ["--q", "2"])


def _chain(rng, chain):
    n = 2
    first = rng.randint(0, 2)
    head = {
        "matrix": _one_box_label(rng, n),
        "j": [rng.randint(-1, 1) for _ in range(n)],
        "lambda": [first, 2 - first],
    }
    steps = [_request("reduce", head, chain=chain)]
    for op in CHAIN_PATTERN:
        payload = {"op": op}
        if op.startswith("diag"):
            payload["j"] = [rng.randint(-1, 1) for _ in range(n)]
        else:
            payload["alpha"] = list(rng.choice(_ALPHAS))
        steps.append(_request("vbln-mul", payload, chain=chain))
    return steps


def _malformed(rng, kind):
    n = rng.choice((2, 3))
    if kind == "missing-key":
        right = {"n": n, "entries": band_entries(rng, n, 2)}
        return _request("schur-mul", {"right": right}, expect=2, kind=kind)
    if kind == "not-one-layer":
        left = {"n": n, "entries": [[1, 1 + n + 1, 1], [1, 1, 1]]}
        right = {"n": n, "entries": [[1, 1, 2]]}
        return _request("schur-mul", {"left": left, "right": right}, expect=2, kind=kind)
    if kind == "over-census-cap":
        alpha = [3] + [0] * (n - 1)
        matrix = {"n": n, "entries": [[1, 4, 1]]}  # total dimension 6 > 5
        return _request("hall", {"alpha": alpha, "matrix": matrix}, ["--q", "2"], expect=2, kind=kind)
    entries = band_entries(rng, n, 2)
    i, j, a = entries[0]
    if kind == "coercion-float":
        entries[0] = [i, j, a + 0.7]
        return _request("coset", {"n": n + 0.9, "entries": entries}, expect=2, kind=kind)
    entries.append([i, j + n, True])
    return _request("coset", {"n": n, "entries": entries}, expect=2, kind=kind)


def query_requests(seed):
    """The seeded request list of one `queries` pass, in send order.

    A chain step carries no element; the client supplies the element from
    the response to the chain's previous request.
    """
    rng = random.Random("affq-bench-queries:%d" % seed)
    singles = [_hall(rng, k) for k in range(HALL_REQUESTS)]
    for kind in MALFORMED_KINDS + COERCION_KINDS:
        singles += [_malformed(rng, kind) for _ in range(MALFORMED_PER_KIND)]
    rest = QUERY_COUNT - len(singles) - CHAINS * (len(CHAIN_PATTERN) + 1)
    for _ in range(rest):
        singles.append(_schur_mul(rng) if rng.random() < SCHUR_SHARE else _coset(rng))
    chains = [_chain(rng, c) for c in range(CHAINS)]
    # Interleave: each slot draws from the singles or from a random chain,
    # keeping every chain's steps in order.
    rng.shuffle(singles)
    out = []
    cursors = [0] * CHAINS
    pending = CHAINS * (len(CHAIN_PATTERN) + 1)
    while singles or pending:
        if pending and rng.random() < pending / (pending + len(singles)):
            live = [c for c in range(CHAINS) if cursors[c] < len(chains[c])]
            c = rng.choice(live)
            out.append(chains[c][cursors[c]])
            cursors[c] += 1
            pending -= 1
        else:
            out.append(singles.pop())
    return out


def suite_ops(workload, tiny=False, inject_failure=False):
    """The operations of one suite-workload pass.

    ``tiny`` and ``inject_failure`` serve the self-check: one schur-oracle
    grid point, and an extra operation that raises (n=4 is unsupported).
    """
    ops = SUITE_OPS[workload]
    if tiny:
        ops = [("schur-oracle", {"n_list": (2,), "r_min": 2, "r_max": 2})]
    if inject_failure:
        ops = ops + [("schur-oracle", {"n_list": (4,), "r_min": 2, "r_max": 2})]
    return ops


def query_list(seed, tiny=False, inject_failure=False):
    """The requests of one `queries` pass; the self-check options as above.

    The injected request is malformed (a negative entry), so the program
    must reject it, but it is marked as one that should succeed.
    """
    requests = query_requests(seed)
    if tiny:
        requests = requests[:20]
    if inject_failure:
        requests = requests + [_request("coset", {"n": 2, "entries": [[1, 2, -1]]}, kind="injected")]
    return requests
