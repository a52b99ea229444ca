"""Tests for the command-line interface and the suite driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from affq import cli
from affq import hall as Ha
from affq import hecke as H
from affq import schur as S
from affq import verify as V


def run_cli(args, payload=None, tmp_path=None, name="in.json"):
    argv = list(args)
    if payload is not None:
        src = tmp_path / name
        src.write_text(json.dumps(payload))
        argv += ["--in", str(src)]
    out = tmp_path / ("out-" + name)
    argv += ["--out", str(out)]
    code = cli.main(argv)
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data, out


def test_coset_command(tmp_path):
    code, data, _ = run_cli(
        ["coset"], {"n": 2, "entries": [[1, 1, 2]]}, tmp_path
    )
    assert code == 0
    assert data == {"window": [1, 2], "r": 2, "length": 0, "length_formula": 0}
    code, data, _ = run_cli(
        ["coset"], {"n": 2, "entries": [[1, 2, 1], [2, 1, 1]]}, tmp_path, "b.json"
    )
    assert code == 0
    assert data["length"] == 1 and data["length_formula"] == 1
    code, _, out = run_cli(
        ["coset"], {"n": 2, "entries": [[1, 2, 2], [2, 1, -1]]}, tmp_path, "c.json"
    )
    assert code == 2 and not out.exists()


def test_coset_malformed_input(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text("not json")
    assert cli.main(["coset", "--in", str(src)]) == 2


def test_schur_mul_command(tmp_path):
    payload = {
        "left": {"n": 2, "entries": [[1, 2, 1], [1, 1, 1]]},
        "right": {"n": 2, "entries": [[2, 1, 1], [1, 1, 1]]},
    }
    code, data, _ = run_cli(["schur-mul"], payload, tmp_path)
    assert code == 0
    assert data["terms"] == [
        {"coeff": [[0, 1], [2, 1]], "matrix": {"entries": [[1, 1, 2]], "n": 2}}
    ]
    code, data, _ = run_cli(["schur-mul", "--basis", "n"], payload, tmp_path)
    assert code == 0
    assert data["basis"] == "n"
    mismatched = {
        "left": {"n": 2, "entries": [[1, 2, 1], [1, 1, 1]]},
        "right": {"n": 2, "entries": [[1, 1, 2]]},
    }
    code, data, _ = run_cli(["schur-mul"], mismatched, tmp_path)
    assert code == 0 and data["terms"] == []
    general = {
        "left": {"n": 2, "entries": [[1, 3, 2]]},
        "right": {"n": 2, "entries": [[1, 1, 2]]},
    }
    code, _, _ = run_cli(["schur-mul"], general, tmp_path)
    assert code == 2


def test_vbln_mul_command(tmp_path):
    element = {
        "n": 2,
        "terms": [
            {
                "matrix": {"n": 2, "entries": []},
                "j": [0, 1],
                "coeff_num": [[0, 1]],
                "coeff_den": [[0, 1]],
            }
        ],
    }
    payload = {"op": "one-layer-upper", "alpha": [1, 0], "element": element}
    code, data, _ = run_cli(["vbln-mul"], payload, tmp_path)
    assert code == 0
    assert data["terms"] == [
        {
            "coeff_den": [[0, 1]],
            "coeff_num": [[1, 1]],
            "j": [0, 1],
            "matrix": {"entries": [[1, 2, 1]], "n": 2},
        }
    ]
    payload = {"op": "diag-left", "j": [1, 0], "element": element}
    code, data, _ = run_cli(["vbln-mul"], payload, tmp_path)
    assert code == 0
    assert data["terms"][0]["j"] == [1, 1]
    payload = {"op": "bogus", "element": element}
    assert run_cli(["vbln-mul"], payload, tmp_path)[0] == 2


def test_hall_command(tmp_path):
    payload = {"alpha": [1, 0], "matrix": {"n": 2, "entries": [[1, 2, 1]]}}
    code, data, _ = run_cli(["hall", "--q", "2,3"], payload, tmp_path)
    assert code == 0
    assert data["terms"] == [
        {
            "matrix": {"entries": [[1, 2, 2]], "n": 2},
            "poly_q": [[0, 1], [1, 1]],
            "checks": [[2, 3, 3], [3, 4, 4]],
        }
    ]
    assert run_cli(["hall", "--q", "5"], payload, tmp_path)[0] == 2


def test_hall_rejects_empty_q_list(tmp_path):
    # An empty list would skip every census comparison and still exit 0.
    payload = {"alpha": [1, 0], "matrix": {"n": 2, "entries": [[1, 2, 1]]}}
    code, data, _ = run_cli(["hall", "--q", ","], payload, tmp_path)
    assert code == 2
    assert data is None


def test_reduce_command(tmp_path):
    payload = {"matrix": {"n": 2, "entries": []}, "j": [0, 0], "lambda": [1, 0]}
    code, data, _ = run_cli(["reduce"], payload, tmp_path)
    assert code == 0
    assert [t["j"] for t in data["terms"]] == [[-1, 0], [1, 0]]
    payload["lambda"] = [-1, 0]
    assert run_cli(["reduce"], payload, tmp_path)[0] == 2


def _one_term_element(j=(0, 1), num=((0, 1),)):
    return {
        "n": 2,
        "terms": [
            {
                "matrix": {"n": 2, "entries": []},
                "j": list(j),
                "coeff_num": [list(p) for p in num],
                "coeff_den": [[0, 1]],
            }
        ],
    }


NON_INTEGER_REQUESTS = {
    "coset-float": (["coset"], {"n": 2, "entries": [[1, 2, 1.0], [2, 1, 1]]}),
    "coset-bool": (["coset"], {"n": 2, "entries": [[1, 2, 1], [2, 1, True]]}),
    "coset-string": (["coset"], {"n": "2", "entries": [[1, 2, 1], [2, 1, 1]]}),
    "reduce-float": (
        ["reduce"],
        {"matrix": {"n": 2, "entries": []}, "j": [0, 0], "lambda": [1.0, 0]},
    ),
    "reduce-bool": (
        ["reduce"],
        {"matrix": {"n": 2, "entries": []}, "j": [True, 0], "lambda": [1, 0]},
    ),
    "reduce-string": (
        ["reduce"],
        {"matrix": {"n": 2, "entries": [[1, 2, "1"]]}, "j": [0, 0], "lambda": [1, 0]},
    ),
    "vbln-mul-float": (
        ["vbln-mul"],
        {"op": "one-layer-upper", "alpha": [1, 0.0], "element": _one_term_element()},
    ),
    "vbln-mul-bool": (
        ["vbln-mul"],
        {"op": "diag-left", "j": [1, 0], "element": _one_term_element(j=(0, True))},
    ),
    "vbln-mul-string": (
        ["vbln-mul"],
        {"op": "diag-left", "j": [1, 0], "element": _one_term_element(num=(("0", 1),))},
    ),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_REQUESTS))
def test_non_integer_json_numbers_are_rejected(case, tmp_path, capsys):
    args, payload = NON_INTEGER_REQUESTS[case]
    code, _, out = run_cli(args, payload, tmp_path)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("input error: expected an integer")


def _unit(n, a=1):
    return {"n": n, "entries": [[1, 2, a]]}


def _schur_size_request(d_left, a, d_right):
    """n = 2: upper one-layer-plus-diagonal factors with the entries a on
    (1, 2) and (2, 3), and diagonals (d_left, a) and (a, d_right)."""
    return {
        "left": {"n": 2, "entries": [[1, 1, d_left], [1, 2, a], [2, 2, a], [2, 3, a]]},
        "right": {"n": 2, "entries": [[1, 1, a], [1, 2, a], [2, 2, d_right], [2, 3, a]]},
    }


def _reduce_request(n, lam):
    return {"matrix": {"n": n, "entries": []}, "j": [0] * n, "lambda": lam}


def _hall_request(alpha):
    return {"alpha": alpha, "matrix": {"n": 2, "entries": [[1, 2, 2], [2, 3, 2]]}}


def _vbln_request(n):
    element = {
        "n": n,
        "terms": [
            {
                "matrix": {"n": n, "entries": []},
                "j": [0] * n,
                "coeff_num": [[0, 1]],
                "coeff_den": [[0, 1]],
            }
        ],
    }
    return {"op": "one-layer-upper", "alpha": [1] + [0] * (n - 1), "element": element}


def _vbln_size_request(op, alpha, a, terms=1):
    """n = 2: the element sum_k [(1, 2, a)](k, 0) over k < terms."""
    entries = [[1, 2, a]] if a else []
    element = {
        "n": 2,
        "terms": [
            {
                "matrix": {"n": 2, "entries": entries},
                "j": [k, 0],
                "coeff_num": [[0, 1]],
                "coeff_den": [[0, 1]],
            }
            for k in range(terms)
        ],
    }
    return {"op": op, "alpha": alpha, "j": [1, 0], "element": element}


def _vbln_copies_request(copies):
    """n = 2: the symbol [](0, 0) with coefficient 1 / (1 + v^2), listed
    copies times; reading merges the copies into one term."""
    term = {
        "matrix": {"n": 2, "entries": []},
        "j": [0, 0],
        "coeff_num": [[0, 1]],
        "coeff_den": [[0, 1], [2, 1]],
    }
    return {"op": "diag-left", "j": [1, 0], "element": {"n": 2, "terms": [term] * copies}}


# (args, payload, exit code) just at and just above each size cap
SIZE_CAP_REQUESTS = {
    "coset-n-at-cap": (["coset"], _unit(cli.MAX_N), 0),
    "coset-n-above-cap": (["coset"], _unit(cli.MAX_N + 1), 2),
    "coset-sigma-at-cap": (["coset"], _unit(2, cli.MAX_COSET_SIGMA), 0),
    "coset-sigma-above-cap": (["coset"], _unit(2, cli.MAX_COSET_SIGMA + 1), 2),
    "schur-mul-n-at-cap": (
        ["schur-mul"],
        {"left": _unit(cli.MAX_N), "right": {"n": cli.MAX_N, "entries": [[2, 2, 1]]}},
        0,
    ),
    "schur-mul-left-n-above-cap": (
        ["schur-mul"],
        {"left": _unit(cli.MAX_N + 1), "right": {"n": cli.MAX_N + 1, "entries": [[2, 2, 1]]}},
        2,
    ),
    "schur-mul-right-n-above-cap": (
        ["schur-mul"],
        {"left": _unit(2), "right": {"n": cli.MAX_N + 1, "entries": [[2, 2, 1]]}},
        2,
    ),
    # sigma = d + 3a on each side: 16 with every entry 4, then 17 with a diagonal 5
    "schur-mul-sigma-at-cap": (["schur-mul"], _schur_size_request(4, 4, 4), 0),
    "schur-mul-sigma-above-cap": (["schur-mul"], _schur_size_request(5, 4, 5), 2),
    "schur-mul-right-sigma-above-cap": (["schur-mul"], _schur_size_request(4, 4, 5), 2),
    "reduce-n-at-cap": (["reduce"], _reduce_request(cli.MAX_N, [0] * cli.MAX_N), 0),
    "reduce-n-above-cap": (
        ["reduce"],
        _reduce_request(cli.MAX_N + 1, [0] * (cli.MAX_N + 1)),
        2,
    ),
    "reduce-part-at-cap": (["reduce"], _reduce_request(2, [cli.MAX_REDUCE_PART, 0]), 0),
    "reduce-part-above-cap": (["reduce"], _reduce_request(2, [cli.MAX_REDUCE_PART + 1, 0]), 2),
    # 3^6 = 729 weight shifts, then 3^5 * 4 = 972
    "reduce-terms-at-cap": (["reduce"], _reduce_request(6, [2] * 6), 0),
    "reduce-terms-above-cap": (["reduce"], _reduce_request(6, [2] * 5 + [3]), 2),
    # |alpha| + dim M(A) = 1 + 4, then 2 + 4
    "hall-dim-at-cap": (["hall", "--q", "2"], _hall_request([1, 0]), 0),
    "hall-dim-above-cap": (["hall", "--q", "2"], _hall_request([2, 0]), 2),
    "hall-n-at-cap": (
        ["hall", "--q", "2"],
        {"alpha": [1] + [0] * (cli.MAX_N - 1), "matrix": _unit(cli.MAX_N)},
        0,
    ),
    "hall-n-above-cap": (
        ["hall", "--q", "2"],
        {"alpha": [1] + [0] * cli.MAX_N, "matrix": _unit(cli.MAX_N + 1)},
        2,
    ),
    "vbln-mul-n-at-cap": (["vbln-mul"], _vbln_request(cli.MAX_N), 0),
    "vbln-mul-n-above-cap": (["vbln-mul"], _vbln_request(cli.MAX_N + 1), 2),
    # the T-enumerator recurses once per row: n = 1000 overflowed the stack
    "vbln-mul-n-far-above-cap": (["vbln-mul"], _vbln_request(1000), 2),
    # |alpha| and the sigma of every label are capped by MAX_VBLN_SIZE
    "vbln-mul-alpha-at-cap": (
        ["vbln-mul"],
        _vbln_size_request("one-layer-upper", [cli.MAX_VBLN_SIZE, 0], cli.MAX_VBLN_SIZE),
        0,
    ),
    "vbln-mul-alpha-above-cap": (
        ["vbln-mul"],
        _vbln_size_request("one-layer-upper", [cli.MAX_VBLN_SIZE + 1, 0], 0),
        2,
    ),
    "vbln-mul-lower-alpha-above-cap": (
        ["vbln-mul"],
        _vbln_size_request("one-layer-lower", [0, cli.MAX_VBLN_SIZE + 1], 0),
        2,
    ),
    "vbln-mul-sigma-at-cap": (
        ["vbln-mul"],
        _vbln_size_request("diag-left", None, cli.MAX_VBLN_SIZE),
        0,
    ),
    "vbln-mul-sigma-above-cap": (
        ["vbln-mul"],
        _vbln_size_request("diag-left", None, cli.MAX_VBLN_SIZE + 1),
        2,
    ),
    "vbln-mul-terms-at-cap": (
        ["vbln-mul"],
        _vbln_size_request("diag-right", None, 1, cli.MAX_REDUCE_TERMS),
        0,
    ),
    "vbln-mul-terms-above-cap": (
        ["vbln-mul"],
        _vbln_size_request("diag-right", None, 1, cli.MAX_REDUCE_TERMS + 1),
        2,
    ),
    # the cap counts the terms as listed, before repeated symbols merge
    "vbln-mul-copies-above-cap": (
        ["vbln-mul"],
        _vbln_copies_request(cli.MAX_REDUCE_TERMS + 1),
        2,
    ),
    # a one-layer product caps the sum over the terms of sigma(A) + |alpha|
    # at 4 * MAX_VBLN_SIZE: 4 * (0 + 16) = 64, then 4 * (1 + 16) = 68
    "vbln-mul-total-at-cap": (
        ["vbln-mul"],
        _vbln_size_request("one-layer-upper", [cli.MAX_VBLN_SIZE, 0], 0, 4),
        0,
    ),
    "vbln-mul-total-above-cap": (
        ["vbln-mul"],
        _vbln_size_request("one-layer-upper", [cli.MAX_VBLN_SIZE, 0], 1, 4),
        2,
    ),
    "vbln-mul-lower-total-above-cap": (
        ["vbln-mul"],
        _vbln_size_request("one-layer-lower", [0, cli.MAX_VBLN_SIZE], 1, 4),
        2,
    ),
    # every matrix has period n >= 2, an element without terms too
    "vbln-mul-n-below-2": (
        ["vbln-mul"],
        {"op": "diag-left", "j": [0], "element": {"n": 1, "terms": []}},
        2,
        "period must be at least 2",
    ),
    "vbln-mul-n-zero": (
        ["vbln-mul"],
        {"op": "one-layer-upper", "alpha": [], "element": {"n": 0, "terms": []}},
        2,
        "period must be at least 2",
    ),
}


@pytest.mark.parametrize("case", sorted(SIZE_CAP_REQUESTS))
def test_size_caps(case, tmp_path, capsys):
    # a rejected request names its rule on stderr, "exceeds the cap" by default
    args, payload, want, *rule = SIZE_CAP_REQUESTS[case]
    code, _, out = run_cli(args, payload, tmp_path)
    assert code == want and out.exists() == (want == 0)
    message = rule[0] if rule else "exceeds the cap"
    assert (message in capsys.readouterr().err) == (want == 2)


def test_vbln_mul_merges_copies_over_their_common_denominator(tmp_path):
    # 729 copies of 1 / (1 + v^2) sum to 729 / (1 + v^2), not to a
    # fraction over (1 + v^2)^729
    code, data, _ = run_cli(["vbln-mul"], _vbln_copies_request(cli.MAX_REDUCE_TERMS), tmp_path)
    assert code == 0
    assert data["terms"] == [
        {
            "coeff_den": [[0, 1], [2, 1]],
            "coeff_num": [[0, 729]],
            "j": [1, 0],
            "matrix": {"entries": [], "n": 2},
        }
    ]


@pytest.mark.parametrize("op", ["diag-left", "diag-right", "one-layer-upper"])
def test_vbln_mul_checks_every_weight_length(op, tmp_path, capsys):
    # a weight longer than n is rejected on reading, not truncated by the diagonal ops
    payload = {"op": op, "j": [0, 1], "alpha": [1, 0], "element": _one_term_element(j=(0, 1, 5))}
    code, _, out = run_cli(["vbln-mul"], payload, tmp_path)
    assert code == 2 and not out.exists()
    assert "weight length mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("basis", ["e", "n"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_schur_mul_rejects_negative_entries(side, basis, tmp_path, capsys):
    payload = {
        "left": {"n": 2, "entries": [[1, 1, 1], [1, 2, 1]]},
        "right": {"n": 2, "entries": [[1, 1, 2], [2, 1, 1]]},
    }
    payload[side]["entries"][1][2] = -1
    code, _, out = run_cli(["schur-mul", "--basis", basis], payload, tmp_path)
    assert code == 2 and not out.exists()
    assert "nonnegative" in capsys.readouterr().err


def test_hall_rejects_an_oversized_census_before_the_product(tmp_path, monkeypatch):
    def never(alpha, A):
        raise RuntimeError("the closed-form product ran")

    monkeypatch.setattr(Ha, "semisimple_hall_product", never)
    entries = [[1, 2, 20], [2, 3, 20], [1, 3, 10]]
    payload = {"alpha": [20, 20], "matrix": {"n": 2, "entries": entries}}
    code, _, out = run_cli(["hall", "--q", "2"], payload, tmp_path)
    assert code == 2 and not out.exists()


def test_failed_oracle_division_exits_3(tmp_path, monkeypatch, capsys):
    # a wrong factorial scale makes the exact division fail on valid labels;
    # the oracle table is cleared on both sides of the patch, so that no
    # product memoized before it skips the patch and none memoized under it
    # outlives it
    S._oracle_mul.cache_clear()
    monkeypatch.setattr(H, "coset_factor", lambda B: {0: 3})
    args = ["verify", "--suite", "schur-oracle", "--n", "2", "--r", "2"]
    code, _, out = run_cli(args, None, tmp_path)
    S._oracle_mul.cache_clear()
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err.startswith("internal error: oracle peeling failed")


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(left, right):
        raise AssertionError("support did not shrink during peeling")

    monkeypatch.setattr(S, "e_mul_upper", broken)
    payload = {
        "left": {"n": 2, "entries": [[1, 2, 1], [1, 1, 1]]},
        "right": {"n": 2, "entries": [[2, 1, 1], [1, 1, 1]]},
    }
    code, _, out = run_cli(["schur-mul"], payload, tmp_path)
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == "internal error: support did not shrink during peeling\n"


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    payload = {
        "left": {"n": 2, "entries": [[1, 2, 1], [1, 1, 1]]},
        "right": {"n": 2, "entries": [[2, 1, 1], [1, 1, 1]]},
    }
    assert run_cli(["schur-mul", "--basis", "n"], payload, tmp_path)[1]["basis"] == "n"
    assert run_cli(["schur-mul"], payload, tmp_path)[1]["basis"] == "e"
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "unknown"])
    code, data, _ = run_cli(["coset"], {"n": 2, "entries": [[1, 2, 1], [2, 1, 1]]}, tmp_path)
    assert code == 0 and data["length"] == 1
    payload = {"alpha": [1, 0], "matrix": {"n": 2, "entries": [[1, 2, 1]]}}
    code, data, _ = run_cli(["hall", "--q", "3"], payload, tmp_path)
    assert code == 0 and data["terms"][0]["checks"] == [[3, 4, 4]]
    code, data, _ = run_cli(["hall"], payload, tmp_path)
    assert code == 0 and data["terms"][0]["checks"] == [[2, 3, 3], [3, 4, 4]]


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(20):
            code, _, _ = run_cli(["coset"], {"n": 2, "entries": [[1, 1, 2]]}, tmp_path)
            assert code == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


COSET_A = {"n": 2, "entries": [[1, 1, 2]]}
COSET_B = {"n": 2, "entries": [[1, 2, 1], [2, 1, 1]]}


def test_each_distinct_argv_is_parsed_once(tmp_path, monkeypatch):
    cli._parsed.cache_clear()
    parser = cli._parser()
    parses = []
    real = parser.parse_args

    def counting(argv):
        parses.append(tuple(argv))
        return real(argv)

    monkeypatch.setattr(parser, "parse_args", counting)
    for k in range(20):
        payload, name, length = (COSET_A, "a.json", 0) if k % 2 else (COSET_B, "b.json", 1)
        code, data, _ = run_cli(["coset"], payload, tmp_path, name)
        assert code == 0 and data["length"] == length
    assert len(parses) == 2 and len(set(parses)) == 2
    assert cli._parsed.cache_info().currsize == 2


def test_a_command_that_changes_its_args_leaves_the_next_call_as_parsed(monkeypatch):
    cli._parsed.cache_clear()
    seen = []

    def mutating(args):
        seen.append(dict(vars(args)))
        args.out = "elsewhere.json"
        args.infile = None
        del args.func
        return 0

    # the parser binds cmd_coset when it is built: rebuild it around the
    # patch, and again after it, so that no later test meets the patch
    monkeypatch.setattr(cli, "cmd_coset", mutating)
    cli._parser.cache_clear()
    try:
        argv = ["coset", "--in", "a.json", "--out", "b.json"]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0
    finally:
        cli._parser.cache_clear()
        cli._parsed.cache_clear()
    parsed = {"command": "coset", "infile": "a.json", "out": "b.json", "func": mutating}
    assert seen == [parsed, parsed]


def test_a_usage_error_is_never_stored(tmp_path, capsysbinary):
    cli._parsed.cache_clear()
    assert run_cli(["coset"], COSET_A, tmp_path)[0] == 0
    size = cli._parsed.cache_info().currsize
    capsysbinary.readouterr()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coset", "--basis", "e"])
        errors.append((exc.value.code, capsysbinary.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2 and b"unrecognized arguments: --basis e" in errors[0][1]
    assert cli._parsed.cache_info().currsize == size
    code, data, _ = run_cli(["coset"], COSET_B, tmp_path)
    assert code == 0 and data["length"] == 1


def test_main_without_argv_reads_the_sys_argv_of_each_call(tmp_path, monkeypatch):
    cli._parsed.cache_clear()
    for name, payload, length in (("a", COSET_A, 0), ("b", COSET_B, 1)):
        src, out = tmp_path / (name + ".json"), tmp_path / ("out-" + name + ".json")
        src.write_text(json.dumps(payload))
        monkeypatch.setattr(sys, "argv", ["affq", "coset", "--in", str(src), "--out", str(out)])
        assert cli.main() == 0
        assert json.loads(out.read_text())["length"] == length


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # a fresh interpreter: this one has loaded multiprocessing long since;
    # the pool's context loads it, which shows the check can fail
    code = (
        "import sys, affq.cli\n"
        "before = 'multiprocessing' in sys.modules\n"
        "affq.verify.get_context('spawn')\n"
        "print(before, 'multiprocessing' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["False", "True"]


def test_verify_command_restricted_grid(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--suite", "schur-oracle", "--n", "2", "--r", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    (suite,) = report["suites"]
    assert suite["suite"] == "schur-oracle"
    assert suite["cases"] == 1
    assert suite["checks"] > 100


def test_verify_output_is_deterministic_across_jobs(tmp_path):
    outs = []
    for jobs, name in (("1", "a.json"), ("2", "b.json")):
        out = tmp_path / name
        code = cli.main(
            ["verify", "--suite", "triangular", "--jobs", jobs, "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_rejects_bad_grid():
    assert cli.main(["verify", "--suite", "laurent", "--n", "7"]) == 2
    assert cli.main(["verify", "--suite", "laurent", "--q", "5"]) == 2
    assert cli.main(["verify", "--suite", "laurent", "--r", "0"]) == 2
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "unknown"])


@pytest.mark.parametrize("suite", ["triangular", "commutator", "all"])
def test_verify_refuses_a_grid_without_n_2_for_the_fixed_suites(
    suite, tmp_path, monkeypatch, capsys
):
    # triangular and commutator run fixed n = 2 grids: a request without
    # n = 2 exits 2 before any case of the run starts, --suite all included
    started = []
    for name, (builder, _) in list(V._SUITES.items()):
        monkeypatch.setitem(V._SUITES, name, (builder, started.append))
    code, _, out = run_cli(["verify", "--suite", suite, "--n", "3"], None, tmp_path)
    assert code == 2 and not out.exists() and started == []
    assert "grid is fixed at n = 2" in capsys.readouterr().err


def test_verify_rejects_empty_q_list(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "hall", "--n", "2", "--r", "2", "--q", ",", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    with pytest.raises(ValueError):
        V.Config(q_list=()).validate()


def test_run_suite_validation():
    with pytest.raises(ValueError):
        V.run_suite("unknown")
    cfg = V.Config(jobs=0)
    with pytest.raises(ValueError):
        cfg.validate()


def test_verify_caps_the_worker_count(tmp_path):
    with pytest.raises(ValueError):
        V.Config(jobs=V.MAX_JOBS + 1).validate()
    V.Config(jobs=V.MAX_JOBS).validate()
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "laurent", "--jobs", str(V.MAX_JOBS + 1), "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()


def test_verify_caps_the_level(tmp_path):
    with pytest.raises(ValueError):
        V.Config(r_max=V.MAX_LEVEL + 1).validate()
    with pytest.raises(ValueError):
        V.Config(r_min=V.MAX_LEVEL + 1, r_max=V.MAX_LEVEL + 1).validate()
    V.Config(r_max=V.MAX_LEVEL).validate()
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "laurent", "--r-max", str(V.MAX_LEVEL + 1), "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()


class FakeContext:
    """Stands in for a multiprocessing context: records each pool size and
    maps in this process, so no worker starts."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def test_verify_pool_has_at_most_one_worker_per_case(monkeypatch):
    ctx = FakeContext()
    monkeypatch.setattr(V, "get_context", lambda method: ctx)
    cfg = V.Config(n_list=(2,), r_min=2, r_max=2, jobs=V.MAX_JOBS)
    cases = len(V._SUITES["laurent"][0](cfg))
    assert 1 < cases < V.MAX_JOBS
    assert V.run_suite("laurent", cfg)["cases"] == cases
    cfg.jobs = 2
    V.run_suite("laurent", cfg)
    assert ctx.sizes == [cases, 2]


def test_suite_names_cover_criteria():
    assert V.SUITE_NAMES == (
        "schur-oracle",
        "coset-length",
        "hecke",
        "hall",
        "commutator",
        "level-coherence",
        "triangular",
        "laurent",
    )


def test_cli_output_bytes_match_golden(tmp_path):
    # The bytes pin each coefficient's num/den representation, which
    # LaurentFraction equality (cross multiplication) would not notice.
    # Regenerate with tests/data/make_cli_golden.py.
    golden = Path(__file__).parent / "data" / "cli_golden.jsonl"
    records = [json.loads(line) for line in golden.read_text().splitlines()]
    assert {r["args"][0] for r in records} == {"schur-mul", "vbln-mul", "hall"}
    for k, rec in enumerate(records):
        src = tmp_path / ("in-%d.json" % k)
        out = tmp_path / ("out-%d.json" % k)
        src.write_text(json.dumps(rec["input"]))
        assert cli.main(rec["args"] + ["--in", str(src), "--out", str(out)]) == 0
        assert out.read_text() == rec["output"], rec["args"]
