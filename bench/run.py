"""affq benchmark: end-to-end and per-layer metrics on two workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload suites --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45   # both in turn

Workloads (see workloads.py):
  suites     schur-oracle, hecke and coset-length (n in {2, 3}, levels 2-3),
             then level-coherence (n=2, levels <= 3), triangular, commutator
  queries    a closed loop of 2400 seeded CLI requests from one client

Every pass runs in a fresh worker process (worker.py), so the library's
module caches start cold in each, as in a user's ``affq`` command.  Passes
repeat until ``--seconds`` have gone by; each metric is the median over the
passes.  Times are in reference seconds: raw seconds corrected for the
host's speed, which the worker samples while it runs (speed.py).  An operation on ``suites`` is one ``verify.run_suite`` call on
one grid point; on ``queries`` it is one ``cli.main`` call.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs one untraced pass and then traced passes, and prints the per-layer
metrics.  Every suite report must be ``ok`` and every CLI response must pass
its check (checks.py).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts every failed check, raised operation and wrong response.
``correct`` is false when any of them is not the known defect: the seed
program accepts JSON floats and booleans where integers belong (exit 0
instead of 2), so the coercion requests on ``queries`` fail until that is
fixed.  The run exits 2 without a result when the program is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_PROBES = 6  # extra set-up-only spawns per untraced run
HARD_LIMIT_S = 140.0  # passes stop here; checks follow, all within 180 s

SUITES = tuple(dict.fromkeys(suite for ops in W.SUITE_OPS.values() for suite, _ in ops))

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer():
    out = []
    for layer in T.LAYERS:
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s"), (layer + ".errors", "count")]
    out += [
        ("laurent.mul.calls", "count"),
        ("laurent.mul.self_s", "s"),
        ("laurent.divexact.calls", "count"),
        ("laurent.frac.calls", "count"),
        ("laurent.frac.self_s", "s"),
        ("laurent.frac_den_span.max", "degree"),
        ("laurent.gauss_sq.calls", "count"),
        ("laurent.gauss_sq.repeat_share", "share"),
        ("matrices.pmat.calls", "count"),
        ("matrices.pmat.self_s", "s"),
        ("permutations.length.calls", "count"),
        ("permutations.length.self_s", "s"),
        ("hecke.left_mul_gen.calls", "count"),
        ("hecke.left_mul_gen.self_s", "s"),
        ("hecke.support.max", "terms"),
        ("schur.oracle.calls", "count"),
        ("schur.oracle.self_s", "s"),
        ("schur.oracle_mul.repeat_share", "share"),
        ("schur.closed.calls", "count"),
        ("schur.closed.self_s", "s"),
        ("schur.A_j_r.calls", "count"),
        ("schur.A_j_r.repeat_share", "share"),
        ("hall.submodule_census.calls", "count"),
        ("hall.submodule_census.self_s", "s"),
        ("hall.submodule_census.repeat_share", "share"),
        ("hall.enumerate_labels.calls", "count"),
        ("realization.eval_at_level.calls", "count"),
        ("realization.eval_at_level.self_s", "s"),
        ("realization.products.calls", "count"),
        ("realization.products.self_s", "s"),
        ("realization.reduce_j_lambda.calls", "count"),
        ("realization.terms.max", "terms"),
    ]
    out += [("verify.%s.wall_s" % s, "s") for s in SUITES]
    out += [("verify.checks", "count"), ("verify.cases", "count")]
    out += [("cli.%s.p50_ms" % c, "ms") for c in W.QUERY_COMMANDS]
    out += [("trace.overhead_ratio", "ratio")]
    return tuple(out)


PER_LAYER = _per_layer()


class BenchError(Exception):
    """The benchmark itself could not run (not an operation failure)."""


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "affq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(args, trace, setup_only, deadline_hard):
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_failure:
        cmd.append("--inject-failure")
    # The same interpreter settings in every environment: no PYTHON*
    # variable from outside (PYTHONDONTWRITEBYTECODE would add compile time
    # to set-up, PYTHONPATH could shadow the checkout), one hash seed.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline_hard - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError("worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-800:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["records"] = [json.loads(line) for line in lines[:-1]]
    for rec, seconds in zip(result["records"], result.get("op_seconds", ())):
        rec["seconds"] = seconds
    return result


# ----------------------------------------------------------------------
# correctness


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.reasons = []

    def fail(self, what, reason, known=False):
        self.failed += 1
        if known:
            self.known_defect += 1
        elif len(self.reasons) < 8:
            self.reasons.append("%s: %s" % (what, reason))


def check_suite_pass(result, tally):
    for rec in result["records"]:
        if rec["error"]:
            tally.attempted += 1
            tally.fail(rec["op"], rec["error"])
            continue
        tally.attempted += rec["checks"]
        if not rec["ok"]:
            for _ in range(rec["diffs"]):
                tally.fail(rec["op"], "mismatch %s" % rec.get("first_mismatch", ""))


def _checker():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import checks
    from affq import laurent, matrices, permutations, realization, schur

    return checks.QueryChecker(laurent, matrices, permutations, schur, realization)


def check_query_pass(result, requests, checker, tally):
    chain_out = {}
    for k, (req, rec) in enumerate(zip(requests, result["records"])):
        tally.attempted += 1
        payload = req["payload"]
        if req["cmd"] == "vbln-mul":
            payload = dict(payload, element=chain_out.get(req["chain"]))
        if req["chain"] is not None:
            chain_out[req["chain"]] = json.loads(rec["out"]) if rec["code"] == 0 else None
        reason = checker.verdict(req, payload, rec)
        if reason is not None:
            known = req["kind"].startswith("coercion") and rec["code"] == 0
            tally.fail("%s #%d" % (req["cmd"], k), reason, known)
    if len(result["records"]) != len(requests):
        tally.fail("queries", "worker answered %d of %d requests" % (len(result["records"]), len(requests)))


# ----------------------------------------------------------------------
# metrics


def op_seconds(result):
    return [rec["seconds"] for rec in result["records"] if rec.get("error") != "chain broken"]


def end_to_end(setups, passes):
    med = statistics.median
    return {
        "setup_s": med(setups),
        "wall_s": med([p["wall_s"] for p in passes]),
        "query_p50_ms": med([percentile(op_seconds(p), 50) * 1e3 for p in passes]),
        "query_p99_ms": med([percentile(op_seconds(p), 99) * 1e3 for p in passes]),
        "peak_rss_mb": med([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(untraced, traced, requests):
    out = {}
    names = set()
    for p in traced:
        names.update(p["trace"])
    for name in names:
        vals = [p["trace"][name] for p in traced if name in p["trace"]]
        out[name] = statistics.median(vals)
    for suite in SUITES:
        out["verify.%s.wall_s" % suite] = sum(
            rec["seconds"] for rec in untraced["records"] if rec.get("suite") == suite
        )
    out["verify.checks"] = sum(rec.get("checks", 0) for rec in untraced["records"])
    out["verify.cases"] = sum(rec.get("cases", 0) for rec in untraced["records"])
    for cmd in W.QUERY_COMMANDS:
        times = []
        if requests is not None:
            times = [
                rec["seconds"]
                for req, rec in zip(requests, untraced["records"])
                if req["cmd"] == cmd and rec.get("error") != "chain broken"
            ]
        out["cli.%s.p50_ms" % cmd] = percentile(times, 50) * 1e3 if times else 0.0
    out["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / untraced["wall_s"]
    return out


def measure(args):
    start = time.monotonic()
    deadline = start + args.seconds
    hard = start + HARD_LIMIT_S
    requests = None
    checker = None
    if args.workload == "queries":
        requests = W.query_list(args.seed, args.tiny, args.inject_failure)
        checker = _checker()
    tally = Tally()

    def run_passes(trace):
        """Passes until the deadline (at least one), each in a fresh process."""
        passes = []
        while True:
            t0 = time.monotonic()
            passes.append(spawn(args, trace, False, hard))
            now = time.monotonic()
            if now >= deadline or now + 1.2 * (now - t0) >= hard:
                return passes

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if not args.trace:
        spawn(args, False, True, hard)  # warm-up: byte-compiles the sources once
        setups = [spawn(args, False, True, hard)["setup_s"] for _ in range(SETUP_PROBES)]
        passes = run_passes(False)
        setups += [p["setup_s"] for p in passes]
        metrics = end_to_end(setups, passes)
        units = dict(END_TO_END)
        info.update(
            passes=len(passes),
            pass_wall_s=[round(p["wall_s"], 4) for p in passes],
            raw_pass_wall_s=[round(p["raw_wall_s"], 4) for p in passes],
            host_slowness=[round(p["slowness"], 3) for p in passes],
            setup_samples=len(setups),
            op_samples=len(op_seconds(passes[0])),
        )
        absent = []
    else:
        passes = [spawn(args, False, False, hard)]
        traced = run_passes(True)
        metrics = per_layer(passes[0], traced, requests)
        units = dict(PER_LAYER)
        absent = sorted(set(traced[0]["absent"]))
        info.update(passes=1, traced_passes=len(traced))
        passes += traced
    # Outputs are checked after the timed passes, in this process.
    for result in passes:
        if requests is None:
            check_suite_pass(result, tally)
        else:
            check_query_pass(result, requests, checker, tally)
    return info, metrics, units, absent, tally


def report(info, metrics, units, absent, tally):
    """Print the human-readable lines, then the one-line JSON result."""
    print("env " + json.dumps(environment(), sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    ordered = [name for name, _ in (PER_LAYER if info["trace"] else END_TO_END)]
    for name in ordered:
        if name in metrics:
            print("%-40s %14.6f %s" % (name, metrics[name], units[name]))
    for name in absent:
        print("%-40s %14s (function gone from the program)" % (name, "absent"))
    if info["trace"]:
        total = sum(metrics.get(layer + ".self_s", 0.0) for layer in T.LAYERS) or 1.0
        print("self-time share: " + ", ".join(
            "%s %.1f%%" % (layer, 100.0 * metrics.get(layer + ".self_s", 0.0) / total) for layer in T.LAYERS
        ))
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print("failed_frac %.6f share (%d of %d; %d of them the known coercion defect)"
          % (frac, tally.failed, tally.attempted, tally.known_defect))
    for reason in tally.reasons:
        print("  failed: " + reason)
    result = {
        "correct": tally.failed == tally.known_defect,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in ordered if name in metrics
        },
    }
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check scale: one tiny op or 20 requests")
    ap.add_argument("--inject-failure", action="store_true", help="append one operation that must fail")
    args = ap.parse_args(argv)
    if not (SRC / "affq" / "cli.py").is_file():
        sys.stderr.write("bench: no program at %s; run from the root of an affq checkout\n" % SRC)
        return 2
    workloads = W.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            args.workload = workload
            report(*measure(args))
    except BenchError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
