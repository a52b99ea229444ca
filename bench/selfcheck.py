"""Fast self-check of the benchmark (about 20 s on 2 vCPUs).

    python3 bench/selfcheck.py

Runs run.py at its tiny scale (one schur-oracle grid point, n=2, r=2, or
the first 20 requests of `queries`) and checks that:

- BENCHMARK.json names exactly the metrics run.py reports, with the same units;
- every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) is printed by name with its unit, on a text line and in
  the final JSON object, on a suite workload and on `queries`;
- an operation injected to fail raises failed_frac and ``failed`` and makes
  the run incorrect, on a suite workload and on `queries`;
- the tracer reports the metrics of a deleted function or layer as absent
  instead of failing;
- the speed correction divides each stretch of time by the slowness sampled
  in it.

Exits 1 and lists the problems when any check fails.
"""

import json
import re
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run as R  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

LINE = re.compile(r"^(\S+)\s+(-?[0-9.]+(?:e[-+]?\d+)?)\s+(\S+)$")
FAILED = re.compile(r"^failed_frac ([0-9.]+) share")

problems = []


def check(cond, msg):
    if not cond:
        problems.append(msg)


def bench(workload, trace, inject=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    if inject:
        cmd.append("--inject-failure")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, "%s exited %d: %s" % (" ".join(cmd[2:]), proc.returncode, proc.stderr[-400:]))
    lines = proc.stdout.strip().splitlines() or ["{}"]
    printed = {}
    failed_frac = None
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = m.group(3)
        m = FAILED.match(line)
        if m:
            failed_frac = float(m.group(1))
    return printed, failed_frac, json.loads(lines[-1])


def check_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, catalog in (("end_to_end", R.END_TO_END), ("per_layer", R.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        check(listed == list(catalog), "BENCHMARK.json %s differs from run.py" % key)
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(W.WORKLOADS), "BENCHMARK.json workloads differ from workloads.py")


def check_metrics(workload, trace):
    catalog = R.PER_LAYER if trace else R.END_TO_END
    printed, failed_frac, result = bench(workload, trace)
    check(result.get("correct") is True, "%s trace=%d: not correct" % (workload, trace))
    check(failed_frac is not None, "%s trace=%d: no failed_frac line" % (workload, trace))
    metrics = result.get("metrics", {})
    check(set(metrics) == {name for name, _ in catalog}, "%s trace=%d: JSON metric set differs" % (workload, trace))
    for name, unit in catalog:
        check(printed.get(name) == unit, "%s trace=%d: %s not printed with unit %s" % (workload, trace, name, unit))
        got = metrics.get(name, {})
        check(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
              "%s trace=%d: %s missing from the JSON result" % (workload, trace, name))
    return failed_frac, result


def check_injection(workload):
    base_frac, base = check_metrics(workload, 0)
    _, frac, result = bench(workload, 0, inject=True)
    check(frac is not None and base_frac is not None and frac > base_frac,
          "%s: injected failure did not raise failed_frac (%s -> %s)" % (workload, base_frac, frac))
    check(result.get("failed", 0) > base.get("failed", 0), "%s: injected failure not counted" % workload)
    check(result.get("correct") is False, "%s: injected failure left the run correct" % workload)


def check_absent():
    # A laurent layer that kept only mul, and no other layer at all.
    fake = types.ModuleType("affq.laurent")
    exec("def mul(f, g):\n    return {}\n", fake.__dict__)
    tracer = R.T.Tracer({"laurent": fake}).install()
    fake.mul({}, {})
    tracer.uninstall()
    metrics, absent = tracer.metrics()
    check(metrics.get("laurent.mul.calls") == 1, "tracer missed a call to a present function")
    for name in ("laurent.divexact.calls", "laurent.gauss_sq.repeat_share", "hall.calls", "cli.self_s"):
        check(name in absent, "tracer did not report %s as absent" % name)


def check_speed():
    # Samples each second: fast, fast, twice as slow, twice as slow, fast,
    # fast.  Samples 2 and 3 cover [1.5, 3.5) and survive the smoothing.
    meter = speed.SpeedMeter()
    meter.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    meter.samples = [speed.NOMINAL_S * x for x in (1, 1, 2, 2, 1, 1)]
    meter.stop()
    check(abs(meter.adjusted(1.5, 3.5) - 1.0) < 1e-9, "speed: slow stretch not halved")
    check(abs(meter.adjusted(0.0, 1.5) - 1.5) < 1e-9, "speed: fast stretch changed")
    check(abs(meter.adjusted(2.0, 2.2, 0.1) - 0.05) < 1e-9, "speed: sampling time not taken out")


def main():
    check_catalog()
    check_absent()
    check_speed()
    for workload in W.WORKLOADS:
        check_injection(workload)
        check_metrics(workload, 1)
    for msg in problems:
        print("selfcheck: " + msg)
    print("selfcheck: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
