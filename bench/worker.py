"""One benchmark pass in a fresh process.

run.py spawns this script once per pass, so the library's
module caches start cold, as they do for a user's ``affq`` command, and no
pass warms the next.  It prints one JSON line per operation, then a summary
object on its last stdout line.

    python3 bench/worker.py --workload suites --seed 1 --spawned-at T [--trace 1]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn;
the set-up time runs from there to the first timed operation.  Every time
is reported in reference seconds (speed.py), with the raw seconds beside it.
"""

import argparse
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import speed  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def peak_rss_mb():
    """Peak resident set size of this process image, in MB.

    VmHWM, not ru_maxrss: Linux carries the parent's resident size over
    exec into ru_maxrss, which would then grow with run.py's memory.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Raw intervals of the pass, adjusted once the meter has stopped."""

    def __init__(self, meter):
        self.meter = meter
        self.spans = []

    def now(self):
        return time.perf_counter(), self.meter.stolen

    def span(self, start, end):
        self.spans.append((start, end))
        return end[0] - start[0]

    def adjusted(self):
        return [self.meter.adjusted(a, b, sb - sa) for (a, sa), (b, sb) in self.spans]


def run_suites(verify, ops, emit, clock):
    start = clock.now()
    for suite, kwargs in ops:
        t0 = clock.now()
        error = None
        rep = None
        try:
            rep = verify.run_suite(suite, verify.Config(jobs=1, **kwargs))
        except Exception as exc:  # one failed operation, the pass goes on
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = clock.span(t0, clock.now())
        rec = {"op": W.op_label(suite, kwargs), "suite": suite, "raw_seconds": seconds, "error": error}
        if rep is not None:
            diffs = sum(max(1, len(m.get("diffs", ()))) for m in rep["mismatches"])
            rec.update(ok=bool(rep["ok"]), checks=rep["checks"], cases=rep["cases"], diffs=diffs)
            if rep["mismatches"]:
                rec["first_mismatch"] = json.dumps(rep["mismatches"][0], sort_keys=True)[:400]
        emit(rec)
    return clock.span(start, clock.now())


def run_queries(cli, requests, emit, clock):
    """The closed loop: one client, the next request after each response."""
    chain_out = {}
    real = sys.stdin, sys.stdout, sys.stderr
    start = clock.now()
    for req in requests:
        payload = req["payload"]
        if req["cmd"] == "vbln-mul":
            element = chain_out.get(req["chain"])
            if element is None:
                emit({"code": None, "out": "", "error": "chain broken", "raw_seconds": 0.0})
                now = clock.now()
                clock.span(now, now)  # one span per record, as for the others
                continue
            payload = dict(payload, element=element)
        stdin, stdout, stderr = io.StringIO(json.dumps(payload)), io.StringIO(), io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
        error = None
        t0 = clock.now()
        try:
            code = cli.main(list(req["argv"]))
        except (Exception, SystemExit) as exc:  # counted as a failed request
            code = None
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            seconds = clock.span(t0, clock.now())
            sys.stdin, sys.stdout, sys.stderr = real
        out = stdout.getvalue()
        if req["chain"] is not None:
            element = None
            if code == 0:
                try:
                    element = json.loads(out)
                except ValueError:
                    pass
            chain_out[req["chain"]] = element
        emit({"code": code, "out": out, "error": error, "stderr": stderr.getvalue()[:200], "raw_seconds": seconds})
    return clock.span(start, clock.now())


def layer_modules():
    mods = {}
    for layer in T.LAYERS:
        try:
            mods[layer] = importlib.import_module("affq." + layer)
        except ImportError:
            pass  # a removed layer: its metrics are reported absent
    return mods


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-failure", action="store_true")
    args = ap.parse_args(argv)
    meter = speed.SpeedMeter().start()
    clock = Clock(meter)

    sys.path.insert(0, str(ROOT / "src"))
    mods = layer_modules()
    cli, verify = mods["cli"], mods["verify"]
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write("affq was not imported from %s\n" % (ROOT / "src"))
        return 2
    if args.workload == "queries":
        work = W.query_list(args.seed, args.tiny, args.inject_failure)
    else:
        work = W.suite_ops(args.workload, args.tiny, args.inject_failure)
    tracer = T.Tracer(mods).install() if args.trace else None
    setup_end = clock.now()
    setup_s = clock.span((setup_end[0] - (time.monotonic() - args.spawned_at), 0.0), setup_end)
    result = {"raw_setup_s": setup_s}
    if not args.setup_only:
        # One line per operation as it completes, so responses are not
        # kept in this process and do not count in its peak RSS.
        real_stdout = sys.stdout

        def emit(rec):
            real_stdout.write(json.dumps(rec) + "\n")

        if args.workload == "queries":
            wall = run_queries(cli, work, emit, clock)
        else:
            wall = run_suites(verify, work, emit, clock)
        result.update(raw_wall_s=wall, peak_rss_mb=peak_rss_mb())
        if tracer is not None:
            tracer.uninstall()
            result["trace"], result["absent"] = tracer.metrics()
    meter.stop()
    # Spans in order: set-up, one per operation, then the whole pass.
    adjusted = clock.adjusted()
    result.update(setup_s=adjusted[0], slowness=meter.mean_slowness())
    if not args.setup_only:
        result.update(op_seconds=adjusted[1:-1], wall_s=adjusted[-1])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
