"""One workload's passes in a fresh process; prints a JSON report as its last line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
A closed loop with one client: each operation starts when the previous one
has returned.  A pass runs the workload's operations once, in order; the
first operation is preceded by one untimed warm-up operation.  Outputs are
captured during a pass and checked after its timer stops.  Operations are
timed in process CPU time and scaled to the reference pace (``pace.py``);
their raw wall times are reported beside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import ops
import spans
from pace import Pace

ROOT = Path(__file__).resolve().parent.parent


def _run_pass(cli, operations, pace=None, tracer=None):
    """Run every operation once; returns (cpu, wall, [(op, code, stdout)]).

    ``cpu`` holds each operation's process CPU time less the probes taken
    during it, scaled to the reference pace around it when ``pace`` is
    running; ``wall`` holds its raw wall time.
    """
    cpu, intervals, results = [], [], []
    for index, op in enumerate(operations):
        if tracer is not None:
            tracer.op = index
        buffer = io.StringIO()
        probes = pace.probe_cpu if pace else 0.0
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # a raising operation counts as failed
            code = f"raised {type(exc).__name__}: {exc}"
        c1, t1 = time.process_time(), time.perf_counter()
        cpu.append(c1 - c0 - ((pace.probe_cpu - probes) if pace else 0.0))
        intervals.append((t0, t1))
        results.append((op, code, buffer.getvalue()))
    if pace:
        cpu = [c * pace.scale(t0, t1) for c, (t0, t1) in zip(cpu, intervals)]
    return cpu, [t1 - t0 for t0, t1 in intervals], results


def _failures(results) -> list[str]:
    failures = []
    for op, code, out in results:
        try:
            if isinstance(code, str):
                raise ops.Mismatch(code)
            op.check(code, out)
        except Exception as exc:  # a malformed output is a mismatch, whatever the parse error
            failures.append(f"{op.label}: {exc}")
    return failures


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans-out", default=None,
                        help="trace one extra pass and write its spans here")
    args = parser.parse_args()

    from magdecay import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"magdecay imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1

    operations = ops.WORKLOADS[args.workload](args.seed)
    deadline = time.perf_counter() + args.seconds
    pace = Pace()
    pace.start()
    try:
        _, _, results = _run_pass(cli, [ops.warmup()], pace)
        failures = _failures(results)
        attempted = 1
        passes, latencies, pass_walls, wall_latencies = [], [], [], []
        # stop before a pass that is expected to overrun the measuring time
        while not passes or (args.spans_out is None
                             and time.perf_counter() + pass_walls[-1] <= deadline):
            cpu, wall, results = _run_pass(cli, operations, pace)
            passes.append(sum(cpu))
            latencies += cpu
            pass_walls.append(sum(wall))
            wall_latencies += wall
            failures += _failures(results)
            attempted += len(results)
    finally:
        pace.stop()

    report = {}
    if args.spans_out is not None:
        # the overhead compares an untraced and a traced pass, both unpaced,
        # in unscaled CPU time
        cpu, _, results = _run_pass(cli, operations)
        untraced_cpu = sum(cpu)
        failures += _failures(results)
        attempted += len(results)
        tracer = spans.Tracer()
        tracer.install()
        try:
            cpu, _, results = _run_pass(cli, operations, tracer=tracer)
        finally:
            tracer.uninstall()
        failures += _failures(results)
        attempted += len(results)
        report["layers"] = spans.layer_metrics(tracer.spans)
        report["trace_overhead_cpu"] = sum(cpu) - untraced_cpu
        report["missing_bindings"] = tracer.missing
        tracer.write(args.spans_out)

    report.update(
        passes=passes,
        latencies=latencies,
        pass_walls=pass_walls,
        wall_latencies=wall_latencies,
        pace_samples=len(pace.samples),
        probe_mean_s=statistics.fmean(pace.samples),
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        environment=_environment(),
    )
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
