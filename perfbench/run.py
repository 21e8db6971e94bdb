#!/usr/bin/env python3
"""The magdecay benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Every process it starts is a fresh Python
interpreter importing magdecay from the checkout's ``src``, with the BLAS
thread count pinned.  The metric names and units come from
``BENCHMARK.json``; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# fresh interpreters timed for setup_s, half before the worker and half
# after it; the very first is discarded because it may compile bytecode
SETUP_RUNS_EACH_SIDE = 4
BLAS_THREADS = "1"
# every child must have ended this long after the start of the run
RUN_TIMEOUT_S = 170.0
_CLOCK = "time.clock_gettime(time.CLOCK_MONOTONIC)"
# the child's CPU clock starts when it is spawned; the pace probes run
# after the parser is built, outside the timed part
_SETUP_PROBE = (
    f"import time; t0 = {_CLOCK}; c0 = time.process_time()\n"
    "import magdecay.cli\n"
    f"t1 = {_CLOCK}; c1 = time.process_time()\n"
    "magdecay.cli.build_parser()\n"
    f"t2 = {_CLOCK}; c2 = time.process_time()\n"
    f"import sys; sys.path.insert(0, {str(HERE)!r}); import pace\n"
    "print(t2, c1 - c0, c2, pace.scale_now())\n"
)


class BenchmarkError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_child(argv: list[str], env: dict[str, str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {argv[:2]} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child {argv[:2]} exited with code {proc.returncode}")
    return proc.stdout


def setup_samples(env: dict[str, str], count: int, deadline: float) -> list[tuple[float, ...]]:
    """(setup_s, import_s, setup wall) of ``count`` fresh interpreters.

    setup_s is the child's CPU time from its spawn until it has built the
    CLI parser, import_s that of ``import magdecay.cli``, both at the
    reference pace that the child measures right after (see ``pace.py``).
    The wall time runs from just before the spawn to the built parser;
    both ends read CLOCK_MONOTONIC, which the processes share.
    """
    samples = []
    for _ in range(count):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = _run_child(["-c", _SETUP_PROBE], env, deadline)
        built, import_cpu, setup_cpu, scale = map(float, out.split())
        samples.append((setup_cpu * scale, import_cpu * scale, built - spawned))
    return samples


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end, per_layer = ({m["name"]: m["unit"] for m in spec[key]}
                             for key in ("end_to_end", "per_layer"))
    return end_to_end, per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "magdecay" / "cli.py").is_file():
        print(f"error: no magdecay sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        end_to_end, per_layer = declared_metrics()
        env = child_env()
        deadline = time.monotonic() + RUN_TIMEOUT_S
        setup = setup_samples(env, SETUP_RUNS_EACH_SIDE + 1, deadline)[1:]
        worker = [str(HERE / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            worker += ["--spans-out", str(spans_path)]
        report = json.loads(_run_child(worker, env, deadline).splitlines()[-1])
        setup += setup_samples(env, SETUP_RUNS_EACH_SIDE, deadline)
    except (BenchmarkError, OSError, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_s, import_s, setup_wall = (statistics.median(column) for column in zip(*setup))
    if args.trace:
        values = dict(report["layers"])
        values["setup.import_s"] = import_s
        values["trace.overhead_s"] = report["trace_overhead_cpu"]
        declared = per_layer
    else:
        values = {
            "wall_ref_s": statistics.median(report["passes"]),
            "setup_s": setup_s,
            "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
        }
        declared = end_to_end
    if set(values) != set(declared):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(declared)}",
              file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {len(report['passes'])} timed passes, "
          f"{attempted} operations checked, {failed} failed")
    print("pass times at the reference pace (s): "
          + " ".join(f"{t:.4f}" for t in report["passes"]))
    print("pass wall times (s): " + " ".join(f"{t:.4f}" for t in report["pass_walls"])
          + f"; {report['pace_samples']} pace samples, mean probe "
          f"{report['probe_mean_s'] * 1e3:.4f} ms")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    for name in declared:
        print(f"{name:36s} {values[name]:.6g} {declared[name]}")
    # not declared metrics: the median operation of figures is a 40 ms one,
    # and its time spreads too much from run to run to bound (README.md);
    # then the unscaled wall-clock figures, what this host gave
    print(f"{'op_p50_ref_s':36s} {statistics.median(report['latencies']):.6g} s")
    print(f"{'wall_s':36s} {statistics.median(report['pass_walls']):.6g} s")
    print(f"{'op_p50_s':36s} {statistics.median(report['wall_latencies']):.6g} s")
    print(f"{'setup_wall_s':36s} {setup_wall:.6g} s")
    print(f"{'failed_fraction':36s} {failed / attempted:.6g} fraction")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for binding in report["missing_bindings"]:
            print(f"  not traced (absent): {binding}")
    print("environment " + json.dumps(report["environment"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
