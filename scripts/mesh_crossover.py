#!/usr/bin/env python3
"""Time the level sum's two schemes against each other, point by point.

    OPENBLAS_NUM_THREADS=1 python3 scripts/mesh_crossover.py
    OPENBLAS_NUM_THREADS=1 python3 scripts/mesh_crossover.py --points 1e4:30 1e3:80

At each (p_perp^2, m) point, one muon ``decay_rate`` call at its default
tolerance runs with each scheme forced through ``rate._SHARED_MESH_WORK``:
infinity for the per-level k_z sum, 0 for the shared mesh.  A column is
the process CPU time of the fastest of three calls after one warm-up; the
last column is the relative difference of the two widths.  The default
points are the ROADMAP's Baseline rows, then points of the figure curves
on each side of ``rate._SHARED_MESH_WORK`` (m times the levels): (1e3,
36) and (5e3, 70) below it, near or past their curves' crossovers, (1e3,
45) and (5e3, 80) above it, and (1e4, 60), (1e4, 80) and (5e4, 100)
below it, on either side of the 1e4 curve's crossover and short of the
5e4 curve's, which lies past its end.  The benchmark pins BLAS to one
thread, as the first line above does: process CPU time counts every
thread's.
"""

import argparse
import math
import time

from magdecay import DecayChannel, MagnetizedState, decay_rate, field_for_radial_energy, rate

POINTS = (
    "1e3:5", "1e4:30", "3e4:65", "5e3:40", "5e4:120", "1e3:40", "1e3:80", "1e4:300",
    "1e3:36", "1e3:45", "5e3:50", "5e3:70", "5e3:80", "1e4:60", "1e4:80", "5e4:100",
)
MUON = DecayChannel(m_parent=105.7)
REPEATS = 3


def fastest(state, threshold):
    """The result and the least CPU time of ``REPEATS`` calls, after a
    warm-up call, with ``_SHARED_MESH_WORK`` at ``threshold``."""
    saved = rate._SHARED_MESH_WORK
    rate._SHARED_MESH_WORK = threshold
    try:
        result = decay_rate(MUON, state)
        best = math.inf
        for _ in range(REPEATS):
            start = time.process_time()
            decay_rate(MUON, state)
            best = min(best, time.process_time() - start)
    finally:
        rate._SHARED_MESH_WORK = saved
    return result, best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", nargs="+", default=POINTS, help="p_perp^2:m pairs")
    args = parser.parse_args()

    print("| (p⊥², m) | levels | k_z sum | shared mesh | mesh / k_z | Γ agree |")
    print("|---|---|---|---|---|---|")
    for point in args.points:
        p_perp_sq, m = point.split(":")
        m = int(m)
        state = MagnetizedState(field=field_for_radial_energy(float(p_perp_sq), m), level=m)
        kz, kz_s = fastest(state, math.inf)
        shared, shared_s = fastest(state, 0)
        agree = abs(shared.gamma_total - kz.gamma_total) / kz.gamma_total
        print(
            f"| ({p_perp_sq}, {m}) | {kz.n_max_used + 1} | {kz_s * 1e3:.1f} ms "
            f"| {shared_s * 1e3:.1f} ms | {shared_s / kz_s:.2f} | {agree:.1e} |"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
