#!/usr/bin/env python3
"""Time the level sum's two schemes against each other, point by point.

    OPENBLAS_NUM_THREADS=1 python3 scripts/mesh_crossover.py
    OPENBLAS_NUM_THREADS=1 python3 scripts/mesh_crossover.py --points 1e4:30 1e3:80

At each (p_perp^2, m) point, one muon ``decay_rate`` call at its default
tolerance runs with each scheme forced through ``rate._SHARED_MESH_WORK``:
infinity for the per-level k_z sum, 0 for the shared mesh.  After one
warm-up call of each, the two schemes run in five alternating pairs (k_z,
mesh, k_z, mesh, ...), so that a drift of the host's pace hits both alike.
The time columns are the median process CPU times of each scheme, the
ratio column the median of the five per-pair ratios, and the last column
the relative difference of the two widths.  Where X_0 passes the level
kernel's argument cap, ``rate._shares_mesh`` sends the point to the mesh
whatever the threshold: only the mesh is timed there, and the k_z cells
read n/a.  The default
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
import contextlib
import math
import statistics
import time

from magdecay import DecayChannel, MagnetizedState, decay_rate, field_for_radial_energy, rate
from magdecay.landau import level_edges

POINTS = (
    "1e3:5", "1e4:30", "3e4:65", "5e3:40", "5e4:120", "1e3:40", "1e3:80", "1e4:300",
    "1e3:36", "1e3:45", "5e3:50", "5e3:70", "5e3:80", "1e4:60", "1e4:80", "5e4:100",
)
MUON = DecayChannel(m_parent=105.7)
REPEATS = 5


@contextlib.contextmanager
def shared_mesh_work(threshold):
    """``rate._SHARED_MESH_WORK`` at ``threshold`` inside the block."""
    saved = rate._SHARED_MESH_WORK
    rate._SHARED_MESH_WORK = threshold
    try:
        yield
    finally:
        rate._SHARED_MESH_WORK = saved


def timed(state, threshold):
    """The result and the CPU time of one call with ``_SHARED_MESH_WORK`` at
    ``threshold``."""
    with shared_mesh_work(threshold):
        start = time.process_time()
        result = decay_rate(MUON, state)
        return result, time.process_time() - start


def paired(state):
    """Both schemes' results, their median CPU times and the median of the
    per-pair ratios mesh / k_z over ``REPEATS`` alternating pairs of calls,
    after one warm-up pair.  Where the k_z sum cannot take the point, the
    mesh runs alone, and the k_z result, time and ratio are None."""
    with shared_mesh_work(math.inf):
        kz_runs = not rate._shares_mesh(state.level, level_edges(MUON, state)[0])
    kz = timed(state, math.inf)[0] if kz_runs else None
    shared, _ = timed(state, 0)
    kz_s, shared_s = [], []
    for _ in range(REPEATS):
        if kz_runs:
            kz_s.append(timed(state, math.inf)[1])
        shared_s.append(timed(state, 0)[1])
    if not kz_runs:
        return None, shared, None, statistics.median(shared_s), None
    ratio = statistics.median(s / k for s, k in zip(shared_s, kz_s))
    return kz, shared, statistics.median(kz_s), statistics.median(shared_s), ratio


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
        kz, shared, kz_s, shared_s, ratio = paired(state)
        if kz is None:
            kz_cell, ratio_cell, agree_cell = "n/a", "n/a", "n/a"
        else:
            agree = abs(shared.gamma_total - kz.gamma_total) / kz.gamma_total
            kz_cell, ratio_cell, agree_cell = f"{kz_s * 1e3:.1f} ms", f"{ratio:.2f}", f"{agree:.1e}"
        print(
            f"| ({p_perp_sq}, {m}) | {shared.n_max_used + 1} | {kz_cell} "
            f"| {shared_s * 1e3:.1f} ms | {ratio_cell} | {agree_cell} |"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
