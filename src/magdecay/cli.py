"""Command-line surface: single-point rates, scans, the observables table,
and the verification suite.

All data goes to stdout as CSV (default) or JSON Lines; diagnostics go to
stderr.  Exit codes: 0 success, 1 computation or verification failure,
2 usage error.  Output is deterministic: identical invocations produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import landau, oracle, rate, specfun, units

__all__ = ["main", "build_parser"]

_DEF_M_PARENT = 105.7
# verify's thresholds, which the worst relative error of the seeded oracle
# draws and the worst values of its two fixed grids must stay below
_VERIFY_TOLERANCE = 1e-6
_LLL_FIELDS_OVER_MSQ = (0.6, 1.0, 10.0, 100.0)
_LLL_THRESHOLD = 1e-7
_COMPLETENESS_LEVELS = (0, 5, 20, 50)
_COMPLETENESS_ARGS = (0.1, 1.0, 10.0, 100.0)
_COMPLETENESS_THRESHOLD = 1e-10


class _UsageError(Exception):
    pass


def _finite_float(text: str) -> float:
    """Parse a float flag or config value; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magdecay",
        description="Decay rate of a charged scalar bound in a constant magnetic field, "
        "its ratio to the time-dilated inertial rate, and SI orbit observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--M-mu", dest="m_mu", type=_finite_float, default=None,
                       help=f"parent mass in MeV (default {_DEF_M_PARENT})")
        p.add_argument("--M-e", dest="m_e", type=_finite_float, default=None,
                       help="charged daughter mass in MeV (default 0)")
        p.add_argument("--G", dest="coupling", type=_finite_float, default=None,
                       help="coupling in MeV (default 1; ratios are G-independent)")
        p.add_argument("--tol", dest="tol", type=_finite_float, default=None,
                       help="relative tolerance of the level sums (default 1e-9)")
        p.add_argument("--format", dest="format", choices=("csv", "json"), default=None,
                       help="output format (default csv)")
        p.add_argument("--config", dest="config", default=None,
                       help="path to a 'key = value' config file; flags override it")

    p_rate = sub.add_parser("rate", help="single (p_perp^2, m) point with SI observables")
    p_rate.add_argument("--p-perp2", dest="p_perp2", type=_finite_float, default=None,
                        help="squared radial momentum in MeV^2")
    p_rate.add_argument("--m", dest="m_level", type=int, default=None, help="parent Landau level")
    add_common(p_rate)

    p_scanm = sub.add_parser("scan-m", help="ratio vs parent level at fixed radial momentum")
    p_scanm.add_argument("--p-perp2", dest="p_perp2", type=_finite_float, action="append",
                         default=None,
                         help="squared radial momentum in MeV^2; repeat for several curves")
    p_scanm.add_argument("--m-min", dest="m_min", type=int, default=None)
    p_scanm.add_argument("--m-max", dest="m_max", type=int, default=None)
    add_common(p_scanm)

    p_scanf = sub.add_parser("scan-field", help="ratio vs level at fixed orbit radius")
    p_scanf.add_argument("--radius", dest="radius", type=_finite_float, default=None,
                         help="orbit radius in 1/MeV (default 0.1)")
    p_scanf.add_argument("--m-min", dest="m_min", type=int, default=None)
    p_scanf.add_argument("--m-max", dest="m_max", type=int, default=None)
    add_common(p_scanf)

    p_lll = sub.add_parser("scan-lll", help="lowest-level ratio vs field on a log grid")
    p_lll.add_argument("--eB-min", dest="eb_min", type=_finite_float, default=None,
                       help="lowest field in MeV^2 (must exceed M^2/2)")
    p_lll.add_argument("--eB-max", dest="eb_max", type=_finite_float, default=None)
    p_lll.add_argument("--points", dest="points", type=int, default=None,
                       help="grid size (default 40)")
    add_common(p_lll)

    p_table = sub.add_parser("table", help="the four reference rows of observables")
    add_common(p_table)

    p_verify = sub.add_parser("verify", help="overlap oracle, lowest-level equivalence, "
                                             "and completeness checks")
    p_verify.add_argument("--trials", dest="trials", type=int, default=None,
                          help="random overlap comparisons (default 100)")
    p_verify.add_argument("--seed", dest="seed", type=int, default=None,
                          help="random seed (default 0)")
    add_common(p_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in this process shares.

    It is built on the first call, not at import.  Reuse is safe because
    ``parse_args`` leaves the parser as it was: each ``append`` flag has
    ``default=None``, so every parse starts a fresh list, and the help
    formatter reads the terminal width when it prints, not when it is built.
    """
    return build_parser()


# config keys are the long flag names, lower-cased, dashes as underscores;
# the two short flags map onto their argparse destinations
_CONFIG_KEY_TO_DEST = {"m": "m_level", "g": "coupling"}


@functools.cache
def _config_keys() -> frozenset[str]:
    """The destinations of every command's options, the keys a config may set."""
    dests = {dest for name in _COMMANDS for dest in vars(_parser().parse_args([name]))}
    return frozenset(dests - {"command", "config"})


def _read_config(path: str, known: frozenset[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"config line is not 'key = value': {raw.rstrip()!r}")
            name, _, value = line.partition("=")
            key = name.strip().replace("-", "_").lower()
            key = _CONFIG_KEY_TO_DEST.get(key, key)
            if key not in known:
                raise _UsageError(f"unknown config key {name.strip()!r}")
            values[key] = value.strip()
    return values


def _pick(args, config: dict[str, str], key: str, cast, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        try:
            return cast(config[key])
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"config key {key!r}: {exc}") from exc
    return default


def _float_list(text: str) -> list[float]:
    values = [_finite_float(part.strip()) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("no values")
    return values


def _channel(args, config) -> landau.DecayChannel:
    return landau.DecayChannel(
        m_parent=_pick(args, config, "m_mu", _finite_float, _DEF_M_PARENT),
        m_charged=_pick(args, config, "m_e", _finite_float, 0.0),
        coupling=_pick(args, config, "coupling", _finite_float, 1.0),
    )


def _rel_tol(args, config) -> float:
    return _pick(args, config, "tol", _finite_float, 1e-9)


def _rate_record(channel, p_perp_sq: float, m_level: int, rel_tol: float) -> dict:
    field = landau.field_for_radial_energy(p_perp_sq, m_level)
    state = landau.MagnetizedState(field=field, level=m_level)
    result = rate.decay_rate(channel, state, rel_tol)
    p_perp = math.sqrt(p_perp_sq)
    omega = state.energy(channel.m_parent)
    return {
        "eB_MeV2": field,
        "omega_MeV": omega,
        "lorentz_gamma": result.lorentz_gamma,
        "n_max": result.n_max_used,
        "Gamma_MeV": result.gamma_total,
        "ratio": result.ratio,
        "quad_error": result.quad_error,
        "radius_m": units.radius_si(p_perp, m_level),
        "acceleration_m_s2": units.acceleration_si(p_perp, m_level, omega),
        "lambda_dB_m": units.de_broglie_si(p_perp),
        "B_gauss": units.field_to_gauss(field),
    }


def _positive_p_perp2(value: float) -> float:
    """A p_perp2 flag or config value; zero or negative is a usage error."""
    if value <= 0.0:
        raise _UsageError(f"p_perp2 must be positive, got {value:g}")
    return value


def _cmd_rate(args, config) -> list[dict]:
    p_perp_sq = _pick(args, config, "p_perp2", _finite_float)
    m_level = _pick(args, config, "m_level", int)
    if p_perp_sq is None or m_level is None:
        raise _UsageError("rate requires --p-perp2 and --m")
    _positive_p_perp2(p_perp_sq)
    if m_level < 0:
        raise _UsageError(f"m must be nonnegative, got {m_level}")
    channel = _channel(args, config)
    return [_rate_record(channel, p_perp_sq, m_level, _rel_tol(args, config))]


def _level_range(args, config) -> range:
    m_min = _pick(args, config, "m_min", int)
    m_max = _pick(args, config, "m_max", int)
    if m_min is None or m_max is None:
        raise _UsageError(f"{args.command} requires --m-min and --m-max")
    if not 0 <= m_min <= m_max:
        raise _UsageError(f"need 0 <= m_min <= m_max, got [{m_min}, {m_max}]")
    return range(m_min, m_max + 1)


def _cmd_scan_m(args, config) -> list[dict]:
    p_list = [_positive_p_perp2(p2) for p2 in _pick(args, config, "p_perp2", _float_list, [1e4])]
    levels = _level_range(args, config)
    channel = _channel(args, config)
    rel_tol = _rel_tol(args, config)
    return [
        {"p_perp2_MeV2": p2, "m": m, **_rate_record(channel, p2, m, rel_tol)}
        for p2 in p_list
        for m in levels
    ]


def _cmd_scan_field(args, config) -> list[dict]:
    radius = _pick(args, config, "radius", _finite_float, 0.1)
    if radius <= 0.0:
        raise _UsageError(f"radius must be positive, got {radius}")
    levels = _level_range(args, config)
    channel = _channel(args, config)
    rel_tol = _rel_tol(args, config)
    records = []
    for m in levels:
        p_perp = landau.radial_energy_for_radius(radius, m)
        p_perp_sq = p_perp * p_perp
        if not math.isfinite(p_perp_sq):
            raise ValueError(
                f"at radius {radius:g} and level {m}, p_perp^2 = ((2m+1)/R)^2 passes the float range"
            )
        records.append({"m": m, **_rate_record(channel, p_perp_sq, m, rel_tol)})
    return records


def _cmd_scan_lll(args, config) -> list[dict]:
    channel = _channel(args, config)
    eb_min = _pick(args, config, "eb_min", _finite_float, 6.0e3)
    eb_max = _pick(args, config, "eb_max", _finite_float, 1.0e7)
    points = _pick(args, config, "points", int, 40)
    threshold = channel.m_parent**2 / 2.0
    if eb_min <= threshold:
        raise _UsageError(
            f"--eB-min must exceed M^2/2 = {threshold:g} MeV^2 so only the lowest "
            f"daughter level is open, got {eb_min:g}"
        )
    if eb_max <= eb_min:
        raise _UsageError("need eB-max > eB-min")
    if points < 2:
        raise _UsageError(f"need at least 2 grid points, got {points}")
    rel_tol = _rel_tol(args, config)
    grid = np.exp(np.linspace(math.log(eb_min), math.log(eb_max), points))
    grid[0], grid[-1] = eb_min, eb_max
    records = []
    for field in grid:
        field = float(field)
        state = landau.MagnetizedState(field=field, level=0)
        records.append(
            {
                "eB_MeV2": field,
                "p_perp_MeV": math.sqrt(field),
                "ratio_exact": rate.lll_ratio_exact(channel, field),
                "ratio_factored": rate.lll_ratio_factored(channel, field),
                "ratio_general": rate.decay_rate(channel, state, rel_tol).ratio,
            }
        )
    return records


_TABLE_POINTS = ((3.0e4, 65), (1.0e4, 30), (5.0e3, 20), (1.0e3, 5))
# the rate-record columns the table keeps, in output order
_TABLE_COLUMNS = ("ratio", "radius_m", "acceleration_m_s2", "lambda_dB_m", "B_gauss")


def _cmd_table(args, config) -> list[dict]:
    channel = _channel(args, config)
    rel_tol = _rel_tol(args, config)
    records = []
    for p_perp_sq, m_level in _TABLE_POINTS:
        full = _rate_record(channel, p_perp_sq, m_level, rel_tol)
        records.append(
            {"p_perp2_MeV2": p_perp_sq, "m": m_level, **{key: full[key] for key in _TABLE_COLUMNS}}
        )
    return records


def _check(check: str, metric: str, value: float, threshold: float) -> dict:
    """One verify row: the check passes when its worst value is below its threshold."""
    return {
        "check": check,
        "passed": value < threshold,
        "metric": metric,
        "value": value,
        "threshold": threshold,
    }


def _lll_rel_err(channel, field: float, rel_tol: float) -> float:
    """Relative gap between the level-summed and the closed-form lowest-level ratio."""
    state = landau.MagnetizedState(field=field, level=0)
    exact = rate.lll_ratio_exact(channel, field)
    return abs(rate.decay_rate(channel, state, rel_tol).ratio - exact) / exact


def _cmd_verify(args, config) -> list[dict]:
    trials = _pick(args, config, "trials", int, 100)
    seed = _pick(args, config, "seed", int, 0)
    if trials <= 0:
        raise _UsageError(f"trials must be positive, got {trials}")
    if seed < 0:
        raise _UsageError(f"seed must be nonnegative, got {seed}")
    channel = _channel(args, config)
    rel_tol = _rel_tol(args, config)

    report = oracle.verify_closed_form(trials, seed=seed)
    worst_lll = max(
        _lll_rel_err(channel, factor * channel.m_parent**2, rel_tol)
        for factor in _LLL_FIELDS_OVER_MSQ
    )
    worst_sum = max(
        abs(specfun.overlap_completeness_sum(m, x)[0] - 1.0)
        for m in _COMPLETENESS_LEVELS
        for x in _COMPLETENESS_ARGS
    )
    return [
        _check("overlap_closed_form", "max_rel_err", report.max_rel_err, _VERIFY_TOLERANCE),
        _check("lowest_level_equivalence", "max_rel_err", worst_lll, _LLL_THRESHOLD),
        _check("overlap_completeness", "max_abs_dev", worst_sum, _COMPLETENESS_THRESHOLD),
    ]


_COMMANDS = {
    "rate": _cmd_rate,
    "scan-m": _cmd_scan_m,
    "scan-field": _cmd_scan_field,
    "scan-lll": _cmd_scan_lll,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in output: {value}")
        return f"{value:.17g}"
    return str(value)


def _emit(records: list[dict], fmt: str, stream) -> None:
    """Write the records, or nothing at all if one of them cannot be formatted."""
    if fmt == "json":
        lines = [json.dumps(record, allow_nan=False, separators=(",", ":")) for record in records]
    else:
        keys = list(records[0])
        lines = [",".join(keys)]
        lines += [",".join(_format_cell(record[key]) for key in keys) for record in records]
    stream.write("".join(line + "\n" for line in lines))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            config = _read_config(args.config, _config_keys()) if args.config else {}
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}") from exc
        fmt = _pick(args, config, "format", str, "csv")
        if fmt not in ("csv", "json"):
            raise _UsageError(f"format must be csv or json, got {fmt!r}")
        records = _COMMANDS[args.command](args, config)
        _emit(records, fmt, sys.stdout)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, rate.RateConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: result overflowed the float range: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    if args.command == "verify" and not all(r["passed"] for r in records):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
