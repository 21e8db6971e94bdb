import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import magdecay
from magdecay import landau, oracle, quadrature, specfun
from reference_paths import row_bounds, transverse_wavefunction

EPS = float(np.finfo(float).eps)

# the adaptive reference's window: its half-width in units of the magnetic
# length, its growth cap, and the absolute floor of its two real quadratures
# (the amplitude itself is bounded by one)
WINDOW_PAD = 8.0
MAX_DOUBLINGS = 6
ABS_TOL = 1e-15
# the bound on both indices of the sweeps past verify's own draws
INDEX_MAX = 12


def loop_wavefunction(n, rho):
    """The one-order oscillator recurrence the batched modes must reproduce."""
    psi_prev = math.pi**-0.25 * np.exp(-rho * rho / 2.0)
    if n > 0:
        psi_cur = math.sqrt(2.0) * rho * psi_prev
        for k in range(1, n):
            psi_prev, psi_cur = psi_cur, (
                math.sqrt(2.0 / (k + 1.0)) * rho * psi_cur
                - math.sqrt(k / (k + 1.0)) * psi_prev
            )
        psi_prev = psi_cur
    return psi_prev


def loop_overlap_sq(n, m, q, delta, rel_tol=1e-9):
    """The adaptive reference, |A|^2 and a bound on its error.

    The starting window, then only the two strips each doubling adds, the
    real and the imaginary part of every piece one adaptive quadrature each,
    and the amplitude the fsum of its pieces.  The bound is first order in
    the sum of the pieces' error estimates, each part rounded once more.
    """
    center = -delta / 2.0
    half_width = WINDOW_PAD + math.sqrt(2.0 * max(n, m) + 1.0)

    def product(rho):
        return loop_wavefunction(m, rho) * loop_wavefunction(n, rho + delta)

    def part(f, lo, hi):
        (value,), (error,) = quadrature.integrate(
            lambda r, _: f(r) * product(r), [lo], [hi], rel_tol, ABS_TOL
        )
        return value, error

    re_parts, im_parts, re_errors, im_errors = [], [], [], []

    def add_piece(lo, hi):
        for parts, errors, f in (
            (re_parts, re_errors, lambda r: np.cos(q * r)),
            (im_parts, im_errors, lambda r: -np.sin(q * r)),
        ):
            value, error = part(f, lo, hi)
            parts.append(value)
            errors.append(error)
        re, im = math.fsum(re_parts), math.fsum(im_parts)
        return re * re + im * im

    value = add_piece(center - half_width, center + half_width)
    for _ in range(MAX_DOUBLINGS):
        add_piece(center - 2.0 * half_width, center - half_width)
        wider = add_piece(center + half_width, center + 2.0 * half_width)
        half_width *= 2.0
        converged = abs(wider - value) <= 1e-12 * abs(wider) + 1e-28
        value = wider
        if converged:
            break
    re, im = math.fsum(re_parts), math.fsum(im_parts)
    d_re = math.fsum(re_errors) + EPS * abs(re)
    d_im = math.fsum(im_errors) + EPS * abs(im)
    error = 2.0 * (abs(re) * d_re + abs(im) * d_im) + d_re * d_re + d_im * d_im
    return value, error + 4.0 * EPS * value


def verify_draws(trials, seed):
    """The trials verify_closed_form draws, as arrays (n, m, k_x, delta_k_y, field).

    Each trial is the next row of seven uniforms u of the seeded stream, drawn
    here one row at a time: n = floor(9 u_0), m = floor(9 u_1), field =
    10^(-0.3 + 3.6 u_2), |k_x| = (0.3 + 2.7 u_3) sqrt(field) with a minus
    sign where u_4 < 1/2, and delta_k_y likewise from u_5 and u_6.
    """
    rng = np.random.default_rng(seed)
    u = np.array([rng.random(7) for _ in range(trials)])
    n, m = np.floor(u[:, :2] * (oracle.VERIFY_INDEX_MAX + 1)).astype(np.int64).T
    field = 10.0 ** (-0.3 + 3.6 * u[:, 2])
    scale = np.sqrt(field)
    k_x = (0.3 + 2.7 * u[:, 3]) * scale * np.where(u[:, 4] < 0.5, -1.0, 1.0)
    d_ky = (0.3 + 2.7 * u[:, 5]) * scale * np.where(u[:, 6] < 0.5, -1.0, 1.0)
    return n, m, k_x, d_ky, field


def stub_oracle(monkeypatch):
    """Stub out the rule and the closed form of verify_closed_form, so only its
    draws count: each side returns ones, and appends the arguments of each of
    its calls to its list in the dict returned."""
    handed = {"rule": [], "closed form": []}

    def recorder(name):
        def record(*args):
            handed[name].append(args)
            return np.ones(len(args[0]))

        return record

    monkeypatch.setattr(oracle, "transverse_overlap_sq", recorder("rule"))
    monkeypatch.setattr(oracle, "overlap_weight_rows", recorder("closed form"))
    return handed


def scaled(k_x, d_ky, field):
    """q, delta and X of momenta in MeV, formed as verify_closed_form forms them."""
    root_field = np.sqrt(field)
    return k_x / root_field, d_ky / root_field, (d_ky**2 + k_x**2) / (2.0 * field)


def loop_verification(trials, seed):
    """verify_closed_form with the oracle and the closed form called one trial at a time."""
    n, m, k_x, d_ky, field = verify_draws(trials, seed)
    q, delta, x = scaled(k_x, d_ky, field)
    errors = []
    for i in range(trials):
        one = slice(i, i + 1)
        numeric = oracle.transverse_overlap_sq(n[one], m[one], q[one], delta[one]) / field[one]
        reference = specfun.overlap_weight_rows(n[one], m[one], x[one]) / field[one]
        errors.append(float(abs(numeric[0] - reference[0]) / reference[0]))
    return oracle.OverlapVerification(trials, max(errors))


def verify_rule_args(seeds):
    """(n, m, q, delta) of the rule over verify's draws at each seed, 100 trials a seed."""
    drawn = [verify_draws(100, seed) for seed in seeds]
    n, m, k_x, d_ky, field = (np.concatenate(column) for column in zip(*drawn))
    q, delta, _ = scaled(k_x, d_ky, field)
    return n, m, q, delta


def random_params(count, seed):
    """(n, m, q, delta) arrays: indices up to INDEX_MAX, |q|, |delta| below 3."""
    rng = np.random.default_rng(seed)
    n, m = rng.integers(0, INDEX_MAX + 1, size=(2, count))
    q, delta = rng.uniform(-3.0, 3.0, size=(2, count))
    return n, m, q, delta


def sweep_params(count, seed, reach=7.0):
    """(n, m, q, delta) arrays: indices up to INDEX_MAX, |q|, |delta| in [0.3, reach], random signs."""
    rng = np.random.default_rng(seed)
    n, m = rng.integers(0, INDEX_MAX + 1, size=(2, count))
    q, delta = rng.uniform(0.3, reach, size=(2, count)) * rng.choice((-1.0, 1.0), size=(2, count))
    return n, m, q, delta


def rule_roundoff(n, m, q, delta):
    """First-order bound on the roundoff of the Gauss-Hermite amplitude's parts.

    The term W_j exp(u_j^2) psi_m(a_j) psi_n(b_j) (cos, -sin)(q a_j), with
    a_j = u_j - delta/2 and b_j = a_j + delta, carries a relative rounding
    error of at most eps times the count of its roundings: u_j^2 + a_j^2/2 +
    b_j^2/2 from the three exponentials' rounded arguments, |q a_j| from the
    rounded phase, n + m from the recurrence steps, and 11 more: 3 from the
    exponentials themselves, 2 from the tabulated weight and its product,
    2 from the modes' normalization, 3 from the term's products and 1 from
    the sine or cosine.  Summing the nodes' terms adds _NODES - 1 roundings
    at most.  The bound on either part is eps times the sum over the nodes
    of |W_j exp(u_j^2) psi_m psi_n| times that count.
    """
    nodes, weights = oracle._RULE_NODES, oracle._RULE_WEIGHTS
    a = nodes - delta / 2.0
    b = a + delta
    size = np.abs(weights * loop_wavefunction(m, a) * loop_wavefunction(n, b))
    roundings = (
        nodes * nodes + (a * a + b * b) / 2.0 + np.abs(q * a) + n + m + 11.0
        + (oracle._NODES - 1)
    )
    return EPS * float(np.sum(size * roundings))


def exact_overlap_sq(n, m, q, delta, mpmath):
    """|A|^2 from the closed form at 40 digits, at the q and delta the rule takes."""
    low, high = sorted((n, m))
    with mpmath.workdps(40):
        x = (mpmath.mpf(q) ** 2 + mpmath.mpf(delta) ** 2) / 2
        weight = (
            mpmath.factorial(low) / mpmath.factorial(high) * x ** (high - low) * mpmath.exp(-x)
            * mpmath.laguerre(low, high - low, x) ** 2
        )
        return float(weight)


def rule(n, m, q, delta):
    """|A|^2 of one trial by the rule."""
    return float(oracle.transverse_overlap_sq(*(np.array([v]) for v in (n, m, q, delta)))[0])


class TestNumericOverlap:
    def test_coincidence_gives_inverse_field(self):
        # the unshifted ground state overlaps itself fully: |A|^2 = 1, which
        # is 1/field per unit field
        assert rule(0, 0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-11)

    def test_orthogonality_of_distinct_levels(self):
        assert abs(rule(0, 1, 0.0, 0.0)) < 1e-16

    @pytest.mark.parametrize(
        "n,m,k_x,d_ky,field",
        [
            (2, 5, 1.1, -0.7, 3.3),
            (0, 8, 2.0, 1.5, 1.0),
            (4, 4, -3.0, 0.4, 12.0),
            (7, 1, 0.9, -2.2, 0.6),
        ],
    )
    def test_matches_closed_form(self, n, m, k_x, d_ky, field):
        q, delta, x = scaled(k_x, d_ky, field)
        reference = float(specfun.overlap_weight_rows(np.array([n]), np.array([m]), np.array([x]))[0])
        assert rule(n, m, q, delta) == pytest.approx(reference, rel=1e-8)

    def test_invariant_under_joint_sign_flip(self):
        q, delta = 1.3 / math.sqrt(2.1), -0.9 / math.sqrt(2.1)
        assert rule(3, 6, q, delta) == pytest.approx(rule(3, 6, -q, -delta), rel=1e-11)

    def test_depends_only_on_momentum_magnitude(self):
        q, delta = 1.7 / math.sqrt(3.0), 0.6 / math.sqrt(3.0)
        assert rule(2, 4, q, delta) == pytest.approx(rule(2, 4, delta, q), rel=1e-9)


class TestWavefunctionNormalization:
    @pytest.mark.parametrize("n", range(13))
    def test_unit_norm_up_to_oracle_cap(self, n):
        # a guiding-center-shifted mode, rho = sqrt(field) x + offset, as the
        # oracle's amplitude integrand shifts the daughter mode
        field, offset = 3.7, 0.35
        scale = math.sqrt(field)
        half = (8.0 + math.sqrt(2.0 * n + 1.0)) / scale + 0.2
        center = -offset / scale
        (norm,), _ = quadrature.integrate(
            lambda x, _: transverse_wavefunction(n, field, scale * x + offset) ** 2,
            [center - half], [center + half], rel_tol=1e-11,
        )
        assert norm == pytest.approx(1.0, abs=1e-8)


class TestVerifyClosedForm:
    def test_seeded_run_passes(self):
        report = oracle.verify_closed_form(30, seed=7)
        assert report.max_rel_err < 1e-6
        assert report.trials == 30

    def test_determinism(self):
        first = oracle.verify_closed_form(10, seed=42)
        second = oracle.verify_closed_form(10, seed=42)
        assert first == second

    def test_different_seeds_explore_different_points(self):
        a = oracle.verify_closed_form(5, seed=1)
        b = oracle.verify_closed_form(5, seed=2)
        assert a.max_rel_err != b.max_rel_err

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            oracle.verify_closed_form(0)

    def test_memory_does_not_grow_with_the_trials(self):
        # the trials are drawn and compared in blocks of a thousand, so five
        # blocks peak where one does (all at once, the nodes and modes took
        # about 7 KB a trial); the first run allocates what a process keeps
        oracle.verify_closed_form(1000, seed=1)
        peaks = {}
        for trials in (1000, 5000):
            tracemalloc.start()
            try:
                oracle.verify_closed_form(trials, seed=1)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[5000] <= 1.01 * peaks[1000]

    def test_blocks_keep_the_worst_error_of_all_trials(self):
        # the same draws in the same order, and every trial's bits do not
        # depend on its block: the report of 5,000 trials, as one block of
        # them all gives it
        assert oracle.verify_closed_form(5000, seed=1).max_rel_err.hex() == "0x1.4b883550a44e6p-36"

    @pytest.mark.parametrize("block", [7, 5000])
    def test_report_does_not_depend_on_the_block_size(self, monkeypatch, block):
        expected = oracle.verify_closed_form(5000, seed=1)
        monkeypatch.setattr(oracle, "_TRIAL_BLOCK", block)
        assert oracle.verify_closed_form(5000, seed=1) == expected

    def test_generator_calls_per_block_do_not_grow_with_the_trials(self, monkeypatch):
        stub_oracle(monkeypatch)
        calls = []
        make_rng = np.random.default_rng

        def counting_rng(seed):
            rng = make_rng(seed)

            class Counting:
                def __getattr__(self, name):
                    calls.append(name)
                    return getattr(rng, name)

            return Counting()

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        counts = {}
        for trials in (100, 5000):
            calls.clear()
            oracle.verify_closed_form(trials, seed=3)
            counts[trials] = len(calls)
        # one block of 100 trials, five of 1,000
        assert counts == {100: 1, 5000: 5}

    def test_draws_stay_in_their_ranges(self, monkeypatch):
        handed = stub_oracle(monkeypatch)
        oracle.verify_closed_form(5000, seed=5)
        n, m, q, delta = (np.concatenate(column) for column in zip(*handed["rule"]))
        assert set(n.tolist()) == set(m.tolist()) == set(range(oracle.VERIFY_INDEX_MAX + 1))
        # |q| is (0.3 + 2.7 u) sqrt(field) / sqrt(field), rounded twice
        for momentum in (q, delta):
            magnitude = np.abs(momentum)
            assert np.all((magnitude >= 0.3 * (1.0 - 2.0 * EPS)) & (magnitude <= 3.0 * (1.0 + 2.0 * EPS)))
            assert np.any(momentum < 0.0) and np.any(momentum > 0.0)
        # the oracle divides the field out of both sides; its draws are the definition's
        field = verify_draws(5000, seed=5)[4]
        assert np.all((field >= 10.0**-0.3 * (1.0 - 2.0 * EPS)) & (field <= 10.0**3.3 * (1.0 + 2.0 * EPS)))

    @pytest.mark.parametrize("edge", [0.0, 1.0 - EPS / 2.0])
    def test_draws_at_the_ends_of_the_unit_interval(self, monkeypatch, edge):
        # the least and the greatest double in [0, 1) map onto the ends of the ranges
        handed = stub_oracle(monkeypatch)

        class Edge:
            def random(self, shape):
                return np.full(shape, edge)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Edge())
        oracle.verify_closed_form(3, seed=0)
        (n, m, q, delta), = handed["rule"]
        index, magnitude, sign = (0, 0.3, -1.0) if edge == 0.0 else (oracle.VERIFY_INDEX_MAX, 3.0, 1.0)
        assert n.tolist() == m.tolist() == [index] * 3
        assert np.allclose(q, sign * magnitude, rtol=2.0 * EPS, atol=0.0)
        assert np.allclose(delta, sign * magnitude, rtol=2.0 * EPS, atol=0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_sign_draws_keep_the_choice_stream(self, monkeypatch, seed):
        # the amplitudes and the closed forms are stubbed out: only the draws
        # count, and 100 trials are one call of each side
        calls = stub_oracle(monkeypatch)
        assert oracle.verify_closed_form(100, seed).max_rel_err == 0.0
        handed = {name: args for name, (args,) in calls.items()}
        n, m, k_x, d_ky, field = verify_draws(100, seed)
        q, delta, x = scaled(k_x, d_ky, field)
        expected = {"rule": (n, m, q, delta), "closed form": (n, m, x)}
        assert handed.keys() == expected.keys()
        for name, args in expected.items():
            assert len(handed[name]) == len(args)
            assert all(np.array_equal(a, b) for a, b in zip(handed[name], args)), name


class TestBatchedOracle:
    """All trials share one evaluation of the rule, with the bits of each trial alone."""

    @pytest.mark.parametrize("seed", [0, 42, 20260808])
    def test_report_equals_one_trial_at_a_time(self, seed):
        assert oracle.verify_closed_form(100, seed) == loop_verification(100, seed)

    def test_single_trial_is_the_batch_of_one(self):
        drawn = random_params(60, seed=8)
        batched = oracle.transverse_overlap_sq(*drawn)
        alone = [rule(*trial) for trial in zip(*(a.tolist() for a in drawn))]
        assert [v.hex() for v in batched.tolist()] == [v.hex() for v in alone]

    def test_batched_closed_forms_keep_the_bits_of_each_call(self):
        n, m, q, delta = random_params(200, seed=5)
        x = (q * q + delta * delta) / 2.0
        batched = specfun.overlap_weight_rows(n, m, x)
        alone = [specfun.overlap_weight_rows(n[i : i + 1], m[i : i + 1], x[i : i + 1]) for i in range(200)]
        assert [v.hex() for v in batched.tolist()] == [float(v[0]).hex() for v in alone]

    def test_closed_form_within_the_row_bounds(self):
        # the closed form runs on the level kernel; its scalar twin, the row
        # across levels at the larger index, has the same weight within the
        # row's own error bound, on draws past verify's indices
        rng = np.random.default_rng(27)
        n, m = rng.integers(0, 41, size=60), rng.integers(0, 41, size=60)
        x = rng.uniform(0.0, 50.0, size=60)
        got = specfun.overlap_weight_rows(n, m, x)
        lows, highs = np.minimum(n, m).tolist(), np.maximum(n, m).tolist()
        for w, low, high, xi in zip(got.tolist(), lows, highs, x.tolist()):
            row = specfun._overlap_row(high, xi)
            assert abs(w - row[low]) <= row_bounds(high, xi, row)[low], (low, high, xi)

    def test_per_point_modes_match_each_order_alone(self):
        rng = np.random.default_rng(13)
        rho = rng.uniform(-9.0, 9.0, size=600)
        order = rng.integers(0, INDEX_MAX + 1, size=600)
        modes = landau.oscillator_modes(order, rho)
        for n in range(INDEX_MAX + 1):
            alone = transverse_wavefunction(n, 1.0, rho)
            assert np.array_equal(alone, loop_wavefunction(n, rho))
            assert np.array_equal(modes[order == n], alone[order == n])


class TestHermiteRule:
    """The fixed rule against the exact closed form and the adaptive reference."""

    DRAWS = {
        "verify-seeds-0-7": lambda: verify_rule_args(range(8)),
        "reach-7-index-12": lambda: sweep_params(400, seed=29),
    }

    @pytest.mark.parametrize("draws", list(DRAWS))
    def test_within_its_roundoff_of_the_closed_form_and_the_adaptive_reference(self, draws):
        mpmath = pytest.importorskip("mpmath")
        drawn = self.DRAWS[draws]()
        values = oracle.transverse_overlap_sq(*drawn).tolist()
        for trial, value in zip(zip(*(a.tolist() for a in drawn)), values):
            exact = exact_overlap_sq(*trial, mpmath)
            # first order in the parts' roundoff d, whose own squares add
            # 2 d^2; |A_re| + |A_im| <= sqrt(2) |A|; squaring and adding
            # round three times more
            d = rule_roundoff(*trial)
            bound = 2.0 * math.sqrt(2.0 * exact) * d + 2.0 * d * d + 3.0 * EPS * exact
            assert abs(value - exact) <= bound, (trial, value, exact, bound)
            reference, reference_error = loop_overlap_sq(*trial)
            assert abs(value - reference) <= bound + reference_error, (trial, value, reference)

    def test_verify_never_loads_numpy_polynomial(self):
        # the rule is tabulated: a whole verify run builds it from literals
        code = (
            "import sys, magdecay.cli\n"
            "code = magdecay.cli.main(['verify', '--trials', '3'])\n"
            "print(code, 'numpy.polynomial' in sys.modules, file=sys.stderr)\n"
        )
        assert run_python(code) == "0 False\n"

    def test_only_verify_loads_numpy_random(self):
        # the draws import the generator on first use, so the CLI's import
        # and parser, which every command pays for, leave it unloaded
        code = (
            "import sys, magdecay.cli\n"
            "magdecay.cli.build_parser()\n"
            "loaded = 'numpy.random' in sys.modules\n"
            "code = magdecay.cli.main(['verify', '--trials', '3'])\n"
            "print(loaded, code, 'numpy.random' in sys.modules, file=sys.stderr)\n"
        )
        assert run_python(code) == "False 0 True\n"


def run_python(code):
    """The stderr of ``code`` run in a fresh interpreter that imports this checkout's magdecay."""
    src = os.path.dirname(os.path.dirname(magdecay.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stderr
