import math
import os
import subprocess
import sys

import numpy as np
import pytest

import magdecay
from magdecay import landau, oracle, quadrature
from reference_paths import transverse_wavefunction

EPS = float(np.finfo(float).eps)

# the adaptive reference's window: its half-width in units of the magnetic
# length, its growth cap, and the absolute floor of its two real quadratures
# (the amplitude itself is bounded by one)
WINDOW_PAD = 8.0
MAX_DOUBLINGS = 6
ABS_TOL = 1e-15


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


def loop_overlap_sq(params, rel_tol=1e-9):
    """The adaptive reference, |A|^2 per unit field and a bound on its error.

    The starting window, then only the two strips each doubling adds, the
    real and the imaginary part of every piece one adaptive quadrature each,
    and the amplitude the fsum of its pieces.  The bound is first order in
    the sum of the pieces' error estimates, each part rounded once more.
    """
    root_field = math.sqrt(params.field)
    q = params.k_x_neutral / root_field
    delta = params.delta_k_y / root_field
    center = -delta / 2.0
    half_width = WINDOW_PAD + math.sqrt(2.0 * max(params.n, params.m) + 1.0)

    def product(rho):
        return loop_wavefunction(params.m, rho) * loop_wavefunction(params.n, rho + delta)

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
    return value / params.field, (error + 4.0 * EPS * value) / params.field


def choice_draws(trials, seed):
    """The trials verify_closed_form draws, each sign taken by rng.choice."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        n = int(rng.integers(0, oracle.VERIFY_INDEX_MAX + 1))
        m = int(rng.integers(0, oracle.VERIFY_INDEX_MAX + 1))
        field = float(10.0 ** rng.uniform(-0.3, 3.3))
        scale = math.sqrt(field)
        k_x = float(rng.uniform(0.3, 3.0) * scale * rng.choice((-1.0, 1.0)))
        d_ky = float(rng.uniform(0.3, 3.0) * scale * rng.choice((-1.0, 1.0)))
        draws.append(oracle.OverlapParams(n=n, m=m, k_x_neutral=k_x, delta_k_y=d_ky, field=field))
    return draws


def loop_verification(trials, seed):
    """verify_closed_form with the oracle and the closed form called one trial at a time."""
    max_err, worst, failures = -1.0, None, []
    for params in choice_draws(trials, seed):
        reference = oracle.closed_form_overlap_sq([params])[0]
        rel_err = abs(oracle.transverse_overlap_sq([params])[0] - reference) / reference
        if rel_err > max_err:
            max_err, worst = rel_err, params
        if rel_err >= oracle.VERIFY_TOLERANCE:
            failures.append((params, rel_err))
    return oracle.OverlapVerification(trials, seed, max_err, worst, tuple(failures))


def random_params(count, seed):
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(count):
        n, m = (int(v) for v in rng.integers(0, oracle.MAX_ORACLE_INDEX + 1, size=2))
        field = float(10.0 ** rng.uniform(-0.3, 3.3))
        k_x, d_ky = rng.uniform(-3.0, 3.0, size=2) * math.sqrt(field)
        drawn.append(oracle.OverlapParams(n, m, float(k_x), float(d_ky), field))
    return drawn


def sweep_params(count, seed, reach=7.0):
    """Indices up to MAX_ORACLE_INDEX and |q|, |delta| in [0.3, reach], random signs."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(count):
        n, m = (int(v) for v in rng.integers(0, oracle.MAX_ORACLE_INDEX + 1, size=2))
        field = float(10.0 ** rng.uniform(-0.3, 3.3))
        signs = rng.choice((-1.0, 1.0), size=2)
        k_x, d_ky = rng.uniform(0.3, reach, size=2) * signs * math.sqrt(field)
        drawn.append(oracle.OverlapParams(n, m, float(k_x), float(d_ky), field))
    return drawn


def rule_roundoff(params):
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
    root_field = math.sqrt(params.field)
    q, delta = params.k_x_neutral / root_field, params.delta_k_y / root_field
    a = nodes - delta / 2.0
    b = a + delta
    size = np.abs(weights * loop_wavefunction(params.m, a) * loop_wavefunction(params.n, b))
    roundings = (
        nodes * nodes + (a * a + b * b) / 2.0 + np.abs(q * a) + params.n + params.m + 11.0
        + (oracle._NODES - 1)
    )
    return EPS * float(np.sum(size * roundings))


def exact_overlap_sq(params, mpmath):
    """|A|^2 from the closed form at 40 digits, at the q and delta the rule rounds to."""
    root_field = math.sqrt(params.field)
    q, delta = params.k_x_neutral / root_field, params.delta_k_y / root_field
    low, high = sorted((params.n, params.m))
    with mpmath.workdps(40):
        x = (mpmath.mpf(q) ** 2 + mpmath.mpf(delta) ** 2) / 2
        weight = (
            mpmath.factorial(low) / mpmath.factorial(high) * x ** (high - low) * mpmath.exp(-x)
            * mpmath.laguerre(low, high - low, x) ** 2
        )
        return float(weight)


class TestOverlapParams:
    def test_index_cap(self):
        with pytest.raises(ValueError):
            oracle.OverlapParams(n=13, m=0, k_x_neutral=0.0, delta_k_y=0.0, field=1.0)

    def test_field_must_be_positive(self):
        with pytest.raises(ValueError):
            oracle.OverlapParams(n=0, m=0, k_x_neutral=0.0, delta_k_y=0.0, field=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["k_x_neutral", "delta_k_y", "field"])
    def test_non_finite_input_rejected(self, name, value):
        kwargs = {"n": 1, "m": 1, "k_x_neutral": 0.5, "delta_k_y": 0.5, "field": 1.0, name: value}
        with pytest.raises(ValueError, match="must be finite"):
            oracle.OverlapParams(**kwargs)

    def test_displacement(self):
        p = oracle.OverlapParams(n=0, m=0, k_x_neutral=3.0, delta_k_y=4.0, field=2.0)
        assert p.displacement_sq() == pytest.approx(25.0 / 4.0, rel=1e-14)


class TestNumericOverlap:
    def test_coincidence_gives_inverse_field(self):
        for field in (0.8, 3.3, 250.0):
            p = oracle.OverlapParams(n=0, m=0, k_x_neutral=0.0, delta_k_y=0.0, field=field)
            assert oracle.transverse_overlap_sq([p])[0] == pytest.approx(1.0 / field, rel=1e-11)

    def test_orthogonality_of_distinct_levels(self):
        p = oracle.OverlapParams(n=0, m=1, k_x_neutral=0.0, delta_k_y=0.0, field=2.0)
        assert abs(oracle.transverse_overlap_sq([p])[0]) < 1e-16

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
        p = oracle.OverlapParams(n=n, m=m, k_x_neutral=k_x, delta_k_y=d_ky, field=field)
        numeric = oracle.transverse_overlap_sq([p])[0]
        reference = oracle.closed_form_overlap_sq([p])[0]
        assert numeric == pytest.approx(reference, rel=1e-8)

    def test_invariant_under_joint_sign_flip(self):
        base = oracle.OverlapParams(n=3, m=6, k_x_neutral=1.3, delta_k_y=-0.9, field=2.1)
        flipped = oracle.OverlapParams(n=3, m=6, k_x_neutral=-1.3, delta_k_y=0.9, field=2.1)
        assert oracle.transverse_overlap_sq([base])[0] == pytest.approx(
            oracle.transverse_overlap_sq([flipped])[0], rel=1e-11
        )

    def test_depends_only_on_momentum_magnitude(self):
        a = oracle.OverlapParams(n=2, m=4, k_x_neutral=1.7, delta_k_y=0.6, field=3.0)
        b = oracle.OverlapParams(n=2, m=4, k_x_neutral=0.6, delta_k_y=1.7, field=3.0)
        assert oracle.transverse_overlap_sq([a])[0] == pytest.approx(
            oracle.transverse_overlap_sq([b])[0], rel=1e-9
        )


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
        assert report.passed
        assert report.max_rel_err < 1e-6
        assert report.trials == 30

    def test_determinism(self):
        first = oracle.verify_closed_form(10, seed=42)
        second = oracle.verify_closed_form(10, seed=42)
        assert first == second

    def test_different_seeds_explore_different_points(self):
        a = oracle.verify_closed_form(5, seed=1)
        b = oracle.verify_closed_form(5, seed=2)
        assert a.worst != b.worst

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            oracle.verify_closed_form(0)

    @pytest.mark.parametrize("seed", range(8))
    def test_sign_draws_keep_the_choice_stream(self, monkeypatch, seed):
        # the amplitudes and the closed forms are stubbed out: only the draws count
        drawn = []

        def record_draws(draws):
            drawn.extend(draws)
            return [1.0] * len(draws)

        monkeypatch.setattr(oracle, "transverse_overlap_sq", record_draws)
        monkeypatch.setattr(oracle, "closed_form_overlap_sq", lambda draws: [1.0] * len(draws))
        oracle.verify_closed_form(100, seed)
        assert drawn == choice_draws(100, seed)


class TestBatchedOracle:
    """All trials share one evaluation of the rule, with the bits of each trial alone."""

    @pytest.mark.parametrize("seed", [0, 42, 20260808])
    def test_report_equals_one_trial_at_a_time(self, seed):
        assert oracle.verify_closed_form(100, seed) == loop_verification(100, seed)

    def test_single_trial_is_the_batch_of_one(self):
        drawn = random_params(60, seed=8)
        batched = oracle.transverse_overlap_sq(drawn)
        assert [v.hex() for v in batched] == [
            oracle.transverse_overlap_sq([p])[0].hex() for p in drawn
        ]

    def test_batched_closed_forms_keep_the_bits_of_each_call(self):
        drawn = random_params(200, seed=5)
        batched = oracle.closed_form_overlap_sq(drawn)
        assert [v.hex() for v in batched] == [
            oracle.closed_form_overlap_sq([p])[0].hex() for p in drawn
        ]

    def test_per_point_modes_match_each_order_alone(self):
        rng = np.random.default_rng(13)
        rho = rng.uniform(-9.0, 9.0, size=600)
        order = rng.integers(0, oracle.MAX_ORACLE_INDEX + 1, size=600)
        modes = landau.oscillator_modes(order, rho)
        for n in range(oracle.MAX_ORACLE_INDEX + 1):
            alone = transverse_wavefunction(n, 1.0, rho)
            assert np.array_equal(alone, loop_wavefunction(n, rho))
            assert np.array_equal(modes[order == n], alone[order == n])


class TestHermiteRule:
    """The fixed rule against the exact closed form and the adaptive reference."""

    DRAWS = {
        "verify-seeds-0-7": lambda: [p for s in range(8) for p in choice_draws(100, s)],
        "reach-7-index-12": lambda: sweep_params(400, seed=29),
    }

    @pytest.mark.parametrize("draws", list(DRAWS))
    def test_within_its_roundoff_of_the_closed_form_and_the_adaptive_reference(self, draws):
        mpmath = pytest.importorskip("mpmath")
        drawn = self.DRAWS[draws]()
        for p, value in zip(drawn, oracle.transverse_overlap_sq(drawn)):
            exact = exact_overlap_sq(p, mpmath)
            # first order in the parts' roundoff d, whose own squares add
            # 2 d^2; |A_re| + |A_im| <= sqrt(2) |A|; squaring, adding and
            # dividing by the field round four times more
            d = rule_roundoff(p)
            bound = (2.0 * math.sqrt(2.0 * exact) * d + 2.0 * d * d + 4.0 * EPS * exact) / p.field
            assert abs(value - exact / p.field) <= bound, (p, value, exact, bound)
            reference, reference_error = loop_overlap_sq(p)
            assert abs(value - reference) <= bound + reference_error, (p, value, reference)

    def test_verify_never_loads_numpy_polynomial(self):
        # the rule is tabulated: a whole verify run builds it from literals
        src = os.path.dirname(os.path.dirname(magdecay.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = (
            "import sys, magdecay.cli\n"
            "code = magdecay.cli.main(['verify', '--trials', '3'])\n"
            "print(code, 'numpy.polynomial' in sys.modules, file=sys.stderr)\n"
        )
        err = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stderr
        assert err == "0 False\n"
