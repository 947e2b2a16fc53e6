import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiperiod.detector import DetectorConfig, _detect
from multiperiod.series import InvalidInputError
from multiperiod.spectral import (
    _FIT_CHUNK,
    DEFAULT_ZETA,
    fisher_pvalue,
    fisher_test,
    huber_fit,
    huber_objective,
    huber_periodogram,
    robust_band,
    vanilla_periodogram,
    zero_pad,
)
from multiperiod.synthbench import SCENARIOS, generate


# A chunk of the solver holds CHUNK_BINS bins of a series of CHUNK_SERIES samples.
CHUNK_BINS = 32
CHUNK_SERIES = _FIT_CHUNK // CHUNK_BINS


def harmonic_regressors(n, k):
    t = np.arange(n)
    return np.column_stack(
        [np.cos(2 * np.pi * k * t / n), np.sin(2 * np.pi * k * t / n)]
    )


def assert_band_matches_single_fits(x, ks, max_steps=50, zeta=DEFAULT_ZETA):
    """Fitting x over a band is bit-identical to fitting each k on its own."""
    beta, iterations, converged = huber_fit(x, ks, zeta, max_steps=max_steps)
    for i, k in enumerate(ks):
        single = huber_fit(x, [k], zeta, max_steps=max_steps)
        np.testing.assert_array_equal(beta[i], single[0][0])
        assert iterations[i] == single[1][0]
        assert converged[i] == single[2][0]


def admm_oracle(x, ks, zeta, rho=1.0, eps_abs=1e-4, eps_rel=1e-4, max_iter=50):
    """The ADMM this package solved the Huber harmonic fit with before IRLS.

    Fits x (n,) at each k in ks with u the scaled dual and S the soft
    threshold at zeta*(1+rho)/rho:

        beta <- (phi'phi)^-1 phi' (z + x - u)
        z    <- rho/(1+rho)*(phi beta + u - x) + 1/(1+rho)*S(phi beta + u - x)
        u    <- u + phi beta - z - x

    stopping when the primal residual ||phi beta - z - x|| and the dual
    residual rho*||phi'(z - z_prev)|| fall below their mixed
    absolute/relative tolerances, or at max_iter. Returns beta (B, 2).
    """
    n = x.size
    ks = np.asarray(ks, dtype=np.float64)
    angle = (2 * np.pi / n) * ks[:, None] * np.arange(n)
    cos_l, sin_l = np.cos(angle), np.sin(angle)
    cc, cs, ss = (np.einsum("ij,ij->i", a, b) for a, b in
                  ((cos_l, cos_l), (cos_l, sin_l), (sin_l, sin_l)))
    dt = cc * ss - cs * cs
    thr = zeta * (1 + rho) / rho
    z = np.zeros((ks.size, n))
    u = np.zeros((ks.size, n))
    beta = np.zeros((ks.size, 2))
    live = np.ones(ks.size, dtype=bool)
    for _ in range(max_iter):
        target = z + x - u
        tc = np.einsum("ij,ij->i", cos_l, target)
        ts = np.einsum("ij,ij->i", sin_l, target)
        b0 = (ss * tc - cs * ts) / dt
        b1 = (cc * ts - cs * tc) / dt
        beta[live] = np.column_stack([b0, b1])[live]
        fit = cos_l * b0[:, None] + sin_l * b1[:, None]
        v = fit + u - x
        z_new = rho / (1 + rho) * v + np.sign(v) * np.maximum(np.abs(v) - thr, 0) / (1 + rho)
        pri = np.linalg.norm(fit - z_new - x, axis=1)
        dz_c = np.einsum("ij,ij->i", cos_l, z_new - z)
        dz_s = np.einsum("ij,ij->i", sin_l, z_new - z)
        dual = rho * np.hypot(dz_c, dz_s)
        u = u + fit - z_new - x
        z = z_new
        scale = np.maximum(np.linalg.norm(fit, axis=1),
                           np.maximum(np.linalg.norm(z, axis=1), np.linalg.norm(x)))
        eps_pri = math.sqrt(n) * eps_abs + eps_rel * scale
        eps_dual = math.sqrt(2) * eps_abs + eps_rel * rho * np.hypot(
            np.einsum("ij,ij->i", cos_l, u), np.einsum("ij,ij->i", sin_l, u))
        live &= ~((pri <= eps_pri) & (dual <= eps_dual))
        if not live.any():
            break
    return beta


def fit_objective(x, k, beta, zeta):
    return huber_objective(harmonic_regressors(x.size, k) @ beta - x, zeta)


def huber_gradient_descent(x, k, zeta, iters=150000):
    """Slow first-order oracle for the Huber harmonic fit."""
    n = x.size
    phi = harmonic_regressors(n, k)
    beta = np.zeros(2)
    step = 1.0 / (n / 2.0)
    for _ in range(iters):
        r = phi @ beta - x
        beta = beta - step * (phi.T @ np.clip(r, -zeta, zeta))
    return beta


class TestZeroPad:
    def test_two_point_example(self):
        np.testing.assert_allclose(zero_pad(np.array([1.0, 2.0])), [-1.0, 1.0, 0.0, 0.0])

    def test_zero_vector_stays_zero(self):
        out = zero_pad(np.zeros(8))
        np.testing.assert_array_equal(out, np.zeros(16))

    def test_doubles_length(self):
        rng = np.random.default_rng(0)
        for n in (5, 64, 333):
            assert zero_pad(rng.normal(size=n)).size == 2 * n

    def test_nonzero_part_is_standardized(self):
        rng = np.random.default_rng(1)
        out = zero_pad(rng.normal(3.0, 10.0, size=100))
        assert abs(out[:100].mean()) < 1e-12
        assert abs(out[:100].std() - 1.0) < 1e-12


class TestVanillaPeriodogram:
    def test_zero_series(self):
        np.testing.assert_array_equal(vanilla_periodogram(np.zeros(16)), np.zeros(16))

    def test_cosine_peak_value(self):
        n, k0 = 128, 9
        t = np.arange(n)
        p = vanilla_periodogram(np.cos(2 * np.pi * k0 * t / n))
        assert np.argmax(p) == k0
        assert p[k0] == pytest.approx(n / 4.0)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=250)
        p = vanilla_periodogram(x)
        assert p.sum() == pytest.approx(np.dot(x, x), rel=1e-8)


class TestAdmmHuberFit:
    """huber_fit; the class is named after the ADMM solver that it replaced."""

    def test_noiseless_harmonic_recovered_exactly(self):
        n, k = 96, 5
        phi = harmonic_regressors(n, k)
        beta_true = np.array([0.8, -1.4])
        for zeta in (0.1, 1.0, 100.0):
            beta, _, converged = huber_fit(phi @ beta_true, [k], zeta)
            assert converged[0]
            assert np.max(np.abs(beta[0] - beta_true)) < 1e-6

    def test_huge_zeta_matches_least_squares(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.choice([64, 128, 200]))
            k = int(rng.integers(1, n // 2))
            x = rng.normal(size=n)
            phi = harmonic_regressors(n, k)
            ols = np.linalg.lstsq(phi, x, rcond=None)[0]
            beta, iterations, _ = huber_fit(x, [k], 1e9)
            assert np.linalg.norm(beta[0] - ols) < 1e-5 * max(np.linalg.norm(ols), 1e-12)
            # the least-squares start is the minimizer: its step is round-off
            assert iterations[0] == 1

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=64)
        x[3] += 10.0
        x[40] -= 7.0
        oracle = huber_gradient_descent(x, 7, 1.0)
        beta, _, _ = huber_fit(x, [7])
        assert np.max(np.abs(beta[0] - oracle)) < 1e-3

    def test_degenerate_frequencies_rejected(self):
        x = np.ones(32)
        with pytest.raises(InvalidInputError):
            huber_fit(x, [0])
        with pytest.raises(InvalidInputError):
            huber_fit(x, [16])
        with pytest.raises(InvalidInputError):
            huber_fit(np.ones((2, 32)), [3])  # one series, not rows

    def test_non_integer_frequencies_rejected(self):
        x = np.ones(32)
        for ks in ([3.5], [3, 4.25], [math.nan], [[3, 4]], np.array([[5]])):
            with pytest.raises(InvalidInputError):
                huber_fit(x, ks)
        # integral values of any dtype are indices
        rng = np.random.default_rng(14)
        x = rng.normal(size=32)
        floats, ints = huber_fit(x, [3.0, 5.0]), huber_fit(x, [3, 5])
        np.testing.assert_array_equal(floats[0], ints[0])

    def test_objective_descends_to_its_minimum(self):
        # A Newton step that would raise the Huber loss is halved back, so
        # the objective never increases from the least-squares start through
        # the last step. Iterate m is the result of a run capped at m steps.
        rng = np.random.default_rng(5)
        phi = harmonic_regressors(80, 9)
        for trial in range(10):
            x = rng.normal(size=80)
            spikes = rng.choice(80, size=4, replace=False)
            x[spikes] += rng.choice([-8.0, 8.0], size=4)
            _, iterations, converged = huber_fit(x, [9])
            assert converged[0] and iterations[0] > 2
            least_squares = np.linalg.lstsq(phi, x, rcond=None)[0]
            trace = [huber_objective(phi @ least_squares - x, 1.0)]
            for m in range(1, int(iterations[0]) + 1):
                beta, _, _ = huber_fit(x, [9], max_steps=m)
                trace.append(huber_objective(phi @ beta[0] - x, 1.0))
            assert np.all(np.diff(trace) <= 1e-12 * trace[0])
            assert trace[-1] < trace[0]

    def test_singular_active_gram_takes_the_irls_step(self):
        # every residual of the least-squares start is clipped, so its active
        # Gram is zero and the first step is the IRLS step; the objective
        # still never increases, and each bin ends at the descent oracle
        rng = np.random.default_rng(15)
        x = 10.0 * rng.choice([-1.0, 1.0], size=64)
        for k in (3, 5, 7):
            phi = harmonic_regressors(64, k)
            least_squares = np.linalg.lstsq(phi, x, rcond=None)[0]
            assert np.all(np.abs(x - phi @ least_squares) > 0.1)
            beta, iterations, converged = huber_fit(x, [k], 0.1)
            assert converged[0]
            trace = [fit_objective(x, k, least_squares, 0.1)]
            for m in range(1, int(iterations[0]) + 1):
                capped = huber_fit(x, [k], 0.1, max_steps=m)[0][0]
                trace.append(fit_objective(x, k, capped, 0.1))
            assert np.all(np.diff(trace) <= 1e-12 * trace[0])
            oracle = huber_gradient_descent(x, k, 0.1, iters=50000)
            assert trace[-1] <= (1 + 1e-12) * fit_objective(x, k, oracle, 0.1)

    def test_unconverged_returns_flag_not_error(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=256)
        beta, iters, converged = huber_fit(x, [31], max_steps=1)
        assert iters[0] == 1 and not converged[0]
        assert np.all(np.isfinite(beta))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=128)
        assert_band_matches_single_fits(x, [3, 17, 40, 63])

    @pytest.mark.parametrize(
        "size", [1, CHUNK_BINS - 1, CHUNK_BINS, CHUNK_BINS + 1, 2 * CHUNK_BINS + 1]
    )
    def test_batch_agrees_with_single_across_chunk_edges(self, size):
        # bins converge at different iterations, so chunks compact unevenly;
        # at max_steps=2 most bins stop at the cap
        rng = np.random.default_rng(size)
        noise = rng.standard_t(2, size=CHUNK_SERIES)
        ks = np.arange(3, 3 + size)
        # At zeta = 0.3 the last bin's least-squares start lies past
        # ||beta|| = zeta; the middle tone's highest samples are pulled down,
        # so its bins start inside the ball and leave it on the second step.
        # The padding is a fifth of the series.
        n, t = 5 * CHUNK_SERIES // 4, np.arange(CHUNK_SERIES)
        tone = np.cos(2 * np.pi * ks[size // 2] * t / n)
        guard = 0.3 * noise + np.cos(2 * np.pi * ks[-1] * t / n) + tone
        guard[np.argsort(-tone)[:50]] -= 10
        guard = np.concatenate([guard, np.zeros(n - CHUNK_SERIES)])
        for x, zeta in ((zero_pad(noise), DEFAULT_ZETA), (guard, 0.3)):
            assert_band_matches_single_fits(x, ks, zeta=zeta)
            assert_band_matches_single_fits(x, ks, max_steps=7, zeta=zeta)
            assert_band_matches_single_fits(x, ks, max_steps=2, zeta=zeta)

    @pytest.mark.parametrize(
        "make, zeta",
        [
            # a tone in light t(3) noise: the tone's bins break the guard at 0.3
            (lambda rng, t: np.sin(2 * np.pi * t / 16) + 0.2 * rng.standard_t(3, t.size), 0.3),
            # a clean unit-std sine: its bin has ||beta|| near 0.71 > 0.5
            (lambda rng, t: math.sqrt(2) * np.sin(2 * np.pi * t / 16), 0.5),
        ],
        ids=["zeta0.3", "sine-zeta0.5"],
    )
    def test_guard_breaking_bins_take_the_full_step(self, make, zeta):
        # past ||beta|| = zeta the padded samples may be downweighted, so the
        # step sums the padding explicitly; both paths meet the descent oracle
        rng = np.random.default_rng(12)
        x = zero_pad(make(rng, np.arange(128)))
        ks = np.arange(12, 21)
        beta, _, converged = huber_fit(x, ks, zeta)
        assert converged.all()
        norms = np.hypot(beta[:, 0], beta[:, 1])
        assert norms.max() > zeta and norms.min() < zeta
        for i, k in enumerate(ks):
            oracle = huber_gradient_descent(x, k, zeta, iters=20000)
            assert np.max(np.abs(beta[i] - oracle)) < 1e-6
            assert fit_objective(x, k, beta[i], zeta) <= (1 + 1e-12) * fit_objective(
                x, k, oracle, zeta
            )

    def test_guard_breaking_bin_checks_its_padding_pattern(self):
        # a tone over the first 5/8 or 3/4 of the samples: the real residuals
        # stay unclipped while the clipped padded samples change from step
        # to step, so only the padding's pattern shows the fit is not done
        t = np.arange(128)
        for length, zeta, k in ((80, 0.45, 8), (96, 0.5, 9)):
            x = np.where(t < length, np.cos(2 * np.pi * k * t / 128), 0.0)
            beta, _, converged = huber_fit(x, [k], zeta)
            assert converged[0] and np.hypot(*beta[0]) > zeta
            oracle = huber_gradient_descent(x, k, zeta, iters=20000)
            assert np.max(np.abs(beta[0] - oracle)) < 1e-6

    @pytest.mark.parametrize("scenario", ["mild", "severe"])
    def test_workload_bins_converge_in_few_steps(self, scenario):
        # every bin of every examined level converges, in at most 4 Newton
        # steps per bin on average (IRLS took 7 to 8)
        series = generate(replace(SCENARIOS[scenario], seed=0))
        _, spectra = _detect(series, DetectorConfig())
        assert spectra
        for level, hybrid in spectra:
            assert hybrid.converged.all(), level
            assert hybrid.iterations.mean() <= 4, level

    @settings(max_examples=30, deadline=None)
    @given(
        half=st.integers(32, 1000),
        level=st.integers(1, 7),
        zeta=st.sampled_from([0.3, 1.0, 1e9]),
        heavy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(0, 2**16),
        tone=st.none() | st.tuples(st.floats(0, 1), st.floats(0.5, 5)),
    )
    def test_objective_at_most_the_admm_oracle(
        self, half, level, zeta, heavy, seed, window, tone
    ):
        # an in-band tone takes some bins past ||beta|| = zeta
        band = robust_band(2 * half, level)
        if band is None:
            return
        rng = np.random.default_rng(seed)
        noise = rng.standard_t(2, half) if heavy else rng.normal(size=half)
        if tone is not None:
            where, amplitude = tone
            k = band[0] + round(where * (band[1] - band[0]))
            noise += amplitude * np.cos(np.pi * k * np.arange(half) / half)
        x = zero_pad(noise)
        ks = np.arange(band[0], band[1] + 1)
        if ks.size > 64:  # a window of wide bands keeps the oracle cheap
            start = window % (ks.size - 63)
            ks = ks[start : start + 64]
        beta, _, _ = huber_fit(x, ks, zeta)
        reference = admm_oracle(x, ks, zeta)
        for i, k in enumerate(ks):
            ours = fit_objective(x, k, beta[i], zeta)
            theirs = fit_objective(x, k, reference[i], zeta)
            assert ours <= theirs + 1e-9 * abs(theirs)

    def test_objective_helper(self):
        r = np.array([0.5, -2.0])
        # 0.5*0.25 + (2 - 0.5) with zeta=1
        assert huber_objective(r, 1.0) == pytest.approx(0.125 + 1.5)


class TestHuberPeriodogram:
    def test_known_frequency_in_band(self):
        # period 144 over 4 cycles: the padded spectrum peaks at k = 8,
        # inside the level-7 band
        n_series, period = 576, 144
        t = np.arange(n_series)
        x = zero_pad(np.sin(2 * np.pi * t / period))
        hybrid = huber_periodogram(x, 7)
        assert hybrid.band is not None
        lo, hi = hybrid.band
        assert lo <= 8 <= hi
        assert np.argmax(hybrid.power) == 8

    def test_band_formula(self):
        assert robust_band(1152, 7) == (5, 9)
        assert robust_band(2000, 4) == (63, 125)
        # level 1 band clips at the top of the half spectrum
        assert robust_band(2000, 1) == (500, 999)

    def test_mask_matches_band(self):
        rng = np.random.default_rng(8)
        x = zero_pad(rng.normal(size=256))
        hybrid = huber_periodogram(x, 3)
        assert hybrid.band == robust_band(512, 3)
        lo, hi = hybrid.band
        assert hybrid.iterations.size == hybrid.converged.size == hi - lo + 1
        # every bin outside the band keeps the plain periodogram
        plain = huber_periodogram(x, 3, robust=False).power
        outside = np.ones(256, dtype=bool)
        outside[lo : hi + 1] = False
        np.testing.assert_array_equal(hybrid.power[outside], plain[outside])
        assert np.all(hybrid.power[lo : hi + 1] != plain[lo : hi + 1])
        assert np.all(hybrid.power >= 0)
        assert hybrid.power[0] == 0.0

    def test_zero_input(self):
        hybrid = huber_periodogram(np.zeros(128), 3)
        np.testing.assert_array_equal(hybrid.power, np.zeros(64))
        assert hybrid.band is None

    def test_huge_zeta_equals_vanilla(self):
        rng = np.random.default_rng(9)
        x = zero_pad(rng.normal(size=200))
        hybrid = huber_periodogram(x, 2, 1e9)
        vanilla = vanilla_periodogram(x)[:200]
        vanilla[0] = 0.0
        band = slice(hybrid.band[0], hybrid.band[1] + 1)
        denom = np.maximum(vanilla[band], 1e-300)
        assert np.max(np.abs(hybrid.power[band] - vanilla[band]) / denom) < 1e-5

    def test_gaussian_bins_shrink_moderately(self):
        # The Huber fit at zeta=1 on pure noise shrinks bin power vs the plain
        # spectrum; the Monte Carlo mean relative gap sits near 0.6
        rng = np.random.default_rng(10)
        rels = []
        for _ in range(10):
            x = zero_pad(rng.normal(size=256))
            hybrid = huber_periodogram(x, 2)
            vanilla = vanilla_periodogram(x)[:256]
            band = slice(hybrid.band[0], hybrid.band[1] + 1)
            rels.append(np.abs(hybrid.power[band] - vanilla[band]) / vanilla[band])
        mean_rel = float(np.concatenate(rels).mean())
        assert 0.2 < mean_rel < 0.8

    def test_peak_power_shift_invariant_for_pure_tone(self):
        # power (not phase) is reported: the tone bin k = 2N/T survives any
        # circular shift; leakage sidelobes are phase-dependent by nature
        n_series, period = 200, 20
        t = np.arange(n_series)
        w = np.sin(2 * np.pi * t / period)
        base = huber_periodogram(zero_pad(w), 4).power
        k_tone = 2 * n_series // period
        assert np.argmax(base) == k_tone
        for shift in (1, 7, 50):
            rolled = huber_periodogram(zero_pad(np.roll(w, shift)), 4).power
            assert np.argmax(rolled) == k_tone
            assert abs(rolled[k_tone] - base[k_tone]) / base[k_tone] < 1e-3

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_band_power_equals_per_bin_power(self, data):
        n = 2 * data.draw(st.integers(2, 90), label="half")
        x = data.draw(
            arrays(np.float64, n, elements=st.floats(-1e6, 1e6, allow_nan=False)),
            label="x",
        )
        lo = data.draw(st.integers(1, n // 2 - 1), label="lo")
        hi = data.draw(st.integers(lo, n // 2 - 1), label="hi")
        assert_band_matches_single_fits(x, np.arange(lo, hi + 1))

    def test_level_one_memory_is_linear_in_length(self):
        # the level-1 band has N/2 bins: solving all of them at once would
        # need O(N^2) memory, the chunked solve O(N)
        rng = np.random.default_rng(13)
        peaks = {}
        for n_series in (1000, 2000):
            x = zero_pad(rng.normal(size=n_series))
            tracemalloc.start()
            try:
                huber_periodogram(x, 1)
                peaks[n_series] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] < 16 * 2**20
        assert peaks[2000] < 2.5 * peaks[1000]


class TestFisher:
    def test_all_mass_in_one_bin(self):
        power = np.zeros(32)
        power[5] = 2.0
        outcome = fisher_test(power, alpha=1e-10)
        assert outcome.g == 1.0 and outcome.k_star == 5

    def test_uniform_power(self):
        power = np.ones(11)
        outcome = fisher_test(power, alpha=1e-10)
        assert outcome.g == pytest.approx(1.0 / 10.0)
        assert outcome.k_star == 1  # ties break toward the smallest index

    def test_small_example(self):
        # bins 1..3 are tested; the large DC bin 0 is not
        power = np.array([7.0, 3.0, 2.0, 1.0])
        outcome = fisher_test(power, alpha=1e-10)
        assert outcome.g == pytest.approx(0.5) and outcome.k_star == 1

    def test_zero_power_degenerate(self):
        outcome = fisher_test(np.zeros(16), alpha=1e-10)
        assert outcome.k_star == -1
        assert not outcome.significant and outcome.p_value == 1.0

    def test_pvalue_hand_example(self):
        # floor(1/0.9) = 1 term: C(5,1) * (1 - 0.9)^4
        assert fisher_pvalue(0.9, 5) == pytest.approx(5e-4, rel=1e-12)

    def test_pvalue_monotone_decreasing_in_g(self):
        for m in (8, 64, 999):
            assert fisher_pvalue(0.5, m) > fisher_pvalue(0.9, m)
            gs = np.linspace(2.0 / m, 0.99, 25)
            ps = [fisher_pvalue(g, m) for g in gs]
            assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_pvalue_limits(self):
        assert fisher_pvalue(1.0, 10) == 0.0
        assert fisher_pvalue(1.0 / 10.0 + 1e-9, 10) == pytest.approx(1.0, abs=1e-6)

    def test_pvalue_large_m_stays_in_range(self):
        for g in (0.002, 0.01, 0.05, 0.3):
            p = fisher_pvalue(g, 2000)
            assert 0.0 <= p <= 1.0

    def test_pvalue_domain_errors(self):
        with pytest.raises(InvalidInputError):
            fisher_pvalue(0.0, 10)
        with pytest.raises(InvalidInputError):
            fisher_pvalue(1.5, 10)
        with pytest.raises(InvalidInputError):
            fisher_pvalue(0.5, 1)

    def test_range_needs_two_bins(self):
        with pytest.raises(InvalidInputError):
            fisher_test(np.ones(2), alpha=1e-10)


class TestConfigValidation:
    def test_huber_fit_settings(self):
        x = np.ones(32)
        with pytest.raises(InvalidInputError):
            huber_fit(x, [3], 0.0)
        with pytest.raises(InvalidInputError):
            huber_fit(x, [3], math.nan)

    @pytest.mark.parametrize("value", [0, 2.5, math.nan, 1e9, "50"])
    def test_huber_fit_rejects_non_integer_max_steps(self, value):
        with pytest.raises(InvalidInputError):
            huber_fit(np.ones(32), [3], max_steps=value)
