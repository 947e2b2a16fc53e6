import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiperiod.series import InvalidInputError
from multiperiod.spectral import (
    _ADMM_CHUNK,
    AdmmConfig,
    admm_huber_fit,
    fisher_g,
    fisher_pvalue,
    fisher_test,
    huber_objective,
    huber_periodogram,
    robust_band,
    vanilla_periodogram,
    zero_pad,
)


def harmonic_regressors(n, k):
    t = np.arange(n)
    return np.column_stack(
        [np.cos(2 * np.pi * k * t / n), np.sin(2 * np.pi * k * t / n)]
    )


def assert_band_matches_single_fits(x, ks, cfg):
    """Fitting x over a band is bit-identical to fitting each k on its own."""
    beta, iterations, converged = admm_huber_fit(x, ks, cfg)
    for i, k in enumerate(ks):
        single = admm_huber_fit(x, [k], cfg)
        np.testing.assert_array_equal(beta[i], single[0][0])
        assert iterations[i] == single[1][0]
        assert converged[i] == single[2][0]


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
    def test_noiseless_harmonic_recovered_exactly(self):
        n, k = 96, 5
        phi = harmonic_regressors(n, k)
        beta_true = np.array([0.8, -1.4])
        for zeta in (0.1, 1.0, 100.0):
            beta, _, converged = admm_huber_fit(phi @ beta_true, [k], AdmmConfig(zeta=zeta))
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
            beta, _, _ = admm_huber_fit(x, [k], AdmmConfig(zeta=1e9))
            assert np.linalg.norm(beta[0] - ols) < 1e-5 * max(np.linalg.norm(ols), 1e-12)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=64)
        x[3] += 10.0
        x[40] -= 7.0
        oracle = huber_gradient_descent(x, 7, 1.0)
        beta, _, _ = admm_huber_fit(x, [7])
        assert np.max(np.abs(beta[0] - oracle)) < 1e-3

    def test_degenerate_frequencies_rejected(self):
        x = np.ones(32)
        with pytest.raises(InvalidInputError):
            admm_huber_fit(x, [0])
        with pytest.raises(InvalidInputError):
            admm_huber_fit(x, [16])
        with pytest.raises(InvalidInputError):
            admm_huber_fit(np.ones((2, 32)), [3])  # one series, not rows

    def test_objective_descends_to_its_minimum(self):
        # The solver is not a strict descent method: spiky instances show a
        # ~1e-3 objective uptick right after the first step. Monitored
        # guarantees: descent (to 1e-8 of scale) after that transient, and
        # the last iterate attains the best objective seen. Iterate m is the
        # result of a run capped at m iterations.
        rng = np.random.default_rng(5)
        phi = harmonic_regressors(80, 9)
        for trial in range(10):
            x = rng.normal(size=80)
            spikes = rng.choice(80, size=4, replace=False)
            x[spikes] += rng.choice([-8.0, 8.0], size=4)
            _, iterations, _ = admm_huber_fit(x, [9])
            trace = []
            for m in range(1, int(iterations[0]) + 1):
                beta, _, _ = admm_huber_fit(x, [9], AdmmConfig(max_iter=m))
                trace.append(huber_objective(phi @ beta[0] - x, 1.0))
            trace = np.asarray(trace)
            tol = 1e-8 * np.maximum(1.0, trace[2:-1])
            assert np.all(np.diff(trace)[2:] <= tol)
            assert trace[-1] <= trace[0]
            assert trace[-1] <= trace.min() + 1e-8 * max(1.0, trace.min())

    def test_unconverged_returns_flag_not_error(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=256)
        beta, iters, converged = admm_huber_fit(x, [31], AdmmConfig(eps_abs=1e-14, eps_rel=1e-14, max_iter=3))
        assert iters[0] == 3 and not converged[0]
        assert np.all(np.isfinite(beta))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=128)
        assert_band_matches_single_fits(x, [3, 17, 40, 63], AdmmConfig())

    @pytest.mark.parametrize(
        "size", [1, _ADMM_CHUNK - 1, _ADMM_CHUNK, _ADMM_CHUNK + 1, 2 * _ADMM_CHUNK + 1]
    )
    def test_batch_agrees_with_single_across_chunk_edges(self, size):
        # bins converge at different iterations, so chunks compact unevenly
        rng = np.random.default_rng(size)
        x = zero_pad(rng.standard_t(2, size=150))
        ks = np.arange(3, 3 + size)
        assert_band_matches_single_fits(x, ks, AdmmConfig())
        assert_band_matches_single_fits(x, ks, AdmmConfig(max_iter=7))

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
        hybrid = huber_periodogram(x, 2, AdmmConfig(zeta=1e9))
        vanilla = vanilla_periodogram(x)[:200]
        vanilla[0] = 0.0
        band = slice(hybrid.band[0], hybrid.band[1] + 1)
        denom = np.maximum(vanilla[band], 1e-300)
        assert np.max(np.abs(hybrid.power[band] - vanilla[band]) / denom) < 1e-5

    def test_gaussian_bins_shrink_moderately(self):
        # ADMM with zeta=1 on pure noise shrinks bin power vs the plain
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
        assert_band_matches_single_fits(x, np.arange(lo, hi + 1), AdmmConfig())

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
        g, k_star = fisher_g(power, np.arange(1, 32))
        assert g == 1.0 and k_star == 5

    def test_uniform_power(self):
        power = np.ones(11)
        g, k_star = fisher_g(power, np.arange(1, 11))
        assert g == pytest.approx(1.0 / 10.0)
        assert k_star == 1  # ties break toward the smallest index

    def test_small_example(self):
        power = np.array([1.0, 3.0, 2.0])
        g, k_star = fisher_g(power, np.arange(3))
        assert g == pytest.approx(0.5) and k_star == 1

    def test_zero_power_degenerate(self):
        assert fisher_g(np.zeros(16), np.arange(1, 16)) is None
        outcome = fisher_test(np.zeros(16), np.arange(1, 16), alpha=1e-10)
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
            fisher_g(np.ones(4), np.array([2]))


class TestConfigValidation:
    def test_admm_config(self):
        with pytest.raises(InvalidInputError):
            AdmmConfig(zeta=0.0)
        with pytest.raises(InvalidInputError):
            AdmmConfig(rho=-1.0)
        with pytest.raises(InvalidInputError):
            AdmmConfig(max_iter=0)
