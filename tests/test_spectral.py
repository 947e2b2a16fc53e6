import hashlib
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiperiod import spectral
from multiperiod.cache import TABLES
from multiperiod.detector import DetectorConfig, _detect
from multiperiod.modwt import MAX_FAMILY_ORDER, daubechies_filters, level_gains, max_level
from multiperiod.series import InvalidInputError
from multiperiod.spectral import (
    DEFAULT_ZETA,
    fisher_pvalue,
    fisher_test,
    huber_fit,
    huber_periodogram,
    zero_pad,
)
from multiperiod.synthbench import SCENARIOS, generate

from oracles import huber_objective, unit_spectrum, vanilla_periodogram


# Band sizes around CHUNK_BINS, fit on a series of CHUNK_SERIES samples.
CHUNK_BINS = 32
CHUNK_SERIES = 1000


def harmonic_regressors(n, k):
    t = np.arange(n)
    return np.column_stack(
        [np.cos(2 * np.pi * k * t / n), np.sin(2 * np.pi * k * t / n)]
    )


def capped_fit(*args, steps):
    """``huber_fit(*args)`` with at most ``steps`` Newton steps per bin."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_MAX_STEPS", steps)
        return huber_fit(*args)


def assert_band_matches_single_fits(x, ks, max_steps=50, zeta=DEFAULT_ZETA):
    """Fitting x over a band is bit-identical to fitting each k on its own."""
    beta, iterations, converged = capped_fit(x, ks, zeta, steps=max_steps)
    assert beta.shape == (len(ks), 2)
    for i, k in enumerate(ks):
        single = capped_fit(x, [k], zeta, steps=max_steps)
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

    @pytest.mark.parametrize("value", [0.1, 1 / 3, 4.0, -7e-300, 123.456])
    @pytest.mark.parametrize("n", [3, 7, 1000])
    def test_constant_series_pad_to_zeros(self, value, n):
        # 3 * 0.1 rounds up, so 0.1's mean leaves deviations of about 1e-17
        out = zero_pad(np.full(n, value))
        np.testing.assert_array_equal(out, np.zeros(2 * n))
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("scale", [1e170, 1e300, 1e-170, 1e-300])
    def test_series_whose_squares_overflow_or_underflow_still_vary(self, scale):
        # the squared deviations overflow or underflow, so the plain moments
        # would give the series no spread; scaled by its max |value| it has one
        unit = np.array([1.0, -1.0, 1.0, -1.0, 0.5])
        np.testing.assert_array_equal(zero_pad(scale * unit), zero_pad(unit))
        np.testing.assert_array_equal(zero_pad(np.full(5, scale)), np.zeros(10))

    @pytest.mark.parametrize("n", [2, 7, 1000])
    def test_equals_numpys_standardization_bit_for_bit(self, n):
        # an extreme-magnitude series and a plain one
        rng = np.random.default_rng(n)
        extreme = 1e300 * rng.choice([-1.0, 0.5, 1.0], size=n)
        extreme[0] = 1e300
        for series, values in ((extreme, extreme / 1e300), (rng.normal(3.0, 10.0, n),) * 2):
            out = zero_pad(series)
            np.testing.assert_array_equal(out[:n], (values - values.mean()) / values.std())
            np.testing.assert_array_equal(out[n:], np.zeros(n))

    def test_a_row_at_round_off_of_its_mean_still_varies(self):
        row = np.full(4, 1e6)
        row[2] = np.nextafter(1e6, 2e6)
        out = zero_pad(row)
        assert out.any()
        np.testing.assert_array_equal(out[:4], (row - row.mean()) / row.std())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            zero_pad([1.0, bad, 2.0])

    @pytest.mark.parametrize("shape", [(0,), (), (2, 3), (3, 0), (2, 2, 2)])
    def test_shape_must_be_a_nonempty_series(self, shape):
        with pytest.raises(InvalidInputError):
            zero_pad(np.ones(shape))

    @settings(max_examples=300, deadline=None)
    @given(
        row=arrays(
            np.float64,
            st.integers(1, 40),
            elements=st.one_of(st.sampled_from([0.0, -0.0, 4.0]), st.floats(-1e6, 1e6)),
        )
    )
    def test_equals_the_numpy_formula(self, row):
        n = row.size
        expected = np.zeros(2 * n)
        # a varying series whose squared deviations underflow is standardized
        # from its values over their max |value|
        peak = np.max(np.abs(row))
        scaled = row / peak if row.std() == 0 and peak > 0 else row
        # an exactly constant series pads to zeros even where the rounded
        # mean leaves it a positive std
        std = 0.0 if row.max() == row.min() else scaled.std()
        if std > 0:
            expected[:n] = (scaled - scaled.mean()) / std
        out = zero_pad(row)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))


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

    def test_stack_rows_equal_the_one_row_call(self):
        stack = np.random.default_rng(4).normal(size=(4, 250))
        p = vanilla_periodogram(stack)
        for row, power in zip(stack, p):
            np.testing.assert_array_equal(power, vanilla_periodogram(row))


class TestHarmonicTable:
    def test_table_is_read_only_and_the_cache_bounded(self):
        for n in range(100, 120):
            table = spectral._table(n)
            assert table.shape == (n, 2)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
        assert TABLES.nbytes <= TABLES.budget


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
            # every sample is active at beta = 0, so the first Newton step
            # lands on the least-squares fit and keeps its pattern
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
        # the objective never increases from beta = 0 through the last step.
        # Iterate m is the result of a run capped at m steps.
        rng = np.random.default_rng(5)
        phi = harmonic_regressors(80, 9)
        for trial in range(10):
            x = rng.normal(size=80)
            spikes = rng.choice(80, size=4, replace=False)
            x[spikes] += rng.choice([-8.0, 8.0], size=4)
            _, iterations, converged = huber_fit(x, [9])
            assert converged[0] and iterations[0] >= 2
            trace = [huber_objective(-x, 1.0)]
            for m in range(1, int(iterations[0]) + 1):
                beta, _, _ = capped_fit(x, [9], steps=m)
                trace.append(huber_objective(phi @ beta[0] - x, 1.0))
            assert np.all(np.diff(trace) <= 1e-12 * trace[0])
            assert trace[-1] < trace[0]

    def test_singular_active_gram_takes_the_irls_step(self):
        # every |x_t| exceeds zeta, so every sample is clipped at beta = 0,
        # the active Gram there is zero and the first step is the IRLS step;
        # the objective still never increases, and each bin ends at the
        # descent oracle
        rng = np.random.default_rng(15)
        x = 10.0 * rng.choice([-1.0, 1.0], size=64)
        assert np.all(np.abs(x) > 0.1)
        for k in (3, 5, 7):
            beta, iterations, converged = huber_fit(x, [k], 0.1)
            assert converged[0]
            trace = [huber_objective(-x, 0.1)]
            for m in range(1, int(iterations[0]) + 1):
                capped = capped_fit(x, [k], 0.1, steps=m)[0][0]
                trace.append(fit_objective(x, k, capped, 0.1))
            assert np.all(np.diff(trace) <= 1e-12 * trace[0])
            oracle = huber_gradient_descent(x, k, 0.1, iters=50000)
            assert trace[-1] <= (1 + 1e-12) * fit_objective(x, k, oracle, 0.1)
        # fit together, each bin takes its own IRLS step
        assert_band_matches_single_fits(x, [3, 5, 7], zeta=0.1)

    def test_irls_step_is_the_same_on_every_blas_kernel(self):
        # the IRLS Gram is formed from elementwise products and sums, so no
        # BLAS kernel changes its rounding; these bits also hold with numpy's
        # AVX-512 and AVX2 dispatch disabled (NPY_DISABLE_CPU_FEATURES)
        x = 10.0 * np.random.default_rng(15).choice([-1.0, 1.0], size=64)
        frozen = {
            3: ("0x1.ed625bbb96c9ap-1", "0x1.45c6d63d72f4fp+3"),
            5: ("0x1.47b921a8d0784p+3", "0x1.5a3972274a9c5p+0"),
            7: ("0x1.42d41f9ad7ae9p+2", "0x1.277f4f7836042p+3"),
        }
        for k, expected in frozen.items():
            beta = huber_fit(x, [k], 0.1)[0]
            assert tuple(float(b).hex() for b in beta[0]) == expected

    def test_unconverged_returns_flag_not_error(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=256)
        beta, iters, converged = capped_fit(x, [31], steps=1)
        assert iters[0] == 1 and not converged[0]
        assert np.all(np.isfinite(beta))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=128)
        assert_band_matches_single_fits(x, [3, 17, 40, 63])

    @pytest.mark.parametrize(
        "size", [1, CHUNK_BINS - 1, CHUNK_BINS, CHUNK_BINS + 1, 2 * CHUNK_BINS + 1]
    )
    def test_batch_agrees_with_single_across_chunk_edges(self, size, monkeypatch):
        # bins converge at different iterations, so chunks compact unevenly;
        # capped at 2 steps most bins stop at the cap. A budget of 1000
        # bin-sample pairs splits the wider bands into several chunks.
        # A finished bin's run leaves the chunk's arrays at the end of its
        # step: each step's held bins show a drop while other bins still run.
        chunk, residual, passed, steps = spectral._newton_huber_chunk, spectral._residual, [], []

        def recorded(fit, bins, stats, b_cur, out):
            passed.append(bins.size)
            steps.append([])
            chunk(fit, bins, stats, b_cur, out)

        def counted(xt, cs, b, width):
            steps[-1].append(b.shape[1])
            return residual(xt, cs, b, width)

        monkeypatch.setattr(spectral, "_newton_huber_chunk", recorded)
        monkeypatch.setattr(spectral, "_residual", counted)
        rng = np.random.default_rng(size)
        noise = rng.standard_t(2, size=CHUNK_SERIES)
        ks = np.arange(3, 3 + size)
        # At zeta = 0.3 the first iterates of the last bins, Newton steps
        # from beta = 0, lie past ||beta|| = zeta, so they read the padding;
        # the middle tone's highest samples are pulled down, so at least one
        # bin's iterates grow past the radius of its samples and it is fit
        # again. The padding is a fifth of the series.
        n, t = 5 * CHUNK_SERIES // 4, np.arange(CHUNK_SERIES)
        tone = np.cos(2 * np.pi * ks[size // 2] * t / n)
        guard = 0.3 * noise + np.cos(2 * np.pi * ks[-1] * t / n) + tone
        guard[np.argsort(-tone)[:50]] -= 10
        guard = np.concatenate([guard, np.zeros(n - CHUNK_SERIES)])
        # and padded t(2) noise, and a shorter padded series
        short = np.pad(zero_pad(noise[: n // 4]), (0, n - 2 * (n // 4)))
        for budget in (spectral._FIT_BUDGET, 1000):
            monkeypatch.setattr(spectral, "_FIT_BUDGET", budget)
            for x, band, zeta in (
                (zero_pad(noise), ks, DEFAULT_ZETA),
                (guard, ks, 0.3),
                (zero_pad(noise[: n // 2]), ks + size // 2, 0.3),
                (short, ks[: size // 2 + 1], 0.3),
            ):
                for max_steps in (50, 7, 2):
                    assert_band_matches_single_fits(x, band, max_steps=max_steps, zeta=zeta)
            for max_steps in (50, 7, 2):  # the guard's fit takes the refit path
                passed.clear()
                capped_fit(guard, ks, 0.3, steps=max_steps)
                assert sum(passed) > ks.size
        # with one bin per band, a chunk never holds a finished bin to drop
        assert any(np.any(np.diff(held) < 0) for held in steps) or size == 1

    def test_chunk_holds_a_wide_bin_alone_and_bins_of_no_samples(self, monkeypatch):
        # A unit tone at k = 5 under light noise: its first iterate has norm
        # near 1, above the slack of nearly every sample, so its bin alone
        # reads more samples than a budget of 1000 pairs and gets a chunk of
        # its own. A second series holds only +-0.2 and +-2.5, slack 0.8 and
        # 1.5 at zeta = 1, while its bins' norms stay far below: they read no
        # sample and are done at their first iterate.
        chunks = []
        chunk = spectral._newton_huber_chunk

        def recorded(fit, bins, *args):
            chunks.append(bins.tolist())
            return chunk(fit, bins, *args)

        monkeypatch.setattr(spectral, "_newton_huber_chunk", recorded)
        rng = np.random.default_rng(20)
        n = 1250
        tone = np.cos(2 * np.pi * 5 * np.arange(n) / n) + 0.05 * rng.normal(size=n)
        quiet = rng.choice([-2.5, -0.2, 0.2, 2.5], size=n)
        ks = np.arange(3, 11)
        beta, iterations, _ = huber_fit(quiet, ks)
        assert spectral._HEADROOM * np.hypot(*beta.T).max() < 0.8
        assert np.all(iterations == 1)
        for budget in (spectral._FIT_BUDGET, 1000):
            monkeypatch.setattr(spectral, "_FIT_BUDGET", budget)
            chunks.clear()
            huber_fit(tone, ks)
            assert ([2] in chunks) == (budget == 1000)
            for x in (tone, quiet):
                assert_band_matches_single_fits(x, ks)

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
        # past ||beta|| = zeta the padded samples may be clipped, so those
        # bins read them too; bins on both sides meet the descent oracle
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

    @pytest.mark.parametrize(
        "scenario, length, fitted",
        [
            pytest.param("mild", 1000, 360, id="mild"),
            pytest.param("severe", 1000, 992, id="severe"),
            pytest.param("severe", 10_000, 9923, id="severe-10000"),
        ],
    )
    def test_workload_bins_converge_in_few_steps(self, scenario, length, fitted, monkeypatch):
        # every fitted bin of the series' spectrum converges, in at most 2.5
        # Newton steps per bin on average over each octave (IRLS took 7 to 8;
        # a least-squares start took 3); at N = 10 000 the spectrum fits 9923
        # bins, and a halving test that lost the change of F to round-off
        # would leave some of them halving until _MAX_STEPS. At most 0.1% of
        # the bins leave the radius of their samples and are fit again.
        # `mild` (levels 6, 4, 5, 3) fits only the 360 bins its levels see.
        chunk, passed = spectral._newton_huber_chunk, []

        def recorded(fit, bins, *args):
            passed.append(bins.size)
            return chunk(fit, bins, *args)

        monkeypatch.setattr(spectral, "_newton_huber_chunk", recorded)
        series = generate(replace(SCENARIOS[scenario], length=length, seed=0))
        _, hybrid = _detect(series, DetectorConfig())
        assert hybrid.levels
        assert hybrid.converged.all()
        assert hybrid.bins.size == hybrid.iterations.size == fitted
        assert sum(passed) <= 1.001 * fitted
        # in each octave of padded bins (2N/2^(j+1), 2N/2^j]
        octave = np.log2(2 * length / hybrid.bins).astype(int)
        for j in np.unique(octave):
            assert hybrid.iterations[octave == j].mean() <= 2.5, j

    def test_first_step_settles_the_bins_its_gap_certifies(self, monkeypatch):
        # `severe` seed 0 fits its 992 bins in one chunk. Most first steps are
        # shorter than every residual's distance to the clip threshold, so
        # those bins are settled without a second pass over their runs: the
        # second pass holds a few straggler runs, under a tenth of the
        # first's pairs (one to two thousand of about 19 000).
        residual, held = spectral._residual, []

        def counted(xt, cs, b, width):
            held.append(xt.size)
            return residual(xt, cs, b, width)

        monkeypatch.setattr(spectral, "_residual", counted)
        _, hybrid = _detect(generate(replace(SCENARIOS["severe"], seed=0)), DetectorConfig())
        assert hybrid.converged.all()
        assert len(held) == 2 and 0 < held[1] < held[0] / 10, held

    @settings(max_examples=40, deadline=None)
    @given(
        half=st.integers(32, 1000),
        level=st.integers(1, 7),
        zeta=st.sampled_from([0.3, 1.0, 1e9]),
        kind=st.sampled_from(["normal", "heavy", "quantized"]),
        padded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(0, 2**16),
        tone=st.none() | st.tuples(st.floats(0, 1), st.floats(0.5, 5)),
    )
    def test_objective_at_most_the_admm_oracle(
        self, half, level, zeta, kind, padded, seed, window, tone
    ):
        # Every converged bin is a minimizer: its clipped-residual gradient
        # sum psi(r_t) phi_t is round-off, and no bin's objective exceeds the
        # ADMM oracle's. Quantized series hold only 0, +-q and +-2q for
        # q = min(zeta, 1): below zeta = 1 their samples sit exactly on the
        # clip threshold and their slacks tie with each other and with the
        # padding's. An in-band tone takes some bins past ||beta|| = zeta.
        # level's octave of the padded spectrum
        n = 2 * half
        band = (max(1, -(-n >> (level + 1))), min(half - 1, n >> level))
        if band[0] > band[1]:
            return
        rng = np.random.default_rng(seed)
        m = half if padded else n
        if kind == "quantized":
            values = min(zeta, 1.0) * rng.integers(-2, 3, m)
        else:
            values = rng.standard_t(2, m) if kind == "heavy" else rng.normal(size=m)
            values = (values - values.mean()) / values.std()
        if tone is not None:
            where, amplitude = tone
            k = band[0] + round(where * (band[1] - band[0]))
            values = values + amplitude * np.cos(2 * np.pi * k * np.arange(m) / n)
        x = np.concatenate([values, np.zeros(n - m)])
        ks = np.arange(band[0], band[1] + 1)
        if ks.size > 64:  # a window of wide bands keeps the oracle cheap
            start = window % (ks.size - 63)
            ks = ks[start : start + 64]
        beta, _, converged = huber_fit(x, ks, zeta)
        reference = admm_oracle(x, ks, zeta)
        scale = np.minimum(np.abs(x), zeta).sum()
        for i, k in enumerate(ks):
            phi = harmonic_regressors(n, k)
            if converged[i]:
                psi = np.clip(x - phi @ beta[i], -zeta, zeta)
                assert np.abs(phi.T @ psi).max() <= 1e-10 * scale
            ours = fit_objective(x, k, beta[i], zeta)
            theirs = fit_objective(x, k, reference[i], zeta)
            assert ours <= theirs + 1e-9 * abs(theirs)

    def test_objective_helper(self):
        r = np.array([0.5, -2.0])
        # 0.5*0.25 + (2 - 0.5) with zeta=1
        assert huber_objective(r, 1.0) == pytest.approx(0.125 + 1.5)


def power_gains(n_padded, levels, order=4):
    """|H_j|^2 of each level in ``levels`` at the n_padded-point frequencies."""
    gains = level_gains(daubechies_filters(order), n_padded, max(levels))[np.subtract(levels, 1)]
    return gains.real**2 + gains.imag**2


class TestHuberPeriodogram:
    def test_known_frequency(self):
        # period 144 over 4 cycles: the padded spectrum peaks at k = 8, inside
        # level 7's octave, and so does level 7's weighted row
        n_series, period = 576, 144
        t = np.arange(n_series)
        x = zero_pad(np.sin(2 * np.pi * t / period))
        hybrid = huber_periodogram(x, power_gains(2 * n_series, [7]), [7])
        assert np.argmax(hybrid.spectrum) == 8
        assert np.argmax(hybrid.power[0]) == 8

    def test_rows_are_the_spectrum_times_the_gains(self):
        # the spectrum is the all-bin fit's on the fitted bins, and plain elsewhere
        rng = np.random.default_rng(17)
        x = zero_pad(rng.standard_t(2, 256))
        levels = [2, 5, 3]
        gains = power_gains(512, levels)
        fit, plain = unit_spectrum(x).spectrum, unit_spectrum(x, robust=False).spectrum
        for robust in (True, False):
            hybrid = huber_periodogram(x, gains, levels, robust=robust)
            assert hybrid.levels == levels and hybrid.n_padded == 512
            np.testing.assert_array_equal(hybrid.power, gains * hybrid.spectrum)
            expected = plain.copy()
            expected[hybrid.bins] = fit[hybrid.bins]
            np.testing.assert_array_equal(hybrid.spectrum, expected)
            assert (hybrid.bins.size > 0) == robust

    def test_robust_bins(self):
        # with unit gain bins 1..N-1 are fit; DC is zero and the Nyquist bin plain
        rng = np.random.default_rng(8)
        x = zero_pad(rng.normal(size=256))
        hybrid, plain = unit_spectrum(x), unit_spectrum(x, robust=False)
        assert plain.iterations is None and plain.converged is None and plain.bins.size == 0
        np.testing.assert_array_equal(hybrid.bins, np.arange(1, 256))
        assert hybrid.iterations.size == hybrid.converged.size == 255
        power, plain = hybrid.spectrum, plain.spectrum
        assert power[0] == plain[0] == 0.0 and power[256] == plain[256]
        np.testing.assert_allclose(plain[1:], vanilla_periodogram(x)[1:257], rtol=1e-12)
        assert np.all(power[1:256] != plain[1:256])
        assert np.all(power >= 0)
        # with level 6's gain, the bins where it is under 1% of its peak keep
        # their plain power, and the others are the all-bin fit's
        gains = power_gains(512, [6])
        level = huber_periodogram(x, gains, [6])
        seen = gains[0, 1:256] >= spectral._GAIN_FLOOR * gains.max()
        np.testing.assert_array_equal(level.bins, np.flatnonzero(seen) + 1)
        assert 0 < level.bins.size < 255 / 2
        assert level.iterations.size == level.converged.size == level.bins.size
        np.testing.assert_array_equal(level.spectrum[level.bins], power[level.bins])
        unfit = np.setdiff1d(np.arange(257), level.bins)
        np.testing.assert_array_equal(level.spectrum[unfit], plain[unfit])

    @pytest.mark.parametrize("length", [64, 65, 1000, 1009, 2000, 10_007])
    def test_the_floor_keeps_every_bin_a_test_reads(self, length):
        # Fisher's test of level j reads the even padded bins 2k, k in the
        # octave [N/2^(j+1), N/2^j] below the Nyquist k = N/2; level j's own
        # gain there is above the floor times the largest gain of all levels
        # 1..j0, which bounds that of any examined subset, so those bins are
        # fit whenever level j is examined
        for order in range(1, MAX_FAMILY_ORDER + 1):
            pair = daubechies_filters(order)
            j0 = max_level(length, pair.L1)
            gains = level_gains(pair, 2 * length, j0)
            gains = gains.real**2 + gains.imag**2
            floor = spectral._GAIN_FLOOR * gains.max()
            for j in range(1, j0 + 1):
                lo, hi = max(1, -(-length >> (j + 1))), min(length >> j, (length - 1) // 2)
                read = 2 * np.arange(lo, hi + 1)
                assert np.all(gains[j - 1, read] >= floor), (order, j)

    def test_zero_input(self):
        hybrid = huber_periodogram(np.zeros(128), power_gains(128, [3]), [3])
        np.testing.assert_array_equal(hybrid.power, np.zeros((1, 65)))
        assert hybrid.iterations is None

    def test_huge_zeta_equals_vanilla(self):
        rng = np.random.default_rng(9)
        x = zero_pad(rng.normal(size=200))
        power = unit_spectrum(x, zeta=1e9).spectrum[1:200]
        vanilla = vanilla_periodogram(x)[1:200]
        assert np.max(np.abs(power - vanilla) / np.maximum(vanilla, 1e-300)) < 1e-5

    def test_gaussian_bins_shrink_moderately(self):
        # The Huber fit at zeta=1 on pure noise shrinks bin power vs the plain
        # spectrum; the Monte Carlo mean relative gap sits near 0.6
        rng = np.random.default_rng(10)
        rels = []
        for _ in range(10):
            x = zero_pad(rng.normal(size=256))
            power = unit_spectrum(x).spectrum[1:256]
            vanilla = vanilla_periodogram(x)[1:256]
            rels.append(np.abs(power - vanilla) / vanilla)
        mean_rel = float(np.concatenate(rels).mean())
        assert 0.2 < mean_rel < 0.8

    def test_peak_power_shift_invariant_for_pure_tone(self):
        # power (not phase) is reported: the tone bin k = 2N/T survives any
        # circular shift; leakage sidelobes are phase-dependent by nature
        n_series, period = 200, 20
        t = np.arange(n_series)
        w = np.sin(2 * np.pi * t / period)
        base = unit_spectrum(zero_pad(w)).spectrum
        k_tone = 2 * n_series // period
        assert np.argmax(base) == k_tone
        for shift in (1, 7, 50):
            rolled = unit_spectrum(zero_pad(np.roll(w, shift))).spectrum
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

    def test_memory_is_linear_in_length(self):
        # the spectrum has N - 1 fit bins: solving all of them at once would
        # need O(N^2) memory, the chunked solve O(N)
        rng = np.random.default_rng(13)
        peaks = {}
        for n_series in (1000, 2000):
            x = zero_pad(rng.normal(size=n_series))
            tracemalloc.start()
            try:
                unit_spectrum(x)
                peaks[n_series] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] < 16 * 2**20
        assert peaks[2000] < 2.5 * peaks[1000]


class TestFisher:
    @pytest.mark.parametrize(
        "level, bins", [(1, 250), (2, 126), (3, 63), (4, 31), (5, 16), (6, 8), (7, 4), (8, 2)]
    )
    def test_octave_bins(self, level, bins):
        # N = 1000: the even bins 2k for k in [N/2^(j+1), N/2^j], k < N/2
        for j in (level, np.int64(level), np.uint64(level)):
            assert fisher_test(np.ones(1001), j, alpha=0.5).g == 1.0 / bins

    @pytest.mark.parametrize("level", [9, 64, np.int64(100), np.uint64(100), 10**6])
    def test_an_octave_past_the_spectrum_is_degenerate(self, level):
        outcome = fisher_test(np.ones(1001), level, alpha=0.5)
        assert outcome.p_value == 1.0 and not outcome.significant

    def test_all_mass_in_one_bin(self):
        power = np.zeros(33)  # N = 32: level 2's octave is k = 4..8, bins 8..16
        power[10] = 2.0
        outcome = fisher_test(power, 2, alpha=1e-10)
        assert outcome.g == 1.0 and outcome.p_value == 0.0 and outcome.significant

    def test_odd_bins_and_bins_outside_the_octave_are_not_tested(self):
        power = np.full(33, 1e6)
        power[8:17:2] = [1.0, 2.0, 3.0, 2.0, 2.0]
        outcome = fisher_test(power, 2, alpha=1e-10)
        assert outcome.g == pytest.approx(0.3)
        assert outcome.p_value == pytest.approx(fisher_pvalue(0.3, 5), rel=1e-15)

    @pytest.mark.parametrize("n", [64, 70, 1000, 1001])
    def test_the_nyquist_bin_is_not_tested(self, n):
        power = np.ones(n + 1)
        power[-1] = 1e6  # bin N: the unpadded Nyquist bin when N is even
        assert fisher_test(power, 1, alpha=0.5).g < 0.1

    def test_degenerate_octaves(self):
        # zero power, and an octave of one bin: N = 70 at level 5 holds
        # k = 2 alone
        for power, level in ((np.zeros(65), 2), (np.ones(71), 5)):
            outcome = fisher_test(power, level, alpha=1e-10)
            assert outcome.g == 0.0 and outcome.p_value == 1.0 and not outcome.significant

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

    @pytest.mark.parametrize("m", [2, 5, 34, 125, 250])
    @pytest.mark.parametrize("gm", [1.0, 1.3, 2.0, 3.0, 6.0, 12.0])
    def test_pvalue_equals_the_exact_sum(self, m, gm):
        """Within 1e-6 of the series summed in exact rationals, at the float g given."""
        g = min(1.0, gm / m)
        exact, k, q = Fraction(0), 1, Fraction(g)
        while k <= m and k * q < 1:
            exact += (-1) ** (k - 1) * math.comb(m, k) * (1 - k * q) ** (m - 1)
            k += 1
        assert abs(fisher_pvalue(g, m) - float(exact)) <= 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 2000), st.floats(1.0, 30.0), st.floats(0.0, 0.5))
    def test_pvalue_stays_a_probability_and_falls_with_g(self, m, gm, step):
        """p lies in [0, 1] and does not rise by more than 1e-6 as g grows,
        where the alternating sum cancels as well as where it does not."""
        g = min(1.0, gm / m)
        g2 = min(1.0, (gm + step) / m)
        p, p2 = fisher_pvalue(g, m), fisher_pvalue(g2, m)
        assert 0.0 <= p <= 1.0 and 0.0 <= p2 <= 1.0
        assert p2 <= p + 1e-6

    def test_flat_octave_is_not_significant(self):
        # the sum's terms reach 1e6 and more here and cancel past double precision
        for g, m in ((0.0052, 250), (0.008, 125), (0.0065, 200), (0.002, 1000)):
            assert fisher_pvalue(g, m) == 1.0
        assert fisher_pvalue(0.0035, 1000) == pytest.approx(1.0, abs=1e-6)

    def test_the_test_reads_the_pvalue_of_its_octave(self):
        # fisher_test sums the terms of fisher_pvalue at its octave's size
        rng = np.random.default_rng(5)
        for n in (64, 1000, 1001):
            power = rng.exponential(size=n + 1)
            power[2 * (n // 12)] += 40.0
            for level in range(1, 7):
                lo, hi = spectral._octave(n, level)
                if hi - lo + 1 < 2:
                    continue
                outcome = fisher_test(power, level, alpha=0.5)
                assert outcome.p_value == fisher_pvalue(outcome.g, hi - lo + 1)

    def test_pvalue_bits_are_frozen(self):
        # sha256 over float.hex(p) of 300 000 seeded (g, m) pairs, m <= 3000 and
        # g log-uniform on (1/m, 1], taken in order of m, the order the digest
        # was recorded in; each term's log C(m, k) is
        # lgamma(m + 1) - lgamma(k + 1) - lgamma(m - k + 1), in that order. g
        # comes from `math`, not from numpy's exp and log, whose AVX-512
        # kernels round 14 045 of these g differently from their other paths.
        rng = np.random.default_rng(20261022)
        ms = rng.integers(2, 3001, size=300_000)
        rs = rng.random(300_000)
        order = np.argsort(ms, kind="stable")
        digest = hashlib.sha256()
        for m, r in zip(ms[order].tolist(), rs[order].tolist()):
            digest.update(float.hex(fisher_pvalue(math.exp(math.log(m) * -r), m)).encode())
        assert digest.hexdigest() == (
            "0d4249d6fdc0d5a020dc27ded3adbda441e8f45c2b33070d2b93e593bacaf323"
        )

    def test_pvalue_domain_errors(self):
        with pytest.raises(InvalidInputError):
            fisher_pvalue(0.0, 10)
        with pytest.raises(InvalidInputError):
            fisher_pvalue(1.5, 10)
        with pytest.raises(InvalidInputError):
            fisher_pvalue(0.5, 1)

    def test_spectrum_needs_two_bins(self):
        with pytest.raises(InvalidInputError):
            fisher_test(np.ones(1), 1, alpha=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.1, math.nan, True, np.True_, "0.05", None])
    def test_alpha_must_lie_in_the_open_unit_interval(self, alpha):
        power = np.ones(8)
        with pytest.raises(InvalidInputError):
            fisher_test(power, 1, alpha)

    @pytest.mark.parametrize("level", [0, -1, 1.5, True, "1", None])
    def test_level_must_be_a_positive_integer(self, level):
        with pytest.raises(InvalidInputError):
            fisher_test(np.ones(8), level, 0.5)


class TestConfigValidation:
    def test_huber_fit_settings(self):
        x = np.ones(32)
        with pytest.raises(InvalidInputError):
            huber_fit(x, [3], 0.0)
        with pytest.raises(InvalidInputError):
            huber_fit(x, [3], math.nan)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_series_rejected(self, value):
        x = zero_pad(np.random.default_rng(19).normal(size=64))
        x[5] = value
        with pytest.raises(InvalidInputError):
            huber_fit(x, [3])
        for robust in (True, False):
            with pytest.raises(InvalidInputError):
                unit_spectrum(x, robust)

    @pytest.mark.parametrize("zeta", [True, np.True_, "1", None, 1j])
    def test_non_real_zeta_rejected(self, zeta):
        x = zero_pad(np.random.default_rng(16).normal(size=64))
        with pytest.raises(InvalidInputError):
            huber_fit(x, [3], zeta)
        for robust in (True, False):
            with pytest.raises(InvalidInputError):
                unit_spectrum(x, robust, zeta)

    def test_periodogram_takes_one_padded_series_and_one_gain_row_per_level(self):
        x = zero_pad(np.random.default_rng(18).normal(size=64))
        gains = power_gains(128, [3, 1])
        for series, rows, levels in (
            (x, gains, [3]), (x, gains[:1], [3, 1]), (x, gains[:, :-1], [3, 1]),
            (x, gains, [3, 0]), (x, gains, [3, True]), (x, gains, [3, np.True_]),
            (x, gains, [3, 1.5]), (x, gains, [3, "1"]), (x, gains[0], [3]),
            (np.stack([x, x]), gains, [3, 1]), (x[:-1], gains, [3, 1]), (x[:2], gains[:, :2], [3, 1]),
        ):
            with pytest.raises(InvalidInputError):
                huber_periodogram(series, rows, levels)
        # no level: the plain spectrum alone, with no bin fit
        hybrid = huber_periodogram(x, gains[:0], [])
        assert hybrid.power.shape == (0, 65) and hybrid.spectrum.shape == (65,)
        assert hybrid.bins.size == 0 and hybrid.iterations is None and hybrid.converged is None
        np.testing.assert_array_equal(hybrid.spectrum, unit_spectrum(x, robust=False).spectrum)
        # no bin to fit
        beta, iterations, converged = huber_fit(x, [])
        assert beta.shape == (0, 2) and iterations.shape == converged.shape == (0,)
