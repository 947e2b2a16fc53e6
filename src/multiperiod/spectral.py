"""Periodogram estimation and spectral significance testing.

Per wavelet level the power spectrum is hybrid: inside the level's nominal
passband each bin's harmonic amplitude pair is fit by minimizing a Huber
loss (solved per frequency by iteratively reweighted least squares, which
reads only the unpadded samples while the fit stays small enough that the
zero padding is unweighted), while bins outside the band fall back to the
plain FFT periodogram. Fisher's g-test on the hybrid spectrum
yields the dominant-frequency candidate and its tail p-value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .series import InvalidInputError


@dataclass(frozen=True)
class AdmmConfig:
    """Solver settings for the per-frequency robust harmonic fit.

    ``zeta`` is the Huber threshold on standardized residuals and
    ``max_iter`` caps the IRLS steps per frequency.
    """

    zeta: float = 1.0
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not self.zeta > 0:
            raise InvalidInputError("zeta must be positive")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise InvalidInputError("max_iter must be an integer of at least 1")


@dataclass
class HybridPeriodogram:
    """Half-spectrum power with the band of robustly estimated bins.

    ``power[k]`` covers k = 0..N-1 of the padded length ``n_padded`` = 2N
    spectrum (DC forced to 0, Nyquist excluded). The Huber fit was used
    exactly on the bins ``band[0]..band[1]``; ``band`` is None when no bin
    was fit robustly. ``iterations`` and ``converged`` hold per-band solver
    diagnostics.
    """

    power: np.ndarray
    band: tuple[int, int] | None
    n_padded: int
    iterations: np.ndarray | None = None
    converged: np.ndarray | None = None


@dataclass(frozen=True)
class FisherOutcome:
    g: float
    k_star: int
    p_value: float
    significant: bool


def zero_pad(w: np.ndarray) -> np.ndarray:
    """Standardize (population moments) and append N zeros, doubling length.

    A zero-spread input yields an all-zero padded vector, the degenerate
    case every downstream consumer checks for.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise InvalidInputError("expected a nonempty 1-d sequence")
    n = w.size
    out = np.zeros(2 * n)
    std = w.std()
    if std > 0:
        out[:n] = (w - w.mean()) / std
    return out


def vanilla_periodogram(x: np.ndarray) -> np.ndarray:
    """P_k = |DFT(x)_k|^2 / n over all n bins; sum_k P_k == sum_t x_t^2."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise InvalidInputError("periodogram requires at least 2 samples")
    spec = np.fft.fft(x)
    return (spec.real**2 + spec.imag**2) / x.size


def huber_objective(residual: np.ndarray, zeta: float) -> float:
    """sum of 0.5*r^2 for |r| <= zeta, else zeta*|r| - 0.5*zeta^2."""
    a = np.abs(residual)
    quad = a <= zeta
    return float(
        0.5 * np.sum(residual[quad] ** 2) + np.sum(zeta * a[~quad] - 0.5 * zeta**2)
    )


# Bins solved together. The work arrays hold eight float64 rows of the real
# samples per bin, 2 MiB for a chunk at 1000 real samples, so a level's
# memory is O(chunk * n) whatever its band size.
_FIT_CHUNK = 32

# A bin's IRLS has converged once ||beta_new - beta|| <= _IRLS_RTOL * ||beta_new||.
_IRLS_RTOL = 1e-6


def admm_huber_fit(x: np.ndarray, ks, cfg: AdmmConfig | None = None):
    """Solve the Huber harmonic regression of one series at each frequency.

    The series ``x`` (n,) is fit at every frequency index in ``ks`` (B,)
    with regressor columns phi_t = (cos(2*pi*k*t/n), sin(2*pi*k*t/n)): beta
    minimizes sum_t huber(x_t - phi_t beta) at threshold zeta. The solver
    is iteratively reweighted least squares (Holland & Welsch 1977). It
    starts from the least-squares beta; each step sets
    w_t = min(1, zeta/|r_t|) at the current residual r and solves the
    weighted 2x2 normal equations. Each step minimizes a quadratic that
    majorizes the Huber loss, so the objective never increases. A bin has
    converged once ||beta_new - beta|| <= 1e-6 * ||beta_new||; at max_iter
    the last iterate is returned, flagged unconverged.

    Only the samples up to the last nonzero one are read on each step. On
    the zeros after it (the padding) the residual is -phi_t beta, and
    |phi_t beta| <= ||beta|| because cos^2 + sin^2 = 1, so while
    ||beta|| <= zeta every padded sample has w = 1 and adds the fixed Gram
    block of the padding. A bin with ||beta|| > zeta sums its padding
    explicitly for that step.

    Frequencies are independent, so they are solved in chunks of
    ``_FIT_CHUNK`` that reuse one set of work arrays: memory is O(chunk * n)
    whatever B is, and each frequency's result is bit-identical to fitting
    it alone.

    Returns (beta (B, 2), iterations (B,), converged (B,)).
    """
    if cfg is None:
        cfg = AdmmConfig()
    x = np.asarray(x, dtype=np.float64)
    ks = np.atleast_1d(np.asarray(ks))
    if x.ndim != 1:
        raise InvalidInputError("expected a 1-d series")
    n = x.size
    if np.any(ks < 1) or np.any(2 * ks >= n):
        raise InvalidInputError("frequency indices must satisfy 1 <= k < n/2")

    nonzero = np.flatnonzero(x)
    m = int(nonzero[-1]) + 1 if nonzero.size else 0
    # cos/sin of 2*pi*j/n, read at j = k*t mod n
    angle = (2.0 * np.pi / n) * np.arange(n)
    table = (np.cos(angle), np.sin(angle))
    nbins = ks.size
    beta = np.zeros((nbins, 2))
    iterations = np.full(nbins, cfg.max_iter, dtype=np.int64)
    converged = np.zeros(nbins, dtype=bool)
    work = np.empty((min(nbins, _FIT_CHUNK), 7, m))
    weights = np.empty((min(nbins, _FIT_CHUNK), 1, m))
    for lo in range(0, nbins, _FIT_CHUNK):
        hi = min(lo + _FIT_CHUNK, nbins)
        _irls_huber_chunk(
            x[:m], n, ks[lo:hi], table, cfg, work, weights,
            beta[lo:hi], iterations[lo:hi], converged[lo:hi],
        )
    return beta, iterations, converged


def _harmonics(ks, t, n, table, out):
    """Write cos and sin of 2*pi*k*t/n, read from ``table``, to ``out[0]``, ``out[1]``."""
    j = np.multiply(np.asarray(ks, dtype=np.int64)[:, None], t)
    np.remainder(j, n, out=j)
    np.take(table[0], j, out=out[0])
    np.take(table[1], j, out=out[1])
    return out


def _irls_huber_chunk(x, n, ks, table, cfg, work, weights, beta, iterations, converged):
    """Run the IRLS of ``admm_huber_fit`` for one chunk of frequencies.

    ``x`` holds the samples up to the last nonzero one of the length-n
    series. ``work`` rows per bin: cos, sin, cos*cos, cos*sin, sin*sin,
    cos*x and sin*x; ``weights`` holds each bin's weights. Results go to
    the ``beta``, ``iterations`` and ``converged`` views of the chunk's
    bins. A converged bin leaves the work arrays: a live bin from the end
    moves into its slot.
    """
    b, m = ks.size, x.size
    zeta = cfg.zeta
    q = work[:b]
    _harmonics(ks, np.arange(m), n, table, q[:, 0:2].transpose(1, 0, 2))
    np.multiply(q[:, 0], q[:, 0], out=q[:, 2])
    np.multiply(q[:, 0], q[:, 1], out=q[:, 3])
    np.multiply(q[:, 1], q[:, 1], out=q[:, 4])
    np.multiply(q[:, 0:2], x, out=q[:, 5:7])
    # Unit-weight sums (cc, cs, ss, cx, sx) over the real samples give the
    # least-squares start and, as the Gram matrix of all n samples is
    # (n/2) I, the Gram block (cc, cs, ss) of the padding.
    sums = q[:, 2:7].sum(axis=2)
    padding = np.zeros((b, 3)) if m == n else (0.5 * n, 0.0, 0.5 * n) - sums[:, :3]
    b_cur = sums[:, 3:] / (0.5 * n)
    live = np.arange(b)

    for it in range(1, cfg.max_iter + 1):
        w = weights[: live.size]
        np.matmul(b_cur[:, None, :], q[:, 0:2], out=w)
        np.subtract(x, w, out=w)
        np.abs(w, out=w)
        np.maximum(w, zeta, out=w)
        np.divide(zeta, w, out=w)
        sums = np.matmul(q[:, 2:7], w.transpose(0, 2, 1))[:, :, 0]
        gram = sums[:, :3] + padding
        if m < n:  # past the guard, padded samples may be downweighted
            for i in np.flatnonzero(np.hypot(b_cur[:, 0], b_cur[:, 1]) > zeta):
                gram[i] = sums[i, :3] + _padding_gram(ks[live[i]], m, n, table, b_cur[i], zeta)
        cc, cs, ss = gram.T
        det = cc * ss - cs * cs
        b_new = np.column_stack(
            [ss * sums[:, 3] - cs * sums[:, 4], cc * sums[:, 4] - cs * sums[:, 3]]
        ) / det[:, None]
        beta[live] = b_new
        step = np.hypot(b_new[:, 0] - b_cur[:, 0], b_new[:, 1] - b_cur[:, 1])
        done = step <= _IRLS_RTOL * np.hypot(b_new[:, 0], b_new[:, 1])
        b_cur = b_new
        if np.any(done):
            iterations[live[done]] = it
            converged[live[done]] = True
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                break
            slots, movers = np.flatnonzero(done[: keep.size]), keep[keep >= keep.size]
            for a in (q, live, b_cur, padding):
                a[slots] = a[movers]
            q, live, b_cur, padding = (a[: keep.size] for a in (q, live, b_cur, padding))


def _padding_gram(k, m, n, table, b_cur, zeta):
    """Weighted Gram block (cc, cs, ss) of samples m..n-1, where x is zero."""
    c, s = _harmonics([k], np.arange(m, n), n, table, np.empty((2, 1, n - m)))[:, 0]
    w = zeta / np.maximum(np.abs(b_cur[0] * c + b_cur[1] * s), zeta)
    return np.array([w @ (c * c), w @ (c * s), w @ (s * s)])


def robust_band(n_padded: int, level: int) -> tuple[int, int] | None:
    """Frequency indices [n/2^(j+1), n/2^j] clipped to the half spectrum."""
    k_lo = max(1, -(-n_padded // 2 ** (level + 1)))
    k_hi = min(n_padded // 2 - 1, n_padded // 2**level)
    if k_lo > k_hi:
        return None
    return k_lo, k_hi


def huber_periodogram(
    x: np.ndarray,
    level: int,
    cfg: AdmmConfig | None = None,
    robust: bool = True,
) -> HybridPeriodogram:
    """Hybrid half-spectrum of a padded series for one wavelet level.

    Bins inside the level's nominal band get the robust power
    (n/4)*||beta||^2 from the Huber fit; all other bins reuse the plain
    periodogram. DC is forced to zero. ``robust=False`` (or a degenerate
    all-zero input) skips the robust fits entirely.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 4 or n % 2:
        raise InvalidInputError("expected an even-length padded series of >= 4 samples")
    if level < 1:
        raise InvalidInputError("level must be >= 1")

    power = vanilla_periodogram(x)[: n // 2].copy()
    power[0] = 0.0
    band = robust_band(n, level) if robust and np.any(x) else None
    iterations = converged = None
    if band is not None:
        ks = np.arange(band[0], band[1] + 1)
        beta, iterations, converged = admm_huber_fit(x, ks, cfg)
        power[ks] = (n / 4.0) * np.einsum("ij,ij->i", beta, beta)
    return HybridPeriodogram(power, band, n, iterations, converged)


def fisher_g(power: np.ndarray, test_range: np.ndarray) -> tuple[float, int] | None:
    """Largest ordinate over the tested bins relative to their total.

    Returns (g, k_star) with ties broken toward the smallest index, or None
    when the tested power mass is zero (degenerate, never significant).
    """
    idx = np.sort(np.asarray(test_range, dtype=np.int64))
    if idx.size < 2:
        raise InvalidInputError("Fisher's test needs at least 2 frequency bins")
    vals = np.asarray(power, dtype=np.float64)[idx]
    total = vals.sum()
    if total <= 0:
        return None
    pos = int(np.argmax(vals))
    return float(vals[pos] / total), int(idx[pos])


def _signed_log_add(log_a: float, sign_a: float, log_b: float, sign_b: float):
    """Accumulate sign_a*exp(log_a) + sign_b*exp(log_b) in log space."""
    if log_a == -math.inf:
        return log_b, sign_b
    if log_b > log_a:
        log_a, log_b = log_b, log_a
        sign_a, sign_b = sign_b, sign_a
    ratio = math.exp(log_b - log_a)
    if sign_a == sign_b:
        return log_a + math.log1p(ratio), sign_a
    if ratio >= 1.0:
        return -math.inf, 1.0
    return log_a + math.log1p(-ratio), sign_a


def fisher_pvalue(g0: float, m: int) -> float:
    """Tail probability of the g-statistic under the white-noise null.

    Alternating series sum_{k=1}^{floor(1/g0)} (-1)^(k-1) C(m,k)(1-k*g0)^(m-1)
    over m tested bins, accumulated in signed log-magnitude form and
    truncated once a term falls below 1e-16 of the running sum. The result
    is clamped to [0, 1]; it tends to 0 as g0 -> 1 and to 1 as g0 -> 1/m.
    """
    if not (0.0 < g0 <= 1.0):
        raise InvalidInputError("g must lie in (0, 1]")
    if m < 2:
        raise InvalidInputError("at least 2 tested bins are required")
    k_max = min(int(math.floor(1.0 / g0)), m)
    log_sum = -math.inf
    sign_sum = 1.0
    log_cm = math.lgamma(m + 1)
    for k in range(1, k_max + 1):
        arg = 1.0 - k * g0
        if arg <= 0.0:
            break
        log_term = (
            log_cm
            - math.lgamma(k + 1)
            - math.lgamma(m - k + 1)
            + (m - 1) * math.log(arg)
        )
        sign_term = 1.0 if k % 2 == 1 else -1.0
        if log_sum != -math.inf and log_term < log_sum + math.log(1e-16):
            break
        log_sum, sign_sum = _signed_log_add(log_sum, sign_sum, log_term, sign_term)
    if log_sum == -math.inf or sign_sum < 0:
        return 0.0
    if log_sum >= 0.0:
        return 1.0
    return min(1.0, max(0.0, math.exp(log_sum)))


def fisher_test(
    power: np.ndarray, test_range: np.ndarray, alpha: float
) -> FisherOutcome:
    """Run the g-test over the given bins at significance level alpha."""
    picked = fisher_g(power, test_range)
    if picked is None:
        return FisherOutcome(g=0.0, k_star=-1, p_value=1.0, significant=False)
    g, k_star = picked
    p = fisher_pvalue(g, len(test_range))
    return FisherOutcome(g=g, k_star=k_star, p_value=p, significant=p < alpha)
