"""Periodogram estimation and spectral significance testing.

Per wavelet level the power spectrum is hybrid: inside the level's nominal
passband each bin's harmonic amplitude pair is fit by minimizing a Huber
loss (solved per frequency by ADMM with an exact 2x2 normal-equations
step and a soft-threshold proximal step), while bins outside the band fall
back to the plain FFT periodogram. Fisher's g-test on the hybrid spectrum
yields the dominant-frequency candidate and its tail p-value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .series import InternalError, InvalidInputError


@dataclass(frozen=True)
class AdmmConfig:
    """Solver settings for the per-frequency robust harmonic fit."""

    zeta: float = 1.0
    rho: float = 1.0
    eps_abs: float = 1e-4
    eps_rel: float = 1e-4
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not all(v > 0 for v in (self.zeta, self.rho, self.eps_abs, self.eps_rel)):
            raise InvalidInputError("zeta, rho and tolerances must be positive")
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


# Bins solved together. Each chunk holds five (chunk, n) float64 work arrays,
# 2.5 MiB at n = 2000. On the 500-bin level-1 band at n = 2000, 32 bins ran
# fastest on an x86-64 core with 2 MiB of L2; 8 and 128 bins were about 30%
# slower, from per-call overhead and from cache misses respectively.
_ADMM_CHUNK = 32


def admm_huber_fit(x: np.ndarray, ks, cfg: AdmmConfig | None = None):
    """Solve the Huber harmonic regression of one series at each frequency.

    The series ``x`` (n,) is fit at every frequency index in ``ks`` (B,)
    with regressor columns cos(2*pi*k*t/n), sin(2*pi*k*t/n). Updates per
    iteration, with u the scaled dual and S the soft threshold at
    zeta*(1+rho)/rho:

        beta <- (phi'phi)^-1 phi' (z + x - u)
        z    <- rho/(1+rho)*(phi beta + u - x) + 1/(1+rho)*S(phi beta + u - x)
        u    <- u + phi beta - z - x

    Terminates when the primal residual ||phi beta - z - x|| and the dual
    residual rho*||phi'(z - z_prev)|| drop below their mixed
    absolute/relative tolerances, or at max_iter (last iterate returned,
    flagged unconverged). The 2x2 Gram matrix is formed and inverted
    exactly per frequency.

    Frequencies are independent, so they are solved in chunks of
    ``_ADMM_CHUNK`` that reuse one set of (chunk, n) work arrays: memory is
    O(chunk * n) whatever B is, and each frequency's result is
    bit-identical to fitting it alone.

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

    nbins = ks.size
    beta = np.zeros((nbins, 2))
    iterations = np.full(nbins, cfg.max_iter, dtype=np.int64)
    converged = np.zeros(nbins, dtype=bool)
    work = np.empty((5, min(nbins, _ADMM_CHUNK), n))
    for lo in range(0, nbins, _ADMM_CHUNK):
        hi = min(lo + _ADMM_CHUNK, nbins)
        _admm_huber_chunk(
            x, ks[lo:hi], cfg, work, beta[lo:hi], iterations[lo:hi], converged[lo:hi]
        )
    return beta, iterations, converged


def _admm_huber_chunk(x, ks, cfg, work, beta, iterations, converged):
    """Run the ADMM of ``admm_huber_fit`` for one chunk of frequencies.

    ``work`` holds the (chunk, n) arrays; results go to the ``beta``,
    ``iterations`` and ``converged`` views of the chunk's bins. Converged
    bins are compacted out of the work arrays in place.
    """
    m, n = ks.size, x.size
    cos_l, sin_l, z, u, v = (w[:m] for w in work)
    t = np.arange(n, dtype=np.float64)
    np.multiply(((2.0 * np.pi / n) * ks.astype(np.float64))[:, None], t, out=cos_l)
    np.sin(cos_l, out=sin_l)
    np.cos(cos_l, out=cos_l)

    cc = np.einsum("ij,ij->i", cos_l, cos_l)
    cs = np.einsum("ij,ij->i", cos_l, sin_l)
    ss = np.einsum("ij,ij->i", sin_l, sin_l)
    dt = cc * ss - cs * cs
    if np.any(dt <= 0):
        raise InternalError("degenerate harmonic regressor")

    rho = cfg.rho
    thr = cfg.zeta * (1.0 + rho) / rho
    eps_pri_abs = math.sqrt(n) * cfg.eps_abs
    eps_dual_abs = math.sqrt(2.0) * cfg.eps_abs
    # summed as np.linalg.norm sums; x @ x rounds differently and can flip
    # a stopping test that sits at its threshold
    xn = math.sqrt(np.add.reduce(x * x))
    u.fill(0.0)

    live = np.arange(m)
    # Running 2-vectors phi'x, phi'z, phi'u: with phi'(phi beta) available
    # exactly from the Gram entries, every stopping-rule quantity except
    # ||du||, ||z|| and phi'z_new reduces to O(1) per bin.
    sx_c = np.einsum("ij,j->i", cos_l, x)
    sx_s = np.einsum("ij,j->i", sin_l, x)
    sz_c = np.zeros(m)
    sz_s = np.zeros(m)
    su_c = np.zeros(m)
    su_s = np.zeros(m)

    for it in range(1, cfg.max_iter + 1):
        tc = sz_c + sx_c - su_c
        ts = sz_s + sx_s - su_s
        b0 = (ss * tc - cs * ts) / dt
        b1 = (cc * ts - cs * tc) / dt
        beta[live, 0] = b0
        beta[live, 1] = b1
        # z is not read again before the prox overwrites it, so it holds sin*b1
        np.multiply(cos_l, b0[:, None], out=v)
        np.multiply(sin_l, b1[:, None], out=z)
        v += z

        # phi'(phi beta) from the Gram matrix, before v picks up u - x
        sfit_c = cc * b0 + cs * b1
        sfit_s = cs * b0 + ss * b1
        v += u
        v -= x
        # Huber prox: shrink inside the dead zone, shift outside;
        # rho/(1+rho)*v + S_thr(v)/(1+rho) == v - clip(v)/(1+rho).
        np.clip(v, -thr, thr, out=z)
        z /= -(1.0 + rho)
        z += v
        v -= z  # the new u
        np.subtract(v, u, out=u)  # du, the primal residual phi*beta - z - x
        u, v = v, u

        sz_c_new = np.einsum("ij,ij->i", cos_l, z)
        sz_s_new = np.einsum("ij,ij->i", sin_l, z)
        sv_c = sfit_c + su_c - sx_c
        sv_s = sfit_s + su_s - sx_s
        dual = rho * np.hypot(sz_c_new - sz_c, sz_s_new - sz_s)
        su_c = sv_c - sz_c_new
        su_s = sv_s - sz_s_new
        sz_c, sz_s = sz_c_new, sz_s_new

        pri = np.sqrt(np.einsum("ij,ij->i", v, v))
        fit_norm = np.sqrt(
            np.maximum(cc * b0 * b0 + 2.0 * cs * b0 * b1 + ss * b1 * b1, 0.0)
        )
        z_norm = np.sqrt(np.einsum("ij,ij->i", z, z))
        eps_pri = eps_pri_abs + cfg.eps_rel * np.maximum(
            fit_norm, np.maximum(z_norm, xn)
        )
        eps_dual = eps_dual_abs + cfg.eps_rel * rho * np.hypot(su_c, su_s)

        done = (pri <= eps_pri) & (dual <= eps_dual)
        if np.any(done):
            iterations[live[done]] = it
            converged[live[done]] = True
            keep = ~done
            live = live[keep]
            m = live.size
            if m == 0:
                break
            for w in (cos_l, sin_l, u):
                w[:m] = w[keep]
            cos_l, sin_l, z, u, v = (w[:m] for w in (cos_l, sin_l, z, u, v))
            cc, cs, ss, dt = cc[keep], cs[keep], ss[keep], dt[keep]
            sx_c, sx_s = sx_c[keep], sx_s[keep]
            sz_c, sz_s = sz_c[keep], sz_s[keep]
            su_c, su_s = su_c[keep], su_s[keep]


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
    (n/4)*||beta||^2 from the ADMM fit; all other bins reuse the plain
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
