"""Periodogram estimation and spectral significance testing.

Per wavelet level the power spectrum is hybrid: inside the level's nominal
passband each bin's harmonic amplitude pair is fit by minimizing a Huber
loss (safeguarded Newton steps on the loss's active set, over the unpadded
samples while no padded sample can be clipped, else over all of them),
while bins outside the band fall back to the plain FFT periodogram.
Fisher's g-test on the hybrid spectrum yields the dominant-frequency
candidate and its tail p-value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .series import InvalidInputError


# Huber threshold on the standardized residuals of the harmonic fit.
DEFAULT_ZETA = 1.0


@dataclass
class HybridPeriodogram:
    """Half-spectrum power with the band of robustly estimated bins.

    ``power[k]`` covers k = 0..N-1 of the padded length ``n_padded`` = 2N
    spectrum (DC forced to 0); ``nyquist`` is the plain ordinate of bin N.
    The Huber fit was used exactly on the bins ``band[0]..band[1]``;
    ``band`` is None when no bin was fit robustly. ``iterations`` and
    ``converged`` hold per-band solver diagnostics.
    """

    power: np.ndarray
    band: tuple[int, int] | None
    n_padded: int
    nyquist: float
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


# Real samples solved together: a chunk holds _FIT_CHUNK // m bins of m real
# samples each (at least one bin). Its work arrays, seven float64 rows per bin
# (five kept, two of scratch), stay near 2 MB whatever the series length, so
# a level's memory is O(n) whatever its band size and a chunk stays in cache:
# 32 bins at N = 1000, 3 at N = 10 000.
_FIT_CHUNK = 32_000

# A Newton step no longer than _ROUNDOFF * max|x| is round-off: the bin is at
# its minimizer.
_ROUNDOFF = 1e-12

# An active Gram block (cc, cs, ss) with cc*ss - cs^2 <= _SINGULAR * (cc + ss)^2
# is treated as singular.
_SINGULAR = 1e-12


def huber_fit(x: np.ndarray, ks, zeta: float = DEFAULT_ZETA, *, max_steps: int = 50):
    """Solve the Huber harmonic regression of one series at each frequency.

    The series ``x`` (n,) is fit at every integer frequency index in ``ks``
    (B,) with regressor columns phi_t = (cos(2*pi*k*t/n), sin(2*pi*k*t/n)):
    beta minimizes F(beta) = sum_t huber(x_t - phi_t beta) at threshold
    zeta. The loss is piecewise quadratic, so the solver takes Newton steps
    on its active set (Huber 1981, sec. 7.8). It starts from the
    least-squares beta. Each step computes the residual r = x - phi beta,
    its clip psi = clip(r, -zeta, zeta), the active Gram
    H = sum_{|r| <= zeta} phi phi' and the gradient g = sum psi phi, and
    moves to beta + H^-1 g: the exact minimizer of F while the pattern of
    unclipped samples and clip signs stays as it is. A bin has converged
    once a full step lands on the pattern it was computed from (that step
    was then exact), or once a step is round-off
    (||H^-1 g|| <= 1e-12 * max|x|). Two safeguards keep the objective from
    ever increasing: a step that raises F is halved back, and a bin whose
    active Gram is singular (every sample clipped) takes the IRLS step
    (Holland & Welsch 1977), which weights the Gram by min(1, zeta/|r|)
    instead. After ``max_steps`` steps the last accepted iterate is
    returned, flagged unconverged.

    Only the samples up to the last nonzero one are read on each step. On
    the zeros after it (the padding) the residual is -phi_t beta, and
    |phi_t beta| <= ||beta|| because cos^2 + sin^2 = 1, so while
    ||beta|| <= zeta every padded sample is active: the padding adds its
    fixed Gram block P to H, -P beta to g and beta'P beta / 2 to F. A bin
    whose iterate leaves that ball is fit again from its least-squares
    start over all n samples, and reports the steps of that second fit.

    Frequencies are independent, so they are solved in chunks of about
    ``_FIT_CHUNK`` real samples that reuse one set of work arrays: memory is
    O(n) whatever B is, and each frequency's result is bit-identical to
    fitting it alone.

    Returns (beta (B, 2), iterations (B,), converged (B,)).
    """
    if not zeta > 0:
        raise InvalidInputError("zeta must be positive")
    if not isinstance(max_steps, numbers.Integral) or max_steps < 1:
        raise InvalidInputError("max_steps must be an integer of at least 1")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInputError("expected a 1-d series")
    ks = np.atleast_1d(np.asarray(ks))
    if ks.ndim != 1 or not (
        np.issubdtype(ks.dtype, np.integer)
        or (np.issubdtype(ks.dtype, np.floating) and np.all(ks == np.floor(ks)))
    ):
        raise InvalidInputError("frequency indices must be a 1-d sequence of integers")
    n = x.size
    if np.any(ks < 1) or np.any(2 * ks >= n):
        raise InvalidInputError("frequency indices must satisfy 1 <= k < n/2")
    ks = ks.astype(np.int64)

    nonzero = np.flatnonzero(x)
    m = int(nonzero[-1]) + 1 if nonzero.size else 0
    # cos/sin of 2*pi*j/n, read at j = k*t mod n
    angle = (2.0 * np.pi / n) * np.arange(n)
    table = (np.cos(angle), np.sin(angle))
    tol = _ROUNDOFF * float(np.max(np.abs(x), initial=0.0))
    beta = np.zeros((ks.size, 2))
    iterations = np.zeros(ks.size, dtype=np.int64)  # 0 marks a bin still to fit
    converged = np.zeros(ks.size, dtype=bool)
    # A bin that leaves the ball ||beta|| <= zeta is fit again over all n samples.
    for samples in (x[:m], x):
        m, todo = samples.size, np.flatnonzero(iterations == 0)
        chunk = max(1, _FIT_CHUNK // max(m, 1))
        width = min(todo.size, chunk)
        # One block for all float rows: as separate blocks the allocator may hand
        # them back to the OS after each call, and each call then faults them in.
        rows = np.empty(7 * width * m)
        work = rows[: 5 * width * m].reshape(5, width, m)
        scratch = rows[5 * width * m :].reshape(2, width, 1, m)
        flags = np.empty((2, width, 1, m), dtype=bool)
        patterns = np.empty((2, width, 1, m), dtype=np.int8)
        for lo in range(0, todo.size, chunk):
            _newton_huber_chunk(
                samples, n, ks, todo[lo : lo + chunk], table, zeta, max_steps, tol,
                (work, scratch, flags, patterns), beta, iterations, converged,
            )
    return beta, iterations, converged


def _harmonics(ks, m, n, table, out):
    """Write cos and sin of 2*pi*k*t/n for t = 0..m-1 to ``out[0]``, ``out[1]``.

    Both are read from ``table`` at j = k*t mod n, formed as the sum of
    k*t mod n at every 64th t and k*c mod n for c < 64: two small integer
    remainders in place of one over every sample. The sum is below 2n, so
    the "wrap" lookup reduces it with at most one subtraction.
    """
    k = np.asarray(ks, dtype=np.int64)[:, None]
    heads = (k * np.arange(0, m, 64)) % n
    tails = (k * np.arange(64)) % n
    j = (heads[:, :, None] + tails[:, None, :]).reshape(k.size, -1)[:, :m]
    np.take(table[0], j, out=out[0], mode="wrap")
    np.take(table[1], j, out=out[1], mode="wrap")
    return out


def _newton_huber_chunk(
    x, n, ks, bins, table, zeta, max_steps, tol, buffers, beta, iterations, converged
):
    """Run the Newton solver of ``huber_fit`` for one chunk of frequencies.

    ``x`` holds the first m samples of the length-n series; the rest are
    zero. ``buffers`` are the work arrays: per bin, rows cos, sin, cos*cos,
    cos*sin and sin*sin; the residual (then the active mask) and the clipped
    residual; the clipped-above and clipped-below flags; and the clip
    pattern of the m samples (0 active, +1 or -1 clipped above or below) at
    the current and at the last accepted iterate. The chunk fits the
    frequencies ``ks[bins]``; results go to rows ``bins`` of ``beta``,
    ``iterations`` and ``converged``; while m < n, a bin whose iterate
    leaves the ball ||beta|| <= zeta gets ``iterations`` 0 instead. A done
    bin leaves the work arrays: a live bin from the end moves into its slot.
    """
    b, m = bins.size, x.size
    work, (r_rows, psi_rows), (above_rows, below_rows), patterns = buffers
    pattern, pattern_acc = patterns
    q = work[:, :b].transpose(1, 0, 2)  # (bin, row, sample); each row kind is contiguous
    _harmonics(ks[bins], m, n, table, q[:, 0:2].transpose(1, 0, 2))
    np.multiply(q[:, 0], q[:, 0], out=q[:, 2])
    np.multiply(q[:, 0], q[:, 1], out=q[:, 3])
    np.multiply(q[:, 1], q[:, 1], out=q[:, 4])
    # The Gram matrix of all n samples is (n/2) I, so the least-squares start
    # is (2/n) sum phi x and the padding's Gram block is (n/2) I less the
    # real samples' block.
    padding = np.zeros((b, 3)) if m == n else (0.5 * n, 0.0, 0.5 * n) - q[:, 2:5].sum(axis=2)
    radius = zeta if m < n else np.inf  # the padding's terms hold inside this ball
    b_cur = np.matmul(q[:, 0:2], x) / (0.5 * n)
    b_acc = np.zeros((b, 2))  # the last accepted iterate and its objective
    f_acc = np.full(b, np.inf)
    full = np.zeros(b, dtype=bool)  # b_cur is a full Newton step from b_acc
    live = bins.copy()

    for it in range(1, max_steps + 1):
        left = np.hypot(b_cur[:, 0], b_cur[:, 1]) > radius
        if left.any():
            iterations[live[left]] = 0
            if left.all():
                return
            _, q, live, b_cur, b_acc, f_acc, full, padding = _retire(
                left, [pattern_acc[: live.size], q, live, b_cur, b_acc, f_acc, full, padding]
            )
        nb = live.size
        r, above, below, pat = r_rows[:nb], above_rows[:nb], below_rows[:nb], pattern[:nb]
        np.matmul(b_cur[:, None, :], q[:, 0:2], out=r)
        np.subtract(x, r, out=r)
        np.greater(r, zeta, out=above)
        np.less(r, -zeta, out=below)
        np.subtract(above.view(np.int8), below.view(np.int8), out=pat)

        # a full step that kept the pattern it was computed from was exact
        done = full & (pat == pattern_acc[:nb]).all(axis=(1, 2))
        if done.any():
            _settle(done, b_cur, it, live, beta, iterations, converged)
            if done.all():
                break
            *_, q, live, b_cur, b_acc, f_acc, full, padding = _retire(
                done,
                [r, pat, pattern_acc[:nb], q, live, b_cur, b_acc, f_acc, full, padding],
            )
            nb = live.size
            r, pat = r_rows[:nb], pattern[:nb]
        psi = psi_rows[:nb]
        np.clip(r, -zeta, zeta, out=psi)
        grad = np.matmul(q[:, 0:2], psi.transpose(0, 2, 1))[:, :, 0]
        f = np.matmul(psi, r.transpose(0, 2, 1))[:, 0, 0]
        f -= 0.5 * np.matmul(psi, psi.transpose(0, 2, 1))[:, 0, 0]
        act = r  # the residual was read for the last time above
        np.equal(pat, 0, out=act)
        hess = np.matmul(q[:, 2:5], act.transpose(0, 2, 1))[:, :, 0] + padding
        pb = padding[:, 0:2] * b_cur[:, 0:1] + padding[:, 1:3] * b_cur[:, 1:2]
        grad -= pb
        f += 0.5 * np.einsum("ij,ij->i", b_cur, pb)

        worse = f > f_acc
        if worse.any():
            accept = ~worse
            b_acc[accept], f_acc[accept] = b_cur[accept], f[accept]
            pattern_acc[:nb][accept] = pat[accept]
        else:
            b_acc[:], f_acc[:] = b_cur, f
            pattern, pattern_acc = pattern_acc, pattern
        cc, cs, ss = hess.T
        det = cc * ss - cs * cs
        singular = ~(det > _SINGULAR * (cc + ss) ** 2)
        for i in np.flatnonzero(singular):
            weights = zeta / np.maximum(np.abs(x - b_cur[i] @ q[i, 0:2]), zeta)
            hess[i] = q[i, 2:5] @ weights + padding[i]
            det[i] = cc[i] * ss[i] - cs[i] * cs[i]
        step = np.column_stack(
            [ss * grad[:, 0] - cs * grad[:, 1], cc * grad[:, 1] - cs * grad[:, 0]]
        ) / det[:, None]
        small = np.hypot(step[:, 0], step[:, 1]) <= tol
        full = ~singular
        if worse.any():  # a step that raised F is halved back
            step[worse] = 0.5 * (b_cur[worse] - b_acc[worse])
            small[worse] = full[worse] = False
        b_cur = b_acc + step
        if small.any():
            _settle(small, b_acc, it, live, beta, iterations, converged)
            if small.all():
                break
            _, q, live, b_cur, b_acc, f_acc, full, padding = _retire(
                small, [pattern_acc[:nb], q, live, b_cur, b_acc, f_acc, full, padding]
            )
    else:
        beta[live], iterations[live] = b_acc, max_steps


def _settle(done, value, it, live, beta, iterations, converged):
    """Record the bins flagged ``done`` as converged at ``value`` on step ``it``."""
    beta[live[done]] = value[done]
    iterations[live[done]] = it
    converged[live[done]] = True


def _retire(done, arrays):
    """Move the rows of live bins into the slots of done ones; return the live rows."""
    keep = np.flatnonzero(~done)
    slots, movers = np.flatnonzero(done[: keep.size]), keep[keep >= keep.size]
    for a in arrays:
        a[slots] = a[movers]
    return [a[: keep.size] for a in arrays]


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
    zeta: float = DEFAULT_ZETA,
    robust: bool = True,
) -> HybridPeriodogram:
    """Hybrid half-spectrum of a padded series for one wavelet level.

    Bins inside the level's nominal band get the robust power
    (n/4)*||beta||^2 from the Huber fit; all other bins reuse the plain
    periodogram; ``zeta`` is the fit's Huber threshold. DC is forced to
    zero, and the Nyquist ordinate is (sum_k x_{2k} - x_{2k+1})^2 / n.
    ``robust=False`` (or a degenerate all-zero input) skips the robust fits
    entirely.
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
        beta, iterations, converged = huber_fit(x, ks, zeta)
        power[ks] = (n / 4.0) * np.einsum("ij,ij->i", beta, beta)
    nyquist = float((x[0::2] - x[1::2]).sum() ** 2 / n)
    return HybridPeriodogram(power, band, n, nyquist, iterations, converged)


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


def fisher_test(power: np.ndarray, alpha: float) -> FisherOutcome:
    """Fisher's g-test over bins 1..len-1 of ``power`` at significance level alpha.

    g is the largest tested ordinate over the tested total, at k_star (ties
    break toward the smallest index). Zero tested power is degenerate and
    never significant.
    """
    vals = np.asarray(power, dtype=np.float64)[1:]
    if vals.size < 2:
        raise InvalidInputError("Fisher's test needs at least 2 frequency bins")
    total = vals.sum()
    if total <= 0:
        return FisherOutcome(g=0.0, k_star=-1, p_value=1.0, significant=False)
    pos = int(np.argmax(vals))
    g = float(vals[pos] / total)
    p = fisher_pvalue(g, vals.size)
    return FisherOutcome(g=g, k_star=pos + 1, p_value=p, significant=p < alpha)
