"""Periodogram estimation and spectral significance testing.

Per wavelet level the power spectrum is hybrid: inside the level's nominal
passband each bin's harmonic amplitude pair is fit by minimizing a Huber
loss (safeguarded Newton steps on the loss's active set, each reading only
the samples whose clip state can change; the bins of all levels of a
series are solved together), while bins outside the band fall back to the
plain FFT periodogram. Fisher's g-test on the hybrid spectrum yields the
dominant-frequency candidate and its tail p-value.
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
    """Half-spectrum power of a stack of levels, each with its robustly fit band.

    Row r of ``power`` covers k = 0..N-1 of the padded length ``n_padded``
    = 2N spectrum of level r (DC forced to 0); ``nyquist[r]`` is its plain
    ordinate of bin N. The Huber fit was used exactly on the bins
    ``band[r][0]..band[r][1]``; ``band[r]`` is None when no bin of row r
    was fit robustly. ``iterations`` and ``converged`` hold the solver
    diagnostics of every fit bin, in row order, or None when no bin was fit.
    """

    power: np.ndarray
    band: list[tuple[int, int] | None]
    n_padded: int
    nyquist: np.ndarray
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


# Bin-sample pairs solved together: a chunk's work arrays (each bin's at-risk
# samples, their cos and sin, the residual and two clip patterns, about 43
# bytes a pair) stay near 1.5 MB whatever the series length.
_FIT_BUDGET = 32_768

# A Newton step no longer than _ROUNDOFF * max|x| is round-off: the bin is at
# its minimizer.
_ROUNDOFF = 1e-12

# An active Gram block (cc, cs, ss) with cc*ss - cs^2 <= _SINGULAR * (cc + ss)^2
# is treated as singular.
_SINGULAR = 1e-12


def _check_zeta(zeta) -> None:
    if isinstance(zeta, bool) or not isinstance(zeta, numbers.Real) or not zeta > 0:
        raise InvalidInputError(f"zeta must be a positive real number, got {zeta!r}")


def _frequency_indices(ks, n: int) -> np.ndarray:
    ks = np.atleast_1d(np.asarray(ks))
    if ks.ndim != 1 or not (
        np.issubdtype(ks.dtype, np.integer)
        or (np.issubdtype(ks.dtype, np.floating) and np.all(ks == np.floor(ks)))
    ):
        raise InvalidInputError("frequency indices must be a 1-d sequence of integers")
    if np.any(ks < 1) or np.any(2 * ks >= n):
        raise InvalidInputError("frequency indices must satisfy 1 <= k < n/2")
    return ks.astype(np.int64)


def huber_fit(x: np.ndarray, ks, zeta: float = DEFAULT_ZETA, *, max_steps: int = 50):
    """Solve the Huber harmonic regression of one or more series at each frequency.

    The series ``x`` (n,) is fit at every integer frequency index in ``ks``
    (B,) with regressor columns phi_t = (cos(2*pi*k*t/n), sin(2*pi*k*t/n)):
    beta minimizes F(beta) = sum_t huber(x_t - phi_t beta) at threshold
    zeta. A stack ``x`` (L, n) takes one ``ks`` array per row, and its
    results are concatenated in row order. The loss is piecewise quadratic,
    so the solver takes Newton steps on its active set (Huber 1981, sec.
    7.8), starting from beta = 0. At each iterate it finds the clip
    pattern of the residuals r = x - phi beta (each sample active, or
    clipped above or below), the active Gram H = sum_{|r| <= zeta} phi phi'
    and the gradient g = sum psi phi of the clipped residual psi =
    clip(r, -zeta, zeta), and moves to beta + H^-1 g: the exact minimizer
    of F while the pattern stays as it is. A bin has converged once a full
    step lands on the pattern it was computed from (that step was then
    exact), or once a step is round-off (||H^-1 g|| <= 1e-12 * max|x| over
    its row). Two safeguards keep the objective from ever increasing: a
    step that raises F is halved back, and a bin whose active Gram is
    singular (every sample clipped) takes the IRLS step (Holland & Welsch
    1977), which weights the Gram by min(1, zeta/|r|) instead. After
    ``max_steps`` steps the last accepted iterate is returned, flagged
    unconverged.

    A step reads few samples. The reference pattern is the clip state at
    beta = 0; its statistics come for every bin from two FFTs of its row:
    of psi(x) (g at beta = 0) and of the active mask, whose DFT at 2k gives
    H, as cos^2 = (1 + cos 2a)/2. So the first step, to H^-1 g, reads no
    sample; a bin whose H there is singular starts with the IRLS step.
    Because |phi_t beta| <= ||beta||, sample t can leave its reference
    state only if its slack ||x_t| - zeta| is at most ||beta||. Each row's
    samples are sorted by slack once, and a bin whose iterates stay within
    a radius corrects the reference statistics by the samples of slack up
    to that radius that changed state. Zero padding has slack zeta, so it
    is read only once ||beta|| nears zeta. The change of F that decides a
    halving is summed from these corrections and the new pattern's
    quadratic between the two iterates, never as the difference of two
    full sums, whose round-off could stall a bin.

    Frequencies are independent. Those of all rows are solved together in
    chunks of at most ``_FIT_BUDGET`` bin-sample pairs (or one bin), sorted
    by the radius of their first iterate, so a row's last few bins
    share a chunk with another row's; a bin whose iterate leaves its
    chunk's radius is fit again later, over the samples within twice its
    norm. Each frequency's result is bit-identical to fitting it alone.

    Returns (beta (B, 2), iterations (B,), converged (B,)), B counting the
    frequencies of every row.
    """
    _check_zeta(zeta)
    if isinstance(max_steps, bool) or not isinstance(max_steps, numbers.Integral) or max_steps < 1:
        raise InvalidInputError("max_steps must be an integer of at least 1")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InvalidInputError("the series must be finite")
    if x.ndim == 1:
        x, ks = x[None], [ks]
    if x.ndim != 2 or len(ks) != x.shape[0]:
        raise InvalidInputError("expected a 1-d series or a 2-d stack with one ks per row")
    n = x.shape[1]
    ks = [_frequency_indices(k, n) for k in ks]

    slack = np.abs(np.abs(x) - zeta)
    order = np.argsort(slack, axis=1, kind="stable")
    slack = np.take_along_axis(slack, order, axis=1)
    # A sample whose slack exceeds ||beta|| by this margin keeps its reference
    # state whatever the round-off of its residual.
    margin = 1e-9 * (zeta + slack[:, -1])
    per_row = []
    for row, k, row_slack, row_margin in zip(x, ks, slack, margin):
        # Statistics of the reference pattern per bin: g at beta = 0, then H.
        spec = np.fft.rfft(np.stack([np.clip(row, -zeta, zeta), np.abs(row) <= zeta]))
        two = 2 * k
        mask2 = spec[1, np.minimum(two, n - two)]  # the mask's DFT at 2k, conjugated past n/2
        count = spec[1, 0].real
        reference = np.column_stack([
            spec[0, k].real, -spec[0, k].imag, 0.5 * (count + mask2.real),
            np.where(two > n // 2, 0.5, -0.5) * mask2.imag, 0.5 * (count - mask2.real),
        ])
        # the Newton step from beta = 0, or beta = 0 itself where H is singular
        with np.errstate(all="ignore"):
            start = _newton_step(reference[:, 2:], reference[:, :2])
        start[_singular(reference[:, 2:])] = 0.0
        reach = np.searchsorted(
            row_slack, np.hypot(start[:, 0], start[:, 1]) + row_margin, side="right"
        )
        per_row.append((reference, start, reach))
    reference, start, reach = (np.concatenate(a) for a in zip(*per_row))
    rows = np.repeat(np.arange(x.shape[0]), [k.size for k in ks])
    angle = (2.0 * np.pi / n) * np.arange(n)  # cos/sin of 2*pi*j/n, read at j = k*t mod n
    tol = _ROUNDOFF * np.max(np.abs(x), axis=1, initial=0.0)
    xs = np.take_along_axis(x, order, axis=1)
    fit = (x, xs, np.concatenate(ks), rows, (np.cos(angle), np.sin(angle)), order, slack,
           margin, reach, zeta, max_steps, tol)
    out = (np.zeros((rows.size, 2)), np.zeros(rows.size, dtype=np.int64),
           np.zeros(rows.size, dtype=bool))
    todo = np.arange(rows.size)  # a bin with iterations 0 is still to fit
    while todo.size:
        todo = todo[np.argsort(reach[todo], kind="stable")]
        lo = 0
        while lo < todo.size:
            widths = np.maximum(reach[todo[lo : lo + _FIT_BUDGET]], 1)
            pairs = np.arange(1, widths.size + 1) * widths
            hi = lo + max(1, int(np.searchsorted(pairs, _FIT_BUDGET, side="right")))
            bins = todo[lo:hi]
            _newton_huber_chunk(fit, bins, reference[bins], start[bins], out)
            lo = hi
        todo = np.flatnonzero(out[1] == 0)
    return out


def _singular(h):
    """Whether each active Gram block, a row (cc, cs, ss) of ``h``, is singular."""
    cc, cs, ss = h.T
    return ~(cc * ss - cs * cs > _SINGULAR * (cc + ss) ** 2)


def _newton_step(h, g):
    """H^-1 g per bin, for H = [[cc, cs], [cs, ss]] a row (cc, cs, ss) of ``h``."""
    cc, cs, ss = h.T
    step = np.column_stack([ss * g[:, 0] - cs * g[:, 1], cc * g[:, 1] - cs * g[:, 0]])
    return step / (cc * ss - cs * cs)[:, None]


def _harmonics(ks, t, table, n):
    """cos and sin of 2*pi*k*t/n as (bin, 2, sample), read from ``table``.

    ``t`` holds the samples of every bin (1-d) or one row of them per bin.
    The index k*t mod n is formed up to a multiple of n, which the "wrap"
    lookup removes: a float quotient costs less than an integer remainder.
    """
    j = ks[:, None] * t
    j -= n * (j * (1.0 / n)).astype(np.int64)
    out = np.empty((ks.size, 2, j.shape[1]))
    np.take(table[0], j, out=out[:, 0], mode="wrap")
    np.take(table[1], j, out=out[:, 1], mode="wrap")
    return out


def _newton_huber_chunk(fit, bins, stats, b_cur, out):
    """Run the Newton solver of ``huber_fit`` for the frequencies ``ks[bins]``.

    ``stats`` holds per bin the reference pattern's g at beta = 0 and H
    (cc, cs, ss), ``b_cur`` the first iterates: the Newton step from beta
    = 0, or beta = 0 itself where that H is singular. Each bin reads the
    first k samples of its row in slack order, k = ``reach`` of the chunk's
    last bin; a bin whose iterate leaves the radius those samples cover in
    its row gets a larger ``reach`` and keeps ``iterations`` 0. Results go
    to rows ``bins`` of ``out`` = (beta, iterations, converged). Per bin the
    chunk keeps its row, its samples and their cos and sin, the clip
    pattern at the last accepted iterate, and that pattern's g at beta = 0
    and H; a done bin leaves them.
    """
    x, xs, ks, rows, table, order, slack, margin, reach, zeta, max_steps, tol = fit
    beta, iterations, converged = out
    n, k = x.shape[1], int(reach[bins[-1]])
    radius = slack[:, k] - margin if k < n else np.full(x.shape[0], np.inf)
    row = rows[bins]
    xt = xs[row, :k]
    phi = _harmonics(ks[bins], order[row, :k], table, n)
    pat_acc = (xt > zeta).view(np.int8) - (xt < -zeta).view(np.int8)
    live, b_acc = bins, np.zeros_like(b_cur)
    full = ~_singular(stats[:, 2:])  # b_cur is a full Newton step from b_acc

    for it in range(1, max_steps + 1):
        norm = np.hypot(b_cur[:, 0], b_cur[:, 1])
        left = norm > radius[row]
        if left.any():
            for row_id in np.unique(row[left]):
                moved = left & (row == row_id)
                reach[live[moved]] = np.searchsorted(
                    slack[row_id], 2 * norm[moved] + margin[row_id], side="right"
                )
            if left.all():
                return
            live, row, xt, phi, pat_acc, stats, b_cur, b_acc, full = (
                a[~left] for a in (live, row, xt, phi, pat_acc, stats, b_cur, b_acc, full)
            )
        r = np.matmul(b_cur[:, None, :], phi)[:, 0]
        np.subtract(xt, r, out=r)
        pat = (r > zeta).view(np.int8) - (r < -zeta).view(np.int8)
        flip = pat != pat_acc

        # a full step that kept the pattern it was computed from was exact
        done = full & ~flip.any(axis=1)
        if done.any():
            settled = live[done]
            beta[settled], iterations[settled], converged[settled] = b_cur[done], it, True
            if done.all():
                return
            live, row, xt, phi, pat, pat_acc, stats, b_cur, b_acc, flip = (
                a[~done] for a in (live, row, xt, phi, pat, pat_acc, stats, b_cur, b_acc, flip)
            )
        # A pattern's F is c - beta'l + beta'H beta / 2 (plus a constant): l is
        # g at beta = 0. A sample that changes its active flag by da and its
        # clip sign by dp adds (x^2 + zeta^2) da / 2 + zeta x dp to c,
        # (x da + zeta dp) phi to l and da phi phi' to H.
        # f = i*k + j flags bin i's sample j; its cos and sin sit at flat
        # (i, 0, j) and (i, 1, j) of phi
        f = np.flatnonzero(flip)
        i = f // k
        new, old = pat.take(f), pat_acc.take(f)
        da, dp = np.abs(old) - np.abs(new), new - old
        xj, c, s = xt.take(f), phi.take(f + i * k), phi.take(f + (i + 1) * k)
        w = xj * da + zeta * dp
        terms = np.stack(
            [
                0.5 * (xj * xj + zeta * zeta) * da + zeta * xj * dp,
                w * c, w * s, da * c * c, da * c * s, da * s * s,
            ],
            axis=1,
        )
        d = np.zeros((live.size, 6))
        if i.size:
            first = np.flatnonzero(np.diff(i, prepend=-1))
            d[i[first]] = np.add.reduceat(terms, first, axis=0)
        cur = stats + d[:, 1:]
        hess = cur[:, [2, 3, 3, 4]].reshape(-1, 2, 2)
        g = cur[:, 0:2, None] - np.matmul(hess, np.stack([b_acc, b_cur], axis=2))
        # F(b_cur) - F(b_acc): the flips' change of F at b_acc, then the new
        # pattern's quadratic from b_acc to b_cur
        d_hess_b = np.matmul(d[:, [3, 4, 4, 5]].reshape(-1, 2, 2), b_acc[:, :, None])[:, :, 0]
        rise = d[:, 0] - np.einsum("ij,ij->i", b_acc, d[:, 1:3] - 0.5 * d_hess_b)
        rise -= 0.5 * np.einsum("ij,ij->i", b_cur - b_acc, g[:, :, 0] + g[:, :, 1])

        worse = rise > 0
        accept = ~worse
        stats[accept], pat_acc[accept], b_acc[accept] = cur[accept], pat[accept], b_cur[accept]
        singular = _singular(cur[:, 2:])
        for b in np.flatnonzero(singular):
            c, s = _harmonics(ks[live[b : b + 1]], np.arange(n), table, n)[0]
            residual = x[row[b]] - b_cur[b, 0] * c - b_cur[b, 1] * s
            weights = zeta / np.maximum(np.abs(residual), zeta)
            cur[b, 2:] = weights @ (c * c), weights @ (c * s), weights @ (s * s)
        step = _newton_step(cur[:, 2:], g[:, :, 1])
        small = np.hypot(step[:, 0], step[:, 1]) <= tol[row]
        full = ~singular & accept
        if worse.any():  # a step that raised F is halved back
            step[worse] = 0.5 * (b_cur[worse] - b_acc[worse])
            small[worse] = False
        b_cur = b_acc + step
        if small.any():
            settled = live[small]
            beta[settled], iterations[settled], converged[settled] = b_acc[small], it, True
            if small.all():
                return
            live, row, xt, phi, pat_acc, stats, b_cur, b_acc, full = (
                a[~small] for a in (live, row, xt, phi, pat_acc, stats, b_cur, b_acc, full)
            )
    beta[live], iterations[live] = b_acc, max_steps


def robust_band(n_padded: int, level: int) -> tuple[int, int] | None:
    """Frequency indices [n/2^(j+1), n/2^j] clipped to the half spectrum."""
    k_lo = max(1, -(-n_padded // 2 ** (level + 1)))
    k_hi = min(n_padded // 2 - 1, n_padded // 2**level)
    if k_lo > k_hi:
        return None
    return k_lo, k_hi


def huber_periodogram(
    x: np.ndarray,
    levels,
    zeta: float = DEFAULT_ZETA,
    robust: bool = True,
) -> HybridPeriodogram:
    """Hybrid half-spectra of a stack of padded series, one wavelet level per row.

    Bins inside each row's nominal band for its level in ``levels`` get the
    robust power (n/4)*||beta||^2 from the Huber fit, every row's band
    solved in one ``huber_fit`` call; all other bins reuse the plain
    periodogram; ``zeta`` is the fit's Huber threshold. DC is forced to
    zero, and the Nyquist ordinate is (sum_k x_{2k} - x_{2k+1})^2 / n.
    ``robust=False`` skips the robust fits entirely, and so does a
    degenerate all-zero row for itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InvalidInputError("the series must be finite")
    if x.ndim != 2 or x.shape[1] < 4 or x.shape[1] % 2:
        raise InvalidInputError("expected a stack of even-length padded series of >= 4 samples")
    if len(levels) != x.shape[0] or any(level < 1 for level in levels):
        raise InvalidInputError("expected one level of at least 1 per series")
    _check_zeta(zeta)

    n = x.shape[1]
    power = np.stack([vanilla_periodogram(row)[: n // 2] for row in x])
    power[:, 0] = 0.0
    band = [
        robust_band(n, level) if robust and np.any(row) else None
        for row, level in zip(x, levels)
    ]
    iterations = converged = None
    if any(band):
        ks = [np.arange(b[0], b[1] + 1) if b else np.arange(0) for b in band]
        beta, iterations, converged = huber_fit(x, ks, zeta)
        rows = np.repeat(np.arange(len(ks)), [k.size for k in ks])
        power[rows, np.concatenate(ks)] = (n / 4.0) * np.einsum("ij,ij->i", beta, beta)
    nyquist = (x[:, 0::2] - x[:, 1::2]).sum(axis=1) ** 2 / n
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
