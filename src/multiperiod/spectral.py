"""Periodogram estimation and spectral significance testing.

A series is searched through one spectrum: that of the cleaned series,
standardized and zero-padded to 2N samples. The MODWT is circular, so
wavelet level j's spectrum is the series' spectrum times the level's power
gain |H_j|^2 (Percival & Walden 2000, ch. 5): each examined level is that
one spectrum weighted by its gain, with no level coefficients transformed
and no circular wrap. In robust mode each bin 1..N-1 where some examined
level has a gain above a small share of the largest is the power of a
Huber harmonic fit at that frequency (safeguarded Newton steps on the
loss's active set, each reading only the samples whose clip state can
change); the other bins, and every bin in plain mode, hold the FFT
periodogram's power. Fisher's g-test of a level takes the even bins of the
series' spectrum (its unpadded periodogram) inside the level's octave,
which are independent exponentials under Gaussian white noise, so its
p-value is calibrated; those bins are always among the fitted ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import TABLES
from .reductions import standardize
from .series import InvalidInputError, check_bool, check_int, check_real, finite_array


# Huber threshold on the standardized residuals of the harmonic fit.
DEFAULT_ZETA = 1.0


@dataclass
class HybridPeriodogram:
    """The one-sided spectrum of a padded series, weighted for each examined level.

    ``spectrum`` covers k = 0..N of the padded length ``n_padded`` = 2N
    spectrum of the series (DC forced to 0), and row r of ``power`` is it
    times the power gain of wavelet level ``levels[r]``. ``bins`` holds the
    ascending indices of the bins whose power is a Huber fit's (empty when
    none was fit), and ``iterations`` and ``converged`` the solver
    diagnostics of exactly those bins, or None when no bin was fit.
    """

    power: np.ndarray
    levels: list[int]
    n_padded: int
    spectrum: np.ndarray
    bins: np.ndarray
    iterations: np.ndarray | None = None
    converged: np.ndarray | None = None


@dataclass(frozen=True)
class FisherOutcome:
    g: float
    p_value: float
    significant: bool


def zero_pad(x: np.ndarray) -> np.ndarray:
    """Standardize (population moments) and append N zeros, doubling length.

    Standardized by ``reductions.standardize``: a constant series yields an
    all-zero padded series, the degenerate case every downstream consumer
    checks for.
    """
    x = finite_array("x", x)
    if x.size == 0:
        raise InvalidInputError("expected a nonempty 1-d sequence")
    out = np.zeros(2 * x.size)
    out[: x.size] = standardize(x, 0)[0]
    return out


# Bin-sample pairs solved together. A chunk's work arrays (each bin's run of
# at-risk samples, their cos and sin, the residual, two clip patterns and the
# indices that gather them) grow with its pairs, and the pairs of a spectrum
# grow faster than N: the bins 1..N-1 of a padded normal series read 20.5k
# samples at N = 1000 and 74.5k at N = 2000. At this budget their fit traces
# 1.95 and 2.47 MiB there (x1.3); at 32 768 pairs the second would trace 3.10.
_FIT_BUDGET = 24_576

# A bin's run holds the samples of slack up to this many times the norm of its
# first iterate. Over the 99 900 bins of the robust golden detections, with
# no headroom 537 outgrow their run and are fit twice, with this one none.
_HEADROOM = 1.05

# A Newton step no longer than _ROUNDOFF * max|x| is round-off: the bin is at
# its minimizer.
_ROUNDOFF = 1e-12

# An active Gram block (cc, cs, ss) with cc*ss - cs^2 <= _SINGULAR * (cc + ss)^2
# is treated as singular.
_SINGULAR = 1e-12


# Newton steps a bin may take before its last accepted iterate is returned.
_MAX_STEPS = 50

# A bin is fit only if some examined level's power gain there is at least this
# share of the largest examined gain; elsewhere the spectrum keeps the plain
# periodogram's power. On every even bin that Fisher's test reads in level j's
# octave, level j's gain is at least 0.40 times the largest gain of any level
# (wavelet orders 1-10, lengths 64 to 10 007; tested), so the tested bins are
# always fit. The ACF and the dominant bin read the other bins too: the
# reports of the benchmark's `mild` and `severe` pools of seeds 101-105 (200
# series) are the same with no floor and with floors up to 0.15, and one
# changes at 0.2. At this floor `mild` seed 0 (levels 6, 4, 5, 3) fits 360 of
# its 999 bins.
_GAIN_FLOOR = 1e-2


def _frequency_indices(ks, n: int) -> np.ndarray:
    ks = np.atleast_1d(finite_array("frequency indices", ks, (0, 1), integer=True))
    if np.any(ks < 1) or np.any(2 * ks >= n):
        raise InvalidInputError("frequency indices must satisfy 1 <= k < n/2")
    return ks.astype(np.int64)


def huber_fit(x: np.ndarray, ks, zeta: float = DEFAULT_ZETA):
    """Solve the Huber harmonic regression of a series at each frequency.

    The series ``x`` (n,) is fit at every integer frequency index in ``ks``
    (B,) with regressor columns phi_t = (cos(2*pi*k*t/n), sin(2*pi*k*t/n)):
    beta minimizes F(beta) = sum_t huber(x_t - phi_t beta) at threshold
    zeta. The loss is piecewise quadratic, so the solver takes Newton steps
    on its active set (Huber 1981, sec. 7.8), starting from beta = 0. At
    each iterate it finds the clip pattern of the residuals r = x - phi beta
    (each sample active, or clipped above or below), the active Gram
    H = sum_{|r| <= zeta} phi phi' and the gradient g = sum psi phi of the
    clipped residual psi = clip(r, -zeta, zeta), and moves to
    beta + H^-1 g: the exact minimizer of F while the pattern stays as it
    is. A bin has converged once a full step lands on the pattern it was
    computed from (that step was then exact), or once a step is round-off
    (||H^-1 g|| <= 1e-12 * max|x|). Two safeguards keep the objective from
    ever increasing: a step that raises F is halved back, and a bin whose
    active Gram is singular (every sample clipped) takes the IRLS step
    (Holland & Welsch 1977), which weights the Gram by min(1, zeta/|r|)
    instead. After ``_MAX_STEPS`` steps the last accepted iterate is
    returned, flagged unconverged.

    A step reads few samples. The reference pattern is the clip state at
    beta = 0; its statistics come for every bin from two FFTs of the series:
    of psi(x) (g at beta = 0) and of the active mask, whose DFT at 2k gives
    H, as cos^2 = (1 + cos 2a)/2. So the first step, to H^-1 g, reads no
    sample; a bin whose H there is singular starts with the IRLS step.
    Because |phi_t beta| <= ||beta||, sample t can leave its reference state
    only if its slack ||x_t| - zeta| is at most ||beta||. The samples are
    sorted by slack once, and a bin whose iterates stay within a radius
    corrects the reference statistics by the samples of slack up to that
    radius that changed state. A full step shorter than each of those
    residuals' distance ||r_t| - zeta| to the threshold changes no state:
    its iterate is returned with no step to confirm it. Zero padding has
    slack zeta, so it is read only once ||beta|| nears zeta. The change of F
    that decides a halving is summed from these corrections and the new
    pattern's quadratic between the two iterates, never as the difference of
    two full sums, whose round-off could stall a bin.

    Frequencies are independent. Each bin reads the samples of slack up to
    ``_HEADROOM`` times the norm of its first iterate. The bins, sorted by
    that count, are solved together in chunks of consecutive bins that read
    at most ``_FIT_BUDGET`` samples in all (a bin that reads more has a
    chunk of its own). A bin whose iterate leaves its radius is fit again
    later, over the samples within twice its norm. Each frequency's result
    is bit-identical to fitting it alone.

    Returns (beta (B, 2), iterations (B,), converged (B,)).
    """
    check_real("zeta", zeta, 0, math.inf, "(]")
    x = finite_array("x", x)
    n = x.size
    ks = _frequency_indices(ks, n)
    out = (np.zeros((ks.size, 2)), np.zeros(ks.size, dtype=np.int64),
           np.zeros(ks.size, dtype=bool))
    if not ks.size:
        return out

    # Per bin, the DFTs of psi(x) at k and of the active mask at 2k
    # (conjugated past n/2) and 0, from one FFT of the pair, freed before the
    # sort below allocates.
    two = 2 * ks
    spec = np.fft.rfft(np.stack([np.clip(x, -zeta, zeta), np.abs(x) <= zeta]))
    psi, mask2 = spec[0, ks], spec[1, np.minimum(two, n - two)]
    count = spec[1, 0].real
    del spec
    slack = np.abs(np.abs(x) - zeta)
    order = np.argsort(slack, kind="stable")
    slack = slack[order]
    # A sample whose slack exceeds ||beta|| by this margin keeps its reference
    # state whatever the round-off of its residual.
    margin = 1e-9 * (zeta + slack[-1])
    # the reference pattern's g at beta = 0, then H, one row per statistic
    reference = np.stack([
        psi.real, -psi.imag, 0.5 * (count + mask2.real),
        np.where(two > n // 2, 0.5, -0.5) * mask2.imag, 0.5 * (count - mask2.real),
    ])
    # the Newton step from beta = 0, or beta = 0 itself where H is singular
    with np.errstate(all="ignore"):
        start = _newton_step(reference[2:], reference[:2])
    full = ~_singular(reference[2:])  # the start is a full Newton step
    start[:, ~full] = 0.0
    reach = np.searchsorted(slack, _HEADROOM * np.hypot(start[0], start[1]) + margin, "right")
    tol = _ROUNDOFF * np.max(np.abs(x), initial=0.0)
    fit = (x, x[order], ks, _table(n), order, slack, margin, reach, full, zeta, _MAX_STEPS, tol)
    todo = np.arange(ks.size)  # a bin with iterations 0 is still to fit
    while todo.size:
        todo = todo[np.argsort(reach[todo], kind="stable")]
        pairs = np.cumsum(reach[todo])
        lo = 0
        while lo < todo.size:
            below = pairs[lo] - reach[todo[lo]]
            hi = max(lo + 1, int(np.searchsorted(pairs, below + _FIT_BUDGET, side="right")))
            bins = todo[lo:hi]
            _newton_huber_chunk(fit, bins, reference[:, bins], start[:, bins], out)
            lo = hi
        todo = np.flatnonzero(out[1] == 0)
    return out


@TABLES
def _table(n):
    """Row j holds cos and sin of 2*pi*j/n, read at j = k*t mod n; read-only."""
    angle = (2.0 * np.pi / n) * np.arange(n)
    return np.column_stack([np.cos(angle), np.sin(angle)])


def _singular(h):
    """Whether each active Gram block, a column (cc, cs, ss) of ``h``, is singular."""
    cc, cs, ss = h
    return ~(cc * ss - cs * cs > _SINGULAR * (cc + ss) ** 2)


def _newton_step(h, g):
    """H^-1 g per bin: H = [[cc, cs], [cs, ss]] from a column (cc, cs, ss) of ``h``."""
    cc, cs, ss = h
    step = np.stack([ss * g[0] - cs * g[1], cc * g[1] - cs * g[0]])
    step /= cc * ss - cs * cs
    return step


def _harmonics(j, table, n):
    """cos and sin of 2*pi*j/n as rows (cos, sin), for the integers j = k*t.

    They are read from ``table``, whose row j holds the cos and sin of
    2*pi*j/n, so one lookup fetches both. ``j`` is reduced in place, mod n
    up to a multiple of n, which the "wrap" lookup removes: a float
    quotient costs less than an integer remainder.
    """
    quotient = (j * (1.0 / n)).astype(np.int64)
    quotient *= n
    j -= quotient
    return np.ascontiguousarray(table.take(j, axis=0, mode="wrap").T)


def _runs(xs, order, table, width, ks):
    """Each bin's first ``width`` samples of ``xs``, one run after another, and
    their cos and sin at frequency ``ks`` as rows (cos, sin).
    """
    at = np.repeat(width - np.cumsum(width), width)  # index into xs
    at += np.arange(at.size)
    j = np.repeat(ks, width)
    j *= order.take(at)
    return xs.take(at), _harmonics(j, table, xs.size)


def _clip_pattern(r, zeta):
    """The clip state of each residual: 1 above zeta, -1 below -zeta, else 0."""
    return (r > zeta).view(np.int8) - (r < -zeta).view(np.int8)


def _residual(xt, cs, b, width):
    """x - phi b over the runs: column i of ``b`` fits the next ``width[i]`` samples."""
    r = np.repeat(b, width, axis=1)
    r *= cs
    r = np.add(r[0], r[1], out=r[0])
    return np.subtract(xt, r, out=r)


def _newton_huber_chunk(fit, bins, stats, b_cur, out):
    """Run the Newton solver of ``huber_fit`` for the frequencies ``ks[bins]``.

    ``stats`` (5, B) holds per bin the reference pattern's g at beta = 0 and
    H (cc, cs, ss), ``b_cur`` (2, B) the first iterates: the Newton step from
    beta = 0, or beta = 0 itself where that H is singular. Each bin reads one
    run: the first ``reach`` samples in slack order, held with
    their cos and sin and the clip pattern at the last accepted iterate in
    flat arrays, one run after another. A first iterate lies inside the
    radius its run covers; a bin whose next iterate leaves it gets a larger
    ``reach`` and keeps ``iterations`` 0. Results go to rows ``bins`` of
    ``out`` = (beta, iterations, converged). A bin's run leaves the arrays at
    the end of the step that finishes it.
    """
    x, xs, ks, table, order, slack, margin, reach, full, zeta, max_steps, tol = fit
    beta, iterations, converged = out
    n = x.size
    live, width = bins, reach[bins]
    radius = np.full(bins.size, np.inf)
    inside = width < n
    radius[inside] = slack[width[inside]] - margin
    xt, cs = _runs(xs, order, table, width, ks[bins])
    pat_acc = _clip_pattern(xt, zeta)
    b_acc, full = np.zeros_like(b_cur), full[bins]  # b_cur is a full Newton step from b_acc

    for it in range(1, max_steps + 1):
        bounds = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(width, out=bounds[1:])
        r = _residual(xt, cs, b_cur, width)
        pat = _clip_pattern(r, zeta)
        f = (pat != pat_acc).nonzero()[0]
        edges = np.searchsorted(f, bounds)  # bin b's flips are f[edges[b]:edges[b + 1]]
        count = edges[1:] - edges[:-1]
        # a full step that kept the pattern it was computed from was exact
        done = full & (count == 0)
        if done.any():
            settled = live[done]
            beta[settled], iterations[settled], converged[settled] = b_cur[:, done].T, it, True
            if done.all():
                return
        gap, held = np.full(live.size, np.inf), width > 0
        gap[held] = np.minimum.reduceat(np.abs(np.abs(r) - zeta), bounds[:-1][held])
        # A pattern's F is c - beta'l + beta'H beta / 2 (plus a constant): l is
        # g at beta = 0. A sample that changes its active flag by da and its
        # clip sign by dp adds (x^2 + zeta^2) da / 2 + zeta x dp to c,
        # (x da + zeta dp) phi to l and da phi phi' to H.
        d = np.zeros((6, live.size))
        if f.size:
            new, old = pat.take(f), pat_acc.take(f)
            da, dp = np.abs(old) - np.abs(new), new - old
            xj, phi = xt.take(f), cs.take(f, axis=1)
            terms = np.empty((6, f.size))
            terms[0] = 0.5 * (xj * xj + zeta * zeta) * da + zeta * xj * dp
            np.multiply(xj * da + zeta * dp, phi, out=terms[1:3])
            dphi = da * phi
            np.multiply(dphi[0], phi, out=terms[3:5])
            np.multiply(dphi[1], phi[1], out=terms[5])
            hit = count > 0
            d[:, hit] = np.add.reduceat(terms, edges[:-1][hit], axis=1)
        cur = stats + d[1:]
        (l0, l1, hcc, hcs, hss), (a0, a1), (c0, c1) = cur, b_acc, b_cur
        # g at b_acc and at b_cur
        ga0, ga1 = l0 - (hcc * a0 + hcs * a1), l1 - (hcs * a0 + hss * a1)
        gc0, gc1 = l0 - (hcc * c0 + hcs * c1), l1 - (hcs * c0 + hss * c1)
        # F(b_cur) - F(b_acc): the flips' change of F at b_acc, then the new
        # pattern's quadratic from b_acc to b_cur
        dc, dl0, dl1, dcc, dcs, dss = d
        rise = dc - (a0 * (dl0 - 0.5 * (dcc * a0 + dcs * a1))
                     + a1 * (dl1 - 0.5 * (dcs * a0 + dss * a1)))
        rise -= 0.5 * ((c0 - a0) * (ga0 + gc0) + (c1 - a1) * (ga1 + gc1))

        worse = rise > 0
        accept = ~worse
        np.copyto(stats, cur, where=accept)
        np.copyto(b_acc, b_cur, where=accept)
        if f.size:
            taken = np.repeat(accept, count)
            pat_acc[f[taken]] = new[taken]
        # never a done bin, whose H is not singular
        singular = _singular(cur[2:])
        for b in singular.nonzero()[0]:
            c, s = _harmonics(ks[live[b]] * np.arange(n), table, n)
            residual = x - c0[b] * c - c1[b] * s
            weights = zeta / np.maximum(np.abs(residual), zeta)
            # elementwise, not a matrix product, so no BLAS kernel sets the rounding
            cur[2:, b] = [np.sum(weights * p) for p in (c * c, c * s, s * s)]
        step = _newton_step(cur[2:], (gc0, gc1))
        length = np.hypot(step[0], step[1])
        small = (length <= tol) & ~done
        full = ~singular & accept
        if worse.any():  # a step that raised F is halved back
            np.copyto(step, 0.5 * (b_cur - b_acc), where=worse)
            small &= accept
        b_cur = b_acc + step
        if small.any():
            settled = live[small]
            beta[settled], iterations[settled], converged[settled] = b_acc[:, small].T, it, True
        gone = done | small
        # a next iterate outside the radius of its run is fit again later
        norm = np.hypot(b_cur[0], b_cur[1])
        left = (norm > radius) & ~gone & (it < max_steps)
        if left.any():
            reach[live[left]] = np.searchsorted(slack, 2 * norm[left] + margin, "right")
            gone |= left
        # a full step inside the radius and, with margin, shorter than the least
        # ||r_t| - zeta| of its run flips no sample: the next step would settle it
        ahead = full & ~gone & (length + margin < gap) & (it < max_steps)
        settled = live[ahead]
        beta[settled], iterations[settled], converged[settled] = b_cur[:, ahead].T, it + 1, True
        gone |= ahead
        if not gone.any():
            continue
        if gone.all():
            return
        keep = ~gone
        at = np.repeat(keep, width).nonzero()[0]
        xt, cs, pat_acc = xt.take(at), cs.take(at, axis=1), pat_acc.take(at)
        live, width, radius, full = live[keep], width[keep], radius[keep], full[keep]
        stats, b_cur, b_acc = stats[:, keep], b_cur[:, keep], b_acc[:, keep]
    beta[live], iterations[live] = b_acc.T, max_steps


def huber_periodogram(
    x: np.ndarray,
    gains: np.ndarray,
    levels,
    zeta: float = DEFAULT_ZETA,
    robust: bool = True,
) -> HybridPeriodogram:
    """The one-sided spectrum of a padded series and its rows for wavelet levels.

    ``x`` is a series of N samples zero-padded to 2N. Row r of ``gains``
    (L, N + 1) is level ``levels[r]``'s power gain |H_j|^2 at the 2N-point
    frequencies k = 0..N, and row r of the result's ``power`` is the
    spectrum times it. The bins k in 1..N-1 where the largest of the levels'
    gains is at least ``_GAIN_FLOOR`` times the largest gain in ``gains``
    get the robust power (n/4)*||beta||^2 of one ``huber_fit`` at threshold
    ``zeta``, the result's ``bins``. Every other bin keeps the plain
    periodogram's power, DC forced to zero. ``robust=False`` fits no bin,
    and neither does an all-zero series or an empty list of levels.
    """
    x = finite_array("x", x)
    if x.size < 4 or x.size % 2:
        raise InvalidInputError("expected an even-length padded series of >= 4 samples")
    n = x.size
    gains = finite_array("gains", gains, (2,))
    if gains.shape != (len(levels), n // 2 + 1):
        raise InvalidInputError("expected one row of N + 1 gains per level")
    for level in levels:
        check_int("level", level, 1)
    check_real("zeta", zeta, 0, math.inf, "(]")
    check_bool("robust", robust)

    spec = np.fft.rfft(x)
    spectrum = (spec.real * spec.real + spec.imag * spec.imag) / n
    spectrum[0] = 0.0
    bins = np.zeros(0, dtype=np.int64)
    iterations = converged = None
    if robust and len(levels) and np.any(x):
        peak = gains.max(axis=0)
        bins = np.flatnonzero(peak[1:-1] >= _GAIN_FLOOR * peak.max()) + 1
    if bins.size:
        beta, iterations, converged = huber_fit(x, bins, zeta)
        b0, b1 = beta.T
        spectrum[bins] = (n / 4.0) * (b0 * b0 + b1 * b1)
    return HybridPeriodogram(
        gains * spectrum, list(levels), n, spectrum, bins, iterations, converged
    )


_FISHER_TERM_CAP = math.log(1e5)


def fisher_pvalue(g0: float, m: int) -> float:
    """Tail probability of the g-statistic under the white-noise null.

    Alternating series sum_{k=1}^{floor(1/g0)} (-1)^(k-1) C(m,k)(1-k*g0)^(m-1)
    over m tested bins, accumulated in signed log-magnitude form and
    truncated once a term falls below 1e-16 of the running sum. Past a term
    of 1e5 the sum cancels below its rounding error while 1 - p is under
    1e-7 for m <= 2000 and 2e-6 at m = 25 000, so p is reported as 1. The
    result is clamped to [0, 1]; it tends to 0 as g0 -> 1 and to 1 as g0 -> 1/m.
    """
    check_real("g", g0, 0, 1, "(]")
    check_int("m", m, 2)
    k_max = min(int(math.floor(1.0 / g0)), m)
    log_sum, sign_sum = -math.inf, 1.0
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
        if log_term > _FISHER_TERM_CAP:
            return 1.0
        sign_term = 1.0 if k % 2 == 1 else -1.0
        if log_sum == -math.inf:
            log_sum, sign_sum = log_term, sign_term
            continue
        if log_term < log_sum + math.log(1e-16):
            break
        if log_term > log_sum:
            log_sum, log_term, sign_sum, sign_term = log_term, log_sum, sign_term, sign_sum
        ratio = math.exp(log_term - log_sum)
        if sign_sum == sign_term:
            log_sum += math.log1p(ratio)
        elif ratio < 1.0:
            log_sum += math.log1p(-ratio)
        else:
            log_sum, sign_sum = -math.inf, 1.0
    if log_sum == -math.inf or sign_sum < 0:
        return 0.0
    if log_sum >= 0.0:
        return 1.0
    return math.exp(log_sum)


def fisher_test(spectrum: np.ndarray, level: int, alpha: float) -> FisherOutcome:
    """Fisher's g-test of wavelet level ``level``'s octave at significance level alpha.

    ``spectrum`` holds bins 0..N of the spectrum of N samples zero-padded
    to 2N, so its even bins 2k are the unpadded periodogram. The test takes
    those with k in the level's octave [N/2^(j+1), N/2^j], below the
    Nyquist k = N/2 and above DC. g is the largest over their total.
    Fewer than 2 such bins, or zero power over them, is degenerate and
    never significant. ``alpha`` must be a real number in (0, 1).
    """
    check_int("level", level, 1)
    check_real("alpha", alpha, 0, 1)
    spectrum = finite_array("spectrum", spectrum)
    if spectrum.size < 2:
        raise InvalidInputError("Fisher's test needs a spectrum of at least 2 bins")
    n, j = spectrum.size - 1, int(level)
    lo = max(1, -(-n >> (j + 1)))
    hi = min(n >> j, (n - 1) // 2)
    vals = spectrum[2 * lo : 2 * hi + 1 : 2]
    total = vals.sum()
    if vals.size < 2 or total <= 0:
        return FisherOutcome(g=0.0, p_value=1.0, significant=False)
    g = float(vals.max() / total)
    p = fisher_pvalue(g, vals.size)
    return FisherOutcome(g=g, p_value=p, significant=p < alpha)
