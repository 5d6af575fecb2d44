"""Squared-MMD estimator, concentration width, and permutation calibration.

The estimator is the U-statistic (diagonal terms excluded; the raw value
may be negative and is kept as-is so unbiasedness stays testable). The
cross-block sum is kernels.gram_sum, the exact sum of its entries rounded
once (the same float as math.fsum), taken while the block is finished and
never stored, so estimates are invariant under swapping the two samples,
bit for bit. The self-block sums are still np.sum, whose rounding depends
on the block shape.

Permutation calibration keeps only the upper row panels of the pooled Gram
(the diagonal blocks and everything right of them), since the matrix is
symmetric: about N^2 / 2 + N * _PANEL_ROWS / 2 of its N^2 entries are
built and held, and each batch of permutations multiplies only those.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, gram_matrix, gram_sum, padded_entries
from .validation import check_count, check_probability, validated_pair


@dataclass(frozen=True)
class MmdEstimate:
    """An unbiased squared-MMD estimate with its sample counts.

    mmd2 is the raw U-statistic (negative values possible); mmd =
    sqrt(max(mmd2, 0)); m and n are the source and target sample counts
    that produced it.
    """

    mmd2: float
    mmd: float
    m: int
    n: int


@dataclass(frozen=True)
class CalibrationResult:
    """Permutation-calibrated credal radius at level alpha.

    epsilon_alpha is reported on the MMD scale (square root of the clamped
    (1 - alpha) order statistic of the permuted squared-MMD statistics).
    """

    epsilon_alpha: float
    p_value: float
    num_permutations: int
    alpha: float
    seed: int


def _block_sums(Xs: np.ndarray, Xt: np.ndarray, spec: KernelSpec, s_ss=None):
    """Sums of the three Gram blocks (ss, tt, st), full blocks incl. diagonals.

    s_ss, when given, is the source self-Gram sum float(np.sum(gram_matrix(
    Xs, None, spec))) computed by the caller; the source block is then not
    built again. The cross sum is gram_sum, the correctly rounded exact
    sum (equal to math.fsum), so the result does not depend on which sample
    was passed first; the cross block is summed as it is finished and never
    stored. The self sums s_ss and s_tt are np.sum. Identical inputs reuse
    the self-Gram sum so all three sums are the same float.
    """
    if s_ss is None:
        s_ss = float(np.sum(gram_matrix(Xs, None, spec)))
    if Xs.shape == Xt.shape and np.array_equal(Xs, Xt):
        return s_ss, s_ss, s_ss
    # k_tt is held over the cross sum so that its buffer and the cross
    # product's are freed side by side at the top of the heap. glibc hands
    # a free heap top back to the system only above its trim threshold,
    # which freeing the mmapped source Gram raised to twice that Gram's
    # size; one such buffer freed alone would stay resident into the next
    # command's peak.
    k_tt = gram_matrix(Xt, None, spec)
    s_st = gram_sum(Xs, Xt, spec)
    return s_ss, float(np.sum(k_tt)), s_st


def _u_statistic(m: int, n: int, s_ss, s_tt, s_st):
    """Unbiased squared MMD from the three full block sums; floats or arrays."""
    # self-Gram diagonals are exactly 1.0 each, so subtracting the count
    # removes them
    return (
        (s_ss - m) / (m * (m - 1))
        + (s_tt - n) / (n * (n - 1))
        - 2.0 * s_st / (m * n)
    )


def _unbiased_estimate(m: int, n: int, s_ss, s_tt, s_st) -> MmdEstimate:
    value = _u_statistic(m, n, s_ss, s_tt, s_st)
    return MmdEstimate(mmd2=value, mmd=math.sqrt(max(value, 0.0)), m=m, n=n)


def mmd2_unbiased(Xs, Xt, spec: KernelSpec) -> MmdEstimate:
    """U-statistic estimate of squared MMD between two samples.

    Parameters
    ----------
    Xs, Xt : array-like, shapes (m, d) and (n, d) with m, n >= 2
    spec : KernelSpec

    Returns
    -------
    MmdEstimate
        mmd2 = sum_{i != j} k(xs_i, xs_j)/(m(m-1))
             + sum_{i != j} k(xt_i, xt_j)/(n(n-1))
             - 2 sum_{i,j} k(xs_i, xt_j)/(mn).
        Its expectation over resampling equals the population squared MMD.
    """
    Xsa, Xta = validated_pair(Xs, Xt, min_count=2)
    return _unbiased_estimate(
        Xsa.shape[0], Xta.shape[0], *_block_sums(Xsa, Xta, spec)
    )


def mmd2_unbiased_from_source_sum(
    Xs, Xt, spec: KernelSpec, source_sum: float
) -> MmdEstimate:
    """mmd2_unbiased with the source self-Gram sum computed by the caller.

    source_sum must be float(np.sum(gram_matrix(Xs, None, spec))); the
    result is then mmd2_unbiased(Xs, Xt, spec) bit for bit, while only the
    target self-block and the cross block are built. A fixed source
    compared against many targets pays for its m x m block once.
    """
    Xsa, Xta = validated_pair(Xs, Xt, min_count=2)
    return _unbiased_estimate(
        Xsa.shape[0], Xta.shape[0], *_block_sums(Xsa, Xta, spec, source_sum)
    )


def concentration_width(m: int, n: int, alpha: float) -> float:
    """Distribution-free deviation width for the unbiased MMD estimate.

    Returns sqrt(2 * ln(2 / alpha) / min(m, n)): with probability at least
    1 - alpha the estimate is within this distance of the population MMD.
    """
    m = check_count(m, "m")
    n = check_count(n, "n")
    alpha = check_probability(alpha, "alpha")
    return math.sqrt(2.0 * math.log(2.0 / alpha) / min(m, n))


def mmd_upper_confidence(est: MmdEstimate, alpha: float) -> float:
    """Upper confidence limit est.mmd + concentration_width at level alpha."""
    return est.mmd + concentration_width(est.m, est.n, alpha)


# Rows per panel of the pooled Gram: a multiple of kernels._PAD, so every
# panel starts on a padded row. Up to this many pooled rows the one panel is
# the whole matrix.
_PANEL_ROWS = 1024


def _pooled_panels(pooled: np.ndarray, spec: KernelSpec):
    """Upper row panels of the pooled Gram, with its row sums and total.

    Panel I holds rows e:e+r of the pooled Gram from column e on, so its
    leading r x r block is the diagonal block K_II and the rest K_I,>I; the
    blocks below the diagonal are never built. Row sums add each panel's
    row sums and the column sums of its off-diagonal part, and the total
    adds 2 sum(panel_I) - sum(K_II) per panel. With one panel both are the
    full matrix's np.sum, bit for bit.
    """
    N = pooled.shape[0]
    starts = range(0, N, _PANEL_ROWS)
    sizes = [padded_entries(min(_PANEL_ROWS, N - e), N - e) for e in starts]
    # one allocation for all panels: freed whole, it goes back to the system
    # rather than staying in the heap as a few panel-sized holes
    buffer = np.empty(sum(sizes))
    bounds = np.cumsum([0] + sizes)
    panels = []
    row_sums = np.zeros(N)
    total = 0.0
    for e, lo, hi in zip(starts, bounds[:-1], bounds[1:]):
        panel = gram_matrix(
            pooled[e : e + _PANEL_ROWS], pooled[e:], spec, out=buffer[lo:hi]
        )
        np.fill_diagonal(panel, 1.0)
        r = panel.shape[0]
        row_sums[e : e + r] += np.sum(panel, axis=1)
        row_sums[e + r :] += np.sum(panel[:, r:], axis=0)
        total += 2.0 * float(np.sum(panel)) - float(np.sum(panel[:, :r]))
        panels.append(panel)
    return panels, row_sums, total


def _permutation_stats(
    panels: list[np.ndarray],
    row_sums: np.ndarray,
    total: float,
    m: int,
    n: int,
    z: np.ndarray,
) -> np.ndarray:
    # z: (m+n, b) 0/1 indicator columns marking the permuted source rows;
    # s_ss = sum_I z_I . (K_II z_I) + 2 sum_I z_I . (K_I,>I z_>I)
    diagonal = np.zeros(z.shape[1])
    off = np.zeros(z.shape[1])
    for panel in panels:
        r = panel.shape[0]
        e = z.shape[0] - panel.shape[1]
        z_i = z[e : e + r]
        diagonal += np.einsum("ij,ij->j", z_i, panel[:, :r] @ z_i)
        off += np.einsum("ij,ij->j", z_i, panel[:, r:] @ z[e + r :])
    s_ss = diagonal + 2.0 * off
    s_sall = row_sums @ z
    s_st = s_sall - s_ss
    s_tt = total - 2.0 * s_sall + s_ss
    return _u_statistic(m, n, s_ss, s_tt, s_st)


# permutations per batch of panel products
_PERMUTATION_BATCH = 256


def permutation_calibrate(
    Xs,
    Xt,
    spec: KernelSpec,
    num_permutations: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
    threads: int = 1,
) -> CalibrationResult:
    """Permutation-test calibration of the credal radius.

    Pools the two samples, recomputes the unbiased squared-MMD statistic
    under num_permutations random relabelings (split sizes fixed at m | n),
    and returns

    - epsilon_alpha: the (1 - alpha) order statistic of the permuted
      statistics, clamped at zero and mapped to the MMD scale;
    - p_value: (1 + #{permuted >= observed}) / (num_permutations + 1),
      never exactly zero.

    Each permutation is generated from its own child of SeedSequence(seed),
    so results are identical for any thread count. The pooled Gram is built
    once, as its upper row panels of _PANEL_ROWS rows from the diagonal on;
    each batch of 256 permutations costs one product with each panel's
    diagonal block and one with the part right of it, counted twice for the
    mirrored part below. With at most _PANEL_ROWS pooled rows the one panel
    is the whole matrix and the arithmetic is the dense product's.

    Parameters
    ----------
    Xs, Xt : array-like, shapes (m, d), (n, d), m, n >= 2
    spec : KernelSpec
    num_permutations : int, >= 100
    alpha : float in (0, 1)
    seed : int
    threads : int, optional
        Worker threads for the permutation batches.
    """
    Xsa, Xta = validated_pair(Xs, Xt, min_count=2)
    m, n = Xsa.shape[0], Xta.shape[0]
    num_permutations = check_count(num_permutations, "num_permutations", minimum=100)
    alpha = check_probability(alpha, "alpha")
    seed = check_count(seed, "seed", minimum=0)
    threads = check_count(threads, "threads")

    N = m + n
    panels, row_sums, total = _pooled_panels(np.vstack([Xsa, Xta]), spec)

    z0 = np.zeros((N, 1))
    z0[:m, 0] = 1.0
    observed = float(_permutation_stats(panels, row_sums, total, m, n, z0)[0])

    children = np.random.SeedSequence(seed).spawn(num_permutations)
    stats = np.empty(num_permutations)

    def indicators(start: int, stop: int) -> np.ndarray:
        z = np.zeros((N, stop - start))
        for j, b in enumerate(range(start, stop)):
            rng = np.random.Generator(np.random.PCG64(children[b]))
            z[rng.permutation(N)[:m], j] = 1.0
        return z

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, _PERMUTATION_BATCH):
            stop = min(start + _PERMUTATION_BATCH, hi)
            # the indicators are a temporary, freed before the next batch's
            # are built
            stats[start:stop] = _permutation_stats(
                panels, row_sums, total, m, n, indicators(start, stop)
            )

    if threads <= 1:
        fill(0, num_permutations)
    else:
        # split on the batch grid: the bits of a panel product depend on
        # the column count, so every batch must hold the same columns at
        # any thread count
        num_batches = -(-num_permutations // _PERMUTATION_BATCH)
        bounds = np.linspace(0, num_batches, threads + 1).astype(int)
        bounds = np.minimum(bounds * _PERMUTATION_BATCH, num_permutations)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(fill, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for f in futures:
                f.result()

    p_value = (1.0 + float(np.sum(stats >= observed))) / (num_permutations + 1.0)
    q = float(np.quantile(stats, 1.0 - alpha, method="higher"))
    return CalibrationResult(
        epsilon_alpha=math.sqrt(max(q, 0.0)),
        p_value=p_value,
        num_permutations=num_permutations,
        alpha=alpha,
        seed=seed,
    )
