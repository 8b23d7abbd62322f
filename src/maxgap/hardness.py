"""Ground-truth hardness parameters and predicted sample-complexity sums.

For arm ``a`` and another arm ``j`` above it, write ``d = mu_j - mu_a``.  A
helper arm at distance d rules out a's right gap quickly when d is large
enough to detect (cost ~ 1/d^2) yet leaves enough room below the largest gap
(cost ~ 1/(delta_max - d)^2), so the adaptive hardness takes the best helper:

    gamma_r(a) = max over {j : 0 < d < delta_max} of min(d, delta_max - d)

with the empty maximum read as infinity (edge arms), and symmetrically for
the left side; gamma(a) = min of the two sides.  The naive sort-first
baseline cannot pick its helper, paying the worst one:

    naive_gamma_r(a) = min over the same domain of min(d, delta_max - d).

The refined elimination parameter rho additionally carries explicit 1/4 and
1/8 factors and a boundary term against the extreme mean:

    rho_r(a) = max( max over {j : d > 0} of min(d/4, (delta_max - d)/8),
                    (delta_max - (mu_top - mu_a)) / 8 )

again with the inner empty maximum read as infinity, and mirrored on the left
against the bottom mean.  rho predicts elimination's per-arm counts; gamma's
edge convention (no boundary term) rates second-from-edge arms as hard,
although elimination drops them with the easiest class.  The two arms
flanking the largest gap are exempt from all three parameters and carry an
infinity sentinel so the per-arm vectors stay index-aligned; sums skip
infinite entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Instance

__all__ = [
    "HardnessReport",
    "gamma",
    "rho",
    "naive_gamma",
    "predicted_complexity",
    "hardness_report",
]


@dataclass(frozen=True)
class HardnessReport:
    """Per-arm hardness vectors plus predicted complexity sums.

    Side-specific vectors are raw formula values; the combined ``gamma``,
    ``rho``, and ``naive_gamma`` carry the infinity sentinel at the two arms
    flanking the largest gap.
    """

    gamma_right: np.ndarray
    gamma_left: np.ndarray
    gamma: np.ndarray
    rho_right: np.ndarray
    rho_left: np.ndarray
    rho: np.ndarray
    naive_gamma: np.ndarray
    h_main: float
    h_elim: float
    h_ucb: float
    delta: float
    alpha: float


def _optimal_pair(instance: Instance) -> tuple[int, int]:
    m = instance.split_rank
    return int(instance.sorted_order[m - 1]), int(instance.sorted_order[m])


def _side_values(instance: Instance, right: bool):
    """Pairwise positive distances per arm: d[a, :] lists mu_j - mu_a for arms
    above a (right side) or mu_a - mu_j for arms below (left side); non-domain
    entries are NaN."""
    mu = instance.means
    d = mu[None, :] - mu[:, None] if right else mu[:, None] - mu[None, :]
    d = d.astype(float)
    d[d <= 0.0] = np.nan
    np.fill_diagonal(d, np.nan)
    return d


def _max_or_inf(values: np.ndarray) -> np.ndarray:
    """Row-wise max ignoring NaN; empty rows become +inf (edge convention)."""
    empty = np.all(np.isnan(values), axis=1)
    filled = np.where(np.isnan(values), -np.inf, values)
    return np.where(empty, np.inf, filled.max(axis=1))


def _apply_sentinel(v: np.ndarray, instance: Instance) -> np.ndarray:
    out = v.copy()
    a, b = _optimal_pair(instance)
    out[[a, b]] = np.inf
    return out


def _helper_hardness(instance: Instance) -> tuple[np.ndarray, ...]:
    """One pass per side over min(d, delta_max - d) on 0 < d < delta_max:
    (gamma_r, gamma_l, gamma, naive_gamma), the best and the worst helper."""
    dmax = instance.delta_max
    best, worst = [], []
    for right in (True, False):
        d = _side_values(instance, right)
        d[d >= dmax] = np.nan  # domain is 0 < d < delta_max
        vals = np.minimum(d, dmax - d)
        best.append(_max_or_inf(vals))
        worst.append(np.where(np.isnan(vals), np.inf, vals).min(axis=1))  # empty: inf
    g_r, g_l = best
    g = _apply_sentinel(np.minimum(g_r, g_l), instance)
    return g_r, g_l, g, _apply_sentinel(np.minimum(*worst), instance)


def gamma(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(right, left, combined) adaptive hardness per arm."""
    return _helper_hardness(instance)[:3]


def naive_gamma(instance: Instance) -> np.ndarray:
    """Combined naive hardness per arm (worst helper on each side)."""
    return _helper_hardness(instance)[3]


def rho(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(right, left, combined) refined elimination hardness per arm."""
    mu = instance.means
    dmax = instance.delta_max
    top = float(instance.sorted_means[0])
    bottom = float(instance.sorted_means[-1])
    out = []
    for right in (True, False):
        d = _side_values(instance, right)  # all positive distances, no dmax cut
        inner = _max_or_inf(np.minimum(d / 4.0, (dmax - d) / 8.0))
        boundary = (dmax - ((top - mu) if right else (mu - bottom))) / 8.0
        out.append(np.maximum(inner, boundary))
    r_r, r_l = out
    return r_r, r_l, _apply_sentinel(np.minimum(r_r, r_l), instance)


def _complexity_sum(values: np.ndarray, n_arms: int, delta: float) -> float:
    finite = np.isfinite(values)
    if np.any(values[finite] <= 0.0):
        raise ValueError(
            "nonpositive hardness value for a non-flanking arm; "
            "instance is degenerate for this parameter"
        )
    v = values[finite]
    return float(np.sum(np.log(n_arms / (delta * v)) / (v * v)))


def predicted_complexity(
    gamma_combined: np.ndarray,
    rho_combined: np.ndarray,
    n_arms: int,
    delta: float,
    alpha: float = 1.0,
) -> tuple[float, float, float]:
    """(main, elimination, ucb) predicted sample-complexity sums.

    main = alpha * sum log(K/(delta*gamma_a)) / gamma_a^2 over finite gamma;
    elimination uses rho in place of gamma; ucb carries an extra factor 6.
    Infinite entries contribute zero; a nonpositive finite entry signals a
    degenerate instance and raises.
    """
    h_main = alpha * _complexity_sum(np.asarray(gamma_combined, float), n_arms, delta)
    h_elim = alpha * _complexity_sum(np.asarray(rho_combined, float), n_arms, delta)
    return h_main, h_elim, 6.0 * h_main


def hardness_report(instance: Instance, delta: float, alpha: float = 1.0) -> HardnessReport:
    """Evaluate every hardness parameter and complexity sum for an instance."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    g_r, g_l, g, ng = _helper_hardness(instance)
    r_r, r_l, r = rho(instance)
    h_main, h_elim, h_ucb = predicted_complexity(g, r, instance.n_arms, delta, alpha)
    return HardnessReport(
        gamma_right=g_r,
        gamma_left=g_l,
        gamma=g,
        rho_right=r_r,
        rho_left=r_l,
        rho=r,
        naive_gamma=ng,
        h_main=h_main,
        h_elim=h_elim,
        h_ucb=h_ucb,
        delta=delta,
        alpha=alpha,
    )
