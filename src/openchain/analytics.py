"""Closed-form benchmarks and growth-law fits.

The strong-dissipation plateau of the trajectory entanglement has the closed
form (gamma = gamma_plus = gamma_minus, E the Euler-Mascheroni constant)

    S = J^2 / (16 gamma^2 ln 2) * [2(E - 1) + ln(16 gamma^2 / J^2)]
        + J^2 / (32 gamma^2)

where the first term comes from two-spin blocks averaged over the exponential
jump-time law and the second from rare entangling jumps in four-spin blocks.
"""

from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

__all__ = [
    "two_spin_entropy", "plateau_terms", "PlateauTerms",
    "jump_time_pdf", "FitResult", "fit_power_law", "fit_log_growth",
]

EULER_MASCHERONI = float(np.euler_gamma)


def _xlog2x(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = x[mask] * np.log2(x[mask])
    return out if out.ndim else float(out)


def two_spin_entropy(t, j=1.0):
    """Entanglement of two exchange-coupled spins started in up-down (bits)."""
    c2 = np.cos(0.5 * t * j) ** 2
    s2 = np.sin(0.5 * t * j) ** 2
    return -(_xlog2x(c2) + _xlog2x(s2))


class PlateauTerms(NamedTuple):
    two_site: float
    four_spin: float
    total: float


def plateau_terms(gamma, j=1.0) -> PlateauTerms:
    """Two-site term, four-spin correction and their sum."""
    if gamma <= 0:
        raise ValueError(f"plateau estimate needs gamma > 0, got {gamma}")
    g2 = gamma * gamma
    j2 = j * j
    two_site = j2 / (16.0 * g2 * np.log(2.0)) * (
        2.0 * (EULER_MASCHERONI - 1.0) + np.log(16.0 * g2 / j2))
    four_spin = j2 / (32.0 * g2)
    return PlateauTerms(two_site=float(two_site), four_spin=float(four_spin),
                        total=float(two_site + four_spin))


def jump_time_pdf(t, n_sites, gamma):
    """Exponential inter-jump density N*gamma*exp(-N*gamma*t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("jump-time density is defined for t >= 0")
    rate = n_sites * gamma
    out = rate * np.exp(-rate * t)
    return out if out.ndim else float(out)


@dataclass
class FitResult:
    slope: float          # power-law exponent, or log2 slope
    amplitude: float      # power-law prefactor, or the additive offset
    window: tuple
    residual: float       # rms residual in the fit space
    kind: str = "power"

    def to_dict(self):
        d = asdict(self)
        d["window"] = list(self.window)
        return d


def _window_points(times, values, window, min_points=8):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_min, t_max = window
    if not (t_min < t_max):
        raise ValueError(f"empty fit window {window}")
    mask = (times > t_min) & (times < t_max)
    if mask.sum() < min_points:
        raise ValueError(f"fit window {window} holds only {int(mask.sum())} "
                         f"points, need at least {min_points}")
    return times[mask], values[mask]


def fit_power_law(times, values, window) -> FitResult:
    """Least squares of log S vs log t: S = amplitude * t**slope."""
    t, s = _window_points(times, values, window)
    if np.any(s <= 0.0):
        raise ValueError("power-law fit needs positive values in the window")
    coef = np.polyfit(np.log(t), np.log(s), 1)
    resid = np.log(s) - np.polyval(coef, np.log(t))
    return FitResult(slope=float(coef[0]), amplitude=float(np.exp(coef[1])),
                     window=(float(window[0]), float(window[1])),
                     residual=float(np.sqrt(np.mean(resid ** 2))), kind="power")


def fit_log_growth(times, values, window) -> FitResult:
    """Least squares of S vs log2 t: S = slope * log2(t) + amplitude."""
    t, s = _window_points(times, values, window)
    coef = np.polyfit(np.log2(t), s, 1)
    resid = s - np.polyval(coef, np.log2(t))
    return FitResult(slope=float(coef[0]), amplitude=float(coef[1]),
                     window=(float(window[0]), float(window[1])),
                     residual=float(np.sqrt(np.mean(resid ** 2))), kind="log")
