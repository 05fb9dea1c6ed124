"""Plateau extraction and exponential fits of stepped survival curves.

The survival probability of the driven lattice is flat between zone-edge
crossings; the plateau centers sit at t = n T_B, the cycle starts that
every evolve_lattice trace holds in rows 64 n.  Fitting ln P against t
over a late window gives the asymptotic rate gamma and the intercept
z = exp(ln P extrapolated to t = 0), the wave-function renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import DEFAULT_CUTOFF, LatticeParams
from .dynamics import MIN_SAMPLES_PER_CYCLE, band_projections
from .stepmodel import SurvivalSeries

DEFAULT_WINDOW_START = 6
DEFAULT_WINDOW_END = 14
MIN_CYCLES = 3


class TraceTooShortError(ValueError):
    """Trace does not cover enough Bloch cycles for plateau extraction."""


@dataclass(frozen=True)
class ExpFit:
    """Least-squares line in (t, ln P): z = e^intercept, gamma = -slope."""

    z: float
    gamma: float
    window: tuple[int, int]
    residual: float

    def to_json_dict(self) -> dict:
        return {"z": self.z, "gamma": self.gamma,
                "window": list(self.window), "residual": self.residual}


def default_window(n_plateaus: int) -> tuple[int, int]:
    """Cycles 6 through min(14, last); late enough to be asymptotic."""
    return (DEFAULT_WINDOW_START, min(DEFAULT_WINDOW_END, n_plateaus - 1))


def extract_plateaus(trace, params: LatticeParams | None = None, *,
                     band_cutoff: int = DEFAULT_CUTOFF) -> SurvivalSeries:
    """Plateau values from a solver trace; a SurvivalSeries is returned as it is.

    The plateaus of an evolve_lattice trace are its cycle starts, rows 64 n
    at t = n T_B (k = 0), projected onto the two lowest instantaneous bands
    in one band_projections call, the one the trace's P1 comes from.  Needs
    MIN_CYCLES whole cycles; rows 64 n not at n T_B of params (1e-12
    relative), as in a trace made at another force, raise ValueError.
    """
    if isinstance(trace, SurvivalSeries):
        return trace
    if params is None:
        raise ValueError("params required to extract plateaus from a solver trace")
    if np.ndim(trace.time) == 0 or len(trace) < 2:  # a snapshot has no sample axis
        raise TraceTooShortError("trace has fewer than 2 samples")
    starts = trace[::MIN_SAMPLES_PER_CYCLE]
    if len(starts) <= MIN_CYCLES:
        raise TraceTooShortError(
            f"trace covers {len(starts) - 1} whole Bloch cycles, need >= {MIN_CYCLES}")
    t_bloch = params.bloch_period
    centers = t_bloch * np.arange(len(starts))
    if not np.all(np.abs(starts.time - centers) <= 1e-12 * centers):
        raise ValueError(f"trace rows {MIN_SAMPLES_PER_CYCLE} n are not at n T_B of params "
                         f"(T_B = {t_bloch:.6g}): not this lattice's cycle starts")
    values = band_projections(starts, params, 2, band_cutoff)[:, 0]
    return SurvivalSeries(probabilities=values, t_bloch=t_bloch)


def fit_exponential(series: SurvivalSeries, window: tuple[int, int]) -> ExpFit:
    """Fit P_n ~ z exp(-gamma t) in log space over plateaus window[0]..window[1]."""
    lo, hi = int(window[0]), int(window[1])
    if lo < 0 or hi >= len(series) or hi < lo:
        raise ValueError(f"window {window} outside series of length {len(series)}")
    if hi - lo + 1 < 2:
        raise ValueError("at least 2 plateaus required for a fit")
    p = series.probabilities[lo:hi + 1]
    if np.any(p <= 0):
        raise ValueError("plateau values must be positive for a log-space fit")
    t = series.times[lo:hi + 1]
    logp = np.log(p)
    slope, intercept = np.polyfit(t, logp, 1)
    residual = float(np.max(np.abs(logp - (intercept + slope * t))))
    return ExpFit(z=float(np.exp(intercept)), gamma=float(-slope),
                  window=(lo, hi), residual=residual)


def compare_models(full: SurvivalSeries, eff: SurvivalSeries,
                   window: tuple[int, int] | None = None) -> tuple[np.ndarray, float]:
    """Per-plateau relative deviations |P_full - P_eff| / P_eff.

    Returns (deviations, max over the given window); the normalization
    makes the comparison asymmetric under swapping the inputs by exactly
    the ratio of the two series.
    """
    if len(full) != len(eff):
        raise ValueError(f"length mismatch: {len(full)} vs {len(eff)}")
    with np.errstate(divide="ignore", invalid="ignore"):
        devs = np.abs(full.probabilities - eff.probabilities) / eff.probabilities
    if window is None:
        lo, hi = 0, len(devs) - 1
    else:
        lo, hi = int(window[0]), int(window[1])
        if lo < 0 or hi >= len(devs) or hi < lo:
            raise ValueError(f"window {window} outside series of length {len(devs)}")
    return devs, float(np.max(devs[lo:hi + 1]))
