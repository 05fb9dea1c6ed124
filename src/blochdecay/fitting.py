"""Plateau extraction and exponential fits of stepped survival curves.

The survival probability of the driven lattice is flat between zone-edge
crossings; the plateau centers sit at t = n T_B.  Fitting ln P against t
over a late window gives the asymptotic rate gamma and the intercept
z = exp(ln P extrapolated to t = 0), the wave-function renormalization.
"""

from __future__ import annotations

import math
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

    For a HoustonState stack in time order, picks the sample nearest each
    t = n T_B (in an evolve_lattice trace, the sample at n T_B itself) and
    projects them all onto the two lowest instantaneous bands in one
    band_projections call, the one the trace's P1 comes from; requires at
    least MIN_CYCLES cycles of coverage with MIN_SAMPLES_PER_CYCLE samples
    per cycle.
    """
    if isinstance(trace, SurvivalSeries):
        return trace
    if params is None:
        raise ValueError("params required to extract plateaus from a solver trace")
    if len(trace) < 2:
        raise TraceTooShortError("trace has fewer than 2 samples")
    t_bloch = params.bloch_period
    times = trace.time
    t_max = float(times[-1])
    n_cycles = t_max / t_bloch
    if n_cycles < MIN_CYCLES - 1e-9:
        raise TraceTooShortError(
            f"trace covers {n_cycles:.2f} Bloch cycles, need >= {MIN_CYCLES}")
    per_cycle = (len(trace) - 1) / n_cycles
    if per_cycle < MIN_SAMPLES_PER_CYCLE - 1e-3:  # n_cycles may exceed an integer by roundoff
        raise TraceTooShortError(
            f"trace has {per_cycle:.1f} samples per cycle, need >= {MIN_SAMPLES_PER_CYCLE}")
    centers = t_bloch * np.arange(int(math.floor(n_cycles + 1e-9)) + 1)
    nearest = np.rint(np.interp(centers, times, np.arange(len(times)))).astype(int)
    values = band_projections(trace[nearest], params, 2, band_cutoff)[:, 0]
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
