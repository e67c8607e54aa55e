"""Mean-reversion parameter estimation from daily FX time series.

Ingests CSV in the daily-quote format used by the St. Louis Fed's download
files (header row, date and value columns, missing values encoded as ".").
Estimation matches the first two stationary moments and fits the
log-autocorrelation function by ordinary least squares through the origin:
slope = -kappa * SPACING_DT, the sample mean gives the level, and
sigma = sqrt(2 * kappa * sample variance).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TimeSeries", "OuEstimate", "CalibrationError",
           "ingest_csv", "estimate_ou"]

TRADING_DAYS_PER_YEAR = 252
# years between consecutive observations
SPACING_DT = 1.0 / TRADING_DAYS_PER_YEAR
# smallest autocorrelation the regression window admits; below it the logs are noise
RHO_FLOOR = 0.2


class CalibrationError(ValueError):
    """Unusable input series or degenerate estimation window."""


@dataclass
class TimeSeries:
    """Strictly increasing dates with one value each, SPACING_DT years apart."""

    dates: list
    values: np.ndarray
    n_dropped: int = 0

    def __post_init__(self):
        if len(self.dates) != len(self.values):
            raise CalibrationError("dates and values differ in length")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise CalibrationError("dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)


def ingest_csv(path) -> TimeSeries:
    """Read a two-column daily-quote CSV, dropping "." missing markers.

    Raises with the offending line number on malformed rows and if nothing
    usable remains.
    """
    dates, values = [], []
    dropped = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CalibrationError(f"{path}: empty file")
        if len(header) < 2:
            raise CalibrationError(f"{path}: expected at least two columns in the header")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise CalibrationError(f"{path}:{lineno}: malformed row {row!r}")
            raw = row[1].strip()
            if raw == ".":
                dropped += 1
                continue
            try:
                values.append(float(raw))
            except ValueError:
                raise CalibrationError(f"{path}:{lineno}: non-numeric value {raw!r}")
            dates.append(row[0].strip())
    if not values:
        raise CalibrationError(f"{path}: no usable observations")
    return TimeSeries(dates=dates, values=np.asarray(values, dtype=float), n_dropped=dropped)


@dataclass
class OuEstimate:
    kappa_bar: float
    mean_X: float
    sigma: float
    diagnostics: dict = field(default_factory=dict)


def _autocorrelations(x: np.ndarray, max_lag: int) -> np.ndarray:
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    return np.array([np.dot(xc[:-k], xc[k:]) / denom for k in range(1, max_lag + 1)])


def estimate_ou(series: TimeSeries, max_lag: int = 60) -> OuEstimate:
    """Estimate (kappa_bar, mean, sigma) by moment matching plus regression.

    The regression uses lags 1..K where K is the largest lag with all
    sample autocorrelations above RHO_FLOOR, capped at ``max_lag`` >= 1;
    below that the log-autocorrelations are noise-dominated.
    """
    if max_lag < 1:
        raise CalibrationError(f"max_lag must be at least 1, got {max_lag}")
    if len(series) < 100:
        raise CalibrationError("need at least 100 observations")
    x = series.values
    var = float(x.var())
    if var <= 0.0:
        raise CalibrationError("zero variance: constant series cannot be calibrated")
    rho = _autocorrelations(x, max_lag)
    k_stop = 0
    for k in range(max_lag):
        if rho[k] > RHO_FLOOR:
            k_stop = k + 1
        else:
            break
    if k_stop == 0:
        if rho[0] <= 0.0:
            raise CalibrationError("window too wide: nonpositive autocorrelation at lag 1")
        raise CalibrationError("no usable lags: autocorrelation below floor at lag 1")
    lags = np.arange(1, k_stop + 1, dtype=float)
    y = np.log(rho[:k_stop])
    slope = float(np.dot(lags, y) / np.dot(lags, lags))  # OLS through the origin
    kappa = -slope / SPACING_DT
    if kappa <= 0.0:
        raise CalibrationError("estimated mean-reversion speed is nonpositive")
    fitted = slope * lags
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum(y**2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    mean = float(x.mean())
    sigma = float(np.sqrt(2.0 * kappa * var))
    return OuEstimate(
        kappa_bar=kappa, mean_X=mean, sigma=sigma,
        diagnostics={
            "lags_used": int(k_stop),
            "max_lag": int(max_lag),
            "r_squared": r2,
            "sample_variance": var,
            "n_observations": len(series),
            "n_dropped": series.n_dropped,
            "spacing_dt": SPACING_DT,
        })
