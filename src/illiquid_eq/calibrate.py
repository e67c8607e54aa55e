"""Mean-reversion parameter estimation from daily FX time series.

Reads CSV in the daily-quote format used by the St. Louis Fed's download
files (header row, ISO date and value columns, missing values encoded as ".").
Estimation matches the first two stationary moments and fits the
log-autocorrelation function by ordinary least squares through the origin:
slope = -kappa * SPACING_DT, the sample mean gives the level, and
sigma = sqrt(2 * kappa * sample variance).
"""

from __future__ import annotations

import csv
from datetime import date

import numpy as np

__all__ = ["CalibrationError", "calibrate"]

TRADING_DAYS_PER_YEAR = 252
# years between consecutive observations
SPACING_DT = 1.0 / TRADING_DAYS_PER_YEAR
# the regression window: lags 1..K, K the largest lag up to MAX_LAG with every
# autocorrelation up to it above RHO_FLOOR (below it the logs are noise)
RHO_FLOOR = 0.2
MAX_LAG = 60


class CalibrationError(ValueError):
    """Unusable input series or degenerate estimation window."""


def _read(path) -> tuple:
    """(values, number of "." missing markers dropped) of a two-column daily-quote CSV.

    Raises with the line number on a malformed row, date or value, and if the
    dates, read as ISO dates, do not strictly increase or nothing usable remains.
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
            try:
                day = date.fromisoformat(row[0].strip())
            except ValueError:
                raise CalibrationError(f"{path}:{lineno}: date {row[0].strip()!r} is not an "
                                       f"ISO date (YYYY-MM-DD)") from None
            raw = row[1].strip()
            if raw == ".":
                dropped += 1
                continue
            try:
                values.append(float(raw))
            except ValueError:
                raise CalibrationError(f"{path}:{lineno}: non-numeric value {raw!r}")
            if not np.isfinite(values[-1]):
                raise CalibrationError(f"{path}:{lineno}: non-finite value {raw!r}")
            dates.append(day)
    if not values:
        raise CalibrationError(f"{path}: no usable observations")
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise CalibrationError("dates must be strictly increasing")
    return np.asarray(values, dtype=float), dropped


def calibrate(path) -> dict:
    """The OU fit of the series at ``path``, as ``calibration.json`` holds it.

    kappa_bar from the regression over the window of RHO_FLOOR and MAX_LAG,
    mean_X and sigma from the first two moments, with diagnostics and source.
    """
    x, dropped = _read(path)
    if len(x) < 100:
        raise CalibrationError("need at least 100 observations")
    with np.errstate(all="ignore"):  # finite values whose squares pass the float range
        var = float(x.var())
    if not np.isfinite(var):
        raise CalibrationError("sample variance is not finite: values too large")
    if var <= 0.0:
        raise CalibrationError("zero variance: constant series cannot be calibrated")
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    rho = np.array([np.dot(xc[:-k], xc[k:]) / denom for k in range(1, MAX_LAG + 1)])
    k_stop = 0
    while k_stop < MAX_LAG and rho[k_stop] > RHO_FLOOR:
        k_stop += 1
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
    return {
        "kappa_bar": kappa, "mean_X": mean, "sigma": sigma, "source": str(path),
        "diagnostics": {
            "lags_used": int(k_stop),
            "max_lag": MAX_LAG,
            "r_squared": r2,
            "sample_variance": var,
            "n_observations": len(x),
            "n_dropped": dropped,
            "spacing_dt": SPACING_DT,
        }}
