"""Scaling analysis over KAP measurements.

The paper argues about *asymptotics* — `kvs_put` flat, unique fences
linear, redundant fences "short of logarithmic", consumer latency
linear when G grows with C.  This module turns those words into
numbers: log-log power-law fits over sweep rows, so the claims become
testable exponents (flat ≈ 0, linear ≈ 1).

Works directly on the row dicts produced by
:func:`repro.kap.sweep.run_sweep` (or anything shaped like them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = ["PowerLawFit", "fit_power_law", "scaling_exponents",
           "classify_scaling"]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y = c * x^k`` in log-log space."""

    exponent: float   # k
    prefactor: float  # c
    r2: float         # goodness of fit in log space

    def predict(self, x: float) -> float:
        """Model value at ``x``."""
        return self.prefactor * x ** self.exponent


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = c * x^k`` through the points (all values must be > 0).

    With fewer than two distinct x values the fit is degenerate and a
    ``ValueError`` is raised.
    """
    import numpy as np
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (x, y) points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive values")
    if np.unique(x).size < 2:
        raise ValueError("need at least two distinct x values")
    lx, ly = np.log(x), np.log(y)
    k, logc = np.polyfit(lx, ly, 1)
    pred = k * lx + logc
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=float(k), prefactor=float(np.exp(logc)),
                       r2=r2)


def classify_scaling(exponent: float, *, flat_below: float = 0.2,
                     linear_above: float = 0.8) -> str:
    """Name an exponent: ``flat`` (k < 0.2), ``linear`` (k > 0.8),
    else ``sublinear`` — the vocabulary of the paper's Section V-B."""
    if exponent < flat_below:
        return "flat"
    if exponent > linear_above:
        return "linear"
    return "sublinear"


def scaling_exponents(rows: Iterable[dict], *, x_field: str,
                      y_field: str,
                      group_by: Optional[Callable[[dict], Any]] = None
                      ) -> dict[Any, PowerLawFit]:
    """Fit one power law per group of sweep rows.

    ``group_by`` maps a row to its series key (e.g.
    ``lambda r: (r["value_size"], r["redundant"])`` reproduces the
    Figure 3 plot families); ``None`` fits everything as one series.
    """
    buckets: dict[Any, list[tuple[float, float]]] = {}
    for row in rows:
        key = group_by(row) if group_by is not None else "all"
        buckets.setdefault(key, []).append(
            (float(row[x_field]), float(row[y_field])))
    out = {}
    for key, points in buckets.items():
        xs, ys = zip(*sorted(points))
        out[key] = fit_power_law(xs, ys)
    return out
