"""Distribution fitting for workload metrics.

Wajahat et al. [27] (cited by the paper's load-intensity methodology)
model storage-trace inter-arrival times by fitting candidate parametric
distributions and ranking them by goodness of fit.  This module fits the
classic candidates — exponential, lognormal, Weibull, Pareto, and gamma —
to a positive sample and ranks them by the Kolmogorov-Smirnov statistic.

scipy is imported inside the functions that fit, not at module level:
``repro`` re-exports this module eagerly, and no CLI command fits, so a
module-level import would put scipy on every command's start-up path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from scipy.stats._distn_infrastructure import rv_continuous_frozen

__all__ = ["DistributionFit", "fit_distributions", "best_fit", "CANDIDATES"]

#: Candidate distributions: our name -> the ``scipy.stats`` attribute
#: (fit with location pinned at 0, which is the right convention for
#: inter-arrival times).
CANDIDATES: Dict[str, str] = {
    "exponential": "expon",
    "lognormal": "lognorm",
    "weibull": "weibull_min",
    "pareto": "pareto",
    "gamma": "gamma",
}


@dataclass(frozen=True)
class DistributionFit:
    """One fitted candidate with its goodness of fit."""

    name: str
    params: Tuple[float, ...]
    ks_statistic: float
    ks_pvalue: float

    def frozen(self) -> rv_continuous_frozen:
        """The fitted scipy distribution, ready for sampling/evaluation."""
        from scipy import stats as sstats

        return getattr(sstats, CANDIDATES[self.name])(*self.params)

    def quantile(self, q: float) -> float:
        return float(self.frozen().ppf(q))


def fit_distributions(
    samples: Sequence[float], candidates: Sequence[str] = tuple(CANDIDATES)
) -> List[DistributionFit]:
    """Fit each candidate and return fits sorted best-first by KS statistic.

    Samples must be strictly positive (inter-arrival times, update
    intervals).  Candidates that fail to converge are skipped.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if len(arr) < 8:
        raise ValueError("need at least 8 samples to fit")
    if np.any(arr <= 0):
        raise ValueError("samples must be strictly positive")
    unknown = set(candidates) - set(CANDIDATES)
    if unknown:
        raise ValueError(f"unknown candidates: {sorted(unknown)}")
    from scipy import stats as sstats

    fits: List[DistributionFit] = []
    for name in candidates:
        dist = getattr(sstats, CANDIDATES[name])
        try:
            params = dist.fit(arr, floc=0.0)
            ks = sstats.kstest(arr, dist.name, args=params)
        except Exception:  # pragma: no cover - scipy convergence corner
            continue
        if not np.isfinite(ks.statistic):
            continue
        fits.append(
            DistributionFit(
                name=name,
                params=tuple(float(p) for p in params),
                ks_statistic=float(ks.statistic),
                ks_pvalue=float(ks.pvalue),
            )
        )
    if not fits:
        raise RuntimeError("no candidate distribution could be fitted")
    fits.sort(key=lambda f: f.ks_statistic)
    return fits


def best_fit(samples: Sequence[float], candidates: Sequence[str] = tuple(CANDIDATES)) -> DistributionFit:
    """The candidate with the smallest KS statistic."""
    return fit_distributions(samples, candidates)[0]
