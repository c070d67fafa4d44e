"""Cardinality estimation via distributed sampling (Sec. IV).

The estimator writes |T| = |val(A)| * E[|T_{A=a}|] where ``A`` is the
first attribute of the order, ``val(A)`` is the intersection of the
A-projections of all atoms containing A, and the |T_{A=a}| of all
sampled values come from one Leapfrog run whose root frontier is the
sample (:func:`repro.wcoj.leapfrog.leapfrog_sample_counts`), never a
join per value; its work is bounded by the sample size ``k``, not by a
per-sample budget, and reported as ``SampleEstimate.work``.  Lemma 2
(Chernoff-Hoeffding) bounds the error: with
``k = ceil(0.5 * p**-2 * ln(2/delta))`` samples, the estimate of the mean
deviates by more than ``p * b`` with probability at most ``delta``.

The paper's cost-reduction trick — shuffle the A-projections first to
compute val(A), then semijoin-reduce the database by the chosen sample
before the (much smaller) shuffle — is charged by ``ADJ._optimize`` (the
projection exchange); the reduction itself is a ``select_in`` on the
sampled values wherever the sampling task's inputs are cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data.database import Database
from ..errors import EstimationError
from ..query.query import JoinQuery
from ..wcoj.leapfrog import leapfrog_sample_counts

__all__ = ["required_samples", "SampleEstimate", "CardinalityEstimator"]


def required_samples(error: float, confidence_delta: float) -> int:
    """Lemma 2's sample count: k = ceil(0.5 * p^-2 * ln(2/delta)).

    With k samples, Pr[|mean estimate - mu| > error * b] < delta, where b
    bounds the per-sample value.
    """
    if not 0 < error <= 1:
        raise EstimationError(f"error rate must be in (0, 1], got {error}")
    if not 0 < confidence_delta < 1:
        raise EstimationError(
            f"confidence delta must be in (0, 1), got {confidence_delta}")
    return math.ceil(0.5 * error ** -2 * math.log(2.0 / confidence_delta))


@dataclass
class SampleEstimate:
    """One cardinality estimate plus the statistics the optimizer reuses."""

    estimate: float
    num_samples: int
    val_size: int                       # |val(A)|
    sample_mean: float                  # mean |T_{A=a}|
    sample_max: int                     # b in Lemma 2
    exact: bool                         # full enumeration of val(A)?
    attribute: str
    work: int                           # Leapfrog work spent sampling
    level_tuples: tuple[float, ...] = ()     # scaled E[|T_i|] per depth
    level_work: tuple[float, ...] = ()       # scaled work per depth
    level_extensions: tuple[float, ...] = ()

    def error_bound(self, confidence_delta: float = 0.05) -> float:
        """Half-width of the Lemma-2 bound on |T| at the given confidence."""
        if self.exact or self.num_samples == 0:
            return 0.0
        p = math.sqrt(0.5 * math.log(2.0 / confidence_delta)
                      / self.num_samples)
        return p * self.sample_max * self.val_size


class CardinalityEstimator:
    """Sampling-based estimator over a (local) database.

    Estimates are cached by (atom tuple, order), because the ADJ
    optimizer asks for the same sub-queries repeatedly (Lemma 1's L
    factor is dominated by exactly these calls).
    """

    def __init__(self, db: Database, num_samples: int = 500,
                 seed: int = 0):
        if num_samples < 1:
            raise EstimationError("need at least one sample")
        self.db = db
        self.num_samples = num_samples
        self.seed = seed
        self.total_work = 0
        self.calls = 0
        self._cache: dict[tuple, SampleEstimate] = {}

    # -- public API -----------------------------------------------------------

    def estimate(self, query: JoinQuery,
                 order: tuple[str, ...] | None = None,
                 num_samples: int | None = None) -> SampleEstimate:
        order = tuple(order) if order is not None else query.attributes
        k_req = num_samples if num_samples is not None else self.num_samples
        key = (query.atoms, order, k_req)
        if key in self._cache:
            return self._cache[key]
        est = self._estimate_uncached(query, order, k_req)
        self._cache[key] = est
        self.calls += 1
        self.total_work += est.work
        return est

    # -- internals ------------------------------------------------------------

    def _values_of(self, query: JoinQuery, attr: str) -> np.ndarray:
        """val(A): intersection of the A-projections of atoms containing A."""
        arrays = []
        for atom in query.atoms_with(attr):
            rel = self.db[atom.relation]
            col = atom.attributes.index(attr)
            arrays.append(np.unique(rel.data[:, col]))
        arrays.sort(key=len)
        vals = arrays[0]
        for other in arrays[1:]:
            vals = vals[np.isin(vals, other, assume_unique=True)]
        return vals

    def _estimate_uncached(self, query: JoinQuery, order: tuple[str, ...],
                           k_req: int) -> SampleEstimate:
        attr = order[0]
        n = len(order)
        if n == 1:
            vals = self._values_of(query, attr)
            return SampleEstimate(
                estimate=float(vals.shape[0]), num_samples=0,
                val_size=int(vals.shape[0]), sample_mean=1.0, sample_max=1,
                exact=True, attribute=attr, work=int(vals.shape[0]),
                level_tuples=(float(vals.shape[0]),),
                level_work=(float(vals.shape[0]),),
                level_extensions=(1.0,))
        vals = self._values_of(query, attr)
        val_size = int(vals.shape[0])
        if val_size == 0:
            return SampleEstimate(
                estimate=0.0, num_samples=0, val_size=0, sample_mean=0.0,
                sample_max=0, exact=True, attribute=attr, work=0,
                level_tuples=tuple(0.0 for _ in range(n)),
                level_work=tuple(0.0 for _ in range(n)),
                level_extensions=tuple(0.0 for _ in range(n)))
        rng = np.random.default_rng(self.seed)
        exact = k_req >= val_size
        if exact:
            chosen = vals
        else:
            chosen = rng.choice(vals, size=k_req, replace=True)
        counts, stats = leapfrog_sample_counts(query, self.db, order, chosen)
        k = int(chosen.shape[0])
        mean = float(counts.mean())
        scale = val_size / k
        return SampleEstimate(
            estimate=mean * val_size,
            num_samples=k,
            val_size=val_size,
            sample_mean=mean,
            sample_max=int(counts.max()),
            exact=exact,
            attribute=attr,
            work=stats.intersection_work,
            level_tuples=tuple(float(t) * scale
                               for t in stats.level_tuples),
            level_work=tuple(float(w) * scale for w in stats.level_work),
            level_extensions=tuple(float(e) * scale
                                   for e in stats.level_extensions),
        )

