"""Cost accounting: counted quantities, model parameters, and pricing.

The paper's evaluation reports *seconds* per phase (Tables II-IV:
Optimization / Pre-Computing / Communication / Computation / Total), all
derived from counted quantities through two calibrated rates (Sec. III-B):

- ``alpha`` — tuples transmitted per second, measured by shuffling k
  random tuples;
- ``beta`` — partial bindings extended per second, measured by timing
  trie queries / reusing sampling statistics.

Our cluster is simulated, so we keep the same structure, split in two:
engines and the optimizer's cost model only *count* — a
:class:`CostLedger` is an append-only list of :class:`Moved` (tuples
shipped with one HCube implementation, plus fetched blocks) and
:class:`Work` (units at a named rate, shared by some workers, or a
per-worker dict priced as its makespan) records, each tagged with a
phase — and :func:`price` is the only place a :class:`CostModelParams`
rate is applied to turn them into model-seconds.  Parameters are pinned
by default (reproducible numbers); :mod:`repro.core.calibration` can
measure real rates of the running process instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from ..errors import ConfigError

__all__ = ["CostModelParams", "ShuffleStats", "CostBreakdown", "Moved",
           "Work", "price", "CostLedger"]

#: The four phases of the paper's Tables II-IV, in ``CostBreakdown`` order.
PHASES = ("optimization", "precompute", "communication", "computation")
#: HCube implementations; each ships tuples at its own alpha.
HCUBE_IMPLS = ("push", "pull", "merge")
#: Named work rates (beta): Leapfrog work, trie construction by
#: Push/Pull, trie merging by Merge, lookups on a pre-computed bag.
WORK_RATES = ("work", "trie_build", "trie_merge", "trie_lookup")


@dataclass(frozen=True)
class CostModelParams:
    """Rates converting counted work into model-seconds.

    The defaults encode the *relative* magnitudes the paper reports:
    tuple-at-a-time shuffling (Push) is about two orders of magnitude
    slower per tuple than block pulls (Fig. 9a); Merge ships pre-built
    tries that serialize better than tuple blocks and skips local trie
    construction (Fig. 9b).
    """

    #: Tuples per second for tuple-at-a-time (Push) shuffling.
    alpha_push: float = 5.0e4
    #: Tuples per second for block-based (Pull) shuffling.
    alpha_pull: float = 5.0e6
    #: Tuples per second for pre-built-trie (Merge) shuffling.
    alpha_merge: float = 1.0e7
    #: Fixed cost per fetched block (request latency), seconds.
    block_latency: float = 1.0e-3
    #: Leapfrog intersection work units per second, per worker.
    beta_work: float = 2.0e6
    #: Tuples per second when building a trie on a worker (Push/Pull).
    trie_build_rate: float = 1.0e6
    #: Tuples per second when merging pre-built block tries (Merge).
    trie_merge_rate: float = 1.0e7
    #: Trie lookups per second on a *pre-computed* bag relation (the
    #: optimizer's beta_i for pre-computed nodes).
    beta_trie_lookup: float = 1.0e6


@dataclass
class ShuffleStats:
    """What one shuffle moved."""

    tuple_copies: int = 0        # (tuple, destination) pairs
    blocks_fetched: int = 0
    bytes_copied: int = 0
    max_worker_tuples: int = 0   # heaviest destination (memory / skew)


@dataclass
class CostBreakdown:
    """Model-seconds per phase — one row of the paper's Tables II-IV."""

    optimization: float = 0.0
    precompute: float = 0.0
    communication: float = 0.0
    computation: float = 0.0

    @property
    def total(self) -> float:
        return (self.optimization + self.precompute
                + self.communication + self.computation)

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            optimization=self.optimization + other.optimization,
            precompute=self.precompute + other.precompute,
            communication=self.communication + other.communication,
            computation=self.computation + other.computation,
        )

    def as_row(self) -> dict[str, float]:
        return {
            "Optimization": self.optimization,
            "Pre-Computing": self.precompute,
            "Communication": self.communication,
            "Computation": self.computation,
            "Total": self.total,
        }


def _check(kind: str, value: str, allowed: tuple[str, ...]) -> None:
    if value not in allowed:
        raise ConfigError(f"unknown {kind} {value!r}; expected "
                          + "/".join(allowed))


@dataclass(frozen=True)
class Moved:
    """Tuples shipped with one HCube implementation, plus fetched blocks."""

    phase: str
    tuples: float
    impl: str
    blocks: int = 0

    def __post_init__(self) -> None:
        _check("phase", self.phase, PHASES)
        _check("HCube implementation", self.impl, HCUBE_IMPLS)


@dataclass(frozen=True)
class Work:
    """Work units at a named rate, spread evenly over ``workers`` — or a
    per-worker dict, priced as its makespan (the busiest worker)."""

    phase: str
    units: Union[float, Mapping[int, float]]
    rate: str = "work"
    workers: int = 1

    def __post_init__(self) -> None:
        _check("phase", self.phase, PHASES)
        _check("work rate", self.rate, WORK_RATES)


Charge = Union[Moved, Work]


def price(charges: Iterable[Charge], params: CostModelParams
          ) -> CostBreakdown:
    """Model-seconds per phase: tuples / alpha + blocks * latency for
    :class:`Moved`, units / (beta * workers) for :class:`Work`, summed
    per phase in record order.  The only reader of ``params``' rates."""
    alpha = {"push": params.alpha_push, "pull": params.alpha_pull,
             "merge": params.alpha_merge}
    beta = {"work": params.beta_work, "trie_build": params.trie_build_rate,
            "trie_merge": params.trie_merge_rate,
            "trie_lookup": params.beta_trie_lookup}
    seconds = dict.fromkeys(PHASES, 0.0)
    for c in charges:
        if isinstance(c, Moved):
            seconds[c.phase] += (c.tuples / alpha[c.impl]
                                 + c.blocks * params.block_latency)
        else:
            units = (max(c.units.values(), default=0.0)
                     if isinstance(c.units, Mapping) else c.units)
            seconds[c.phase] += units / (beta[c.rate] * c.workers)
    return CostBreakdown(**seconds)


@dataclass
class CostLedger:
    """Append-only record of the quantities one engine run counted."""

    params: CostModelParams = field(default_factory=CostModelParams)
    charges: list[Charge] = field(default_factory=list)

    def record(self, *charges: Charge) -> None:
        self.charges.extend(charges)

    @property
    def shuffled_tuples(self) -> int:
        """Tuples moved by the run's communication phase."""
        return sum(c.tuples for c in self.charges
                   if isinstance(c, Moved) and c.phase == "communication")

    def breakdown(self) -> CostBreakdown:
        return price(self.charges, self.params)
