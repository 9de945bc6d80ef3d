"""Statistics collection for simulation runs.

The simulator's estimates are only useful with honest error bars: this module
provides running tallies of transition firings (rates), time-weighted place
occupancy (mean queue lengths / utilizations) and a batch-means estimator
with Student-t confidence intervals for the steady-state firing rates —
which is what the validation experiments compare against the exact analytic
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass
class ConfidenceInterval:
    """A point estimate with a symmetric confidence interval."""

    estimate: float
    half_width: float
    confidence: float

    @property
    def low(self) -> float:
        """Lower bound."""
        return self.estimate - self.half_width

    @property
    def high(self) -> float:
        """Upper bound."""
        return self.estimate + self.half_width

    def contains(self, value: float) -> bool:
        """Whether a reference value lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.estimate:.6g} ± {self.half_width:.3g} ({self.confidence:.0%})"


class SimulationStatistics:
    """Tallies maintained by the simulation engine during a run."""

    def __init__(self, transition_names: Tuple[str, ...], place_names: Tuple[str, ...]):
        self.transition_names = tuple(transition_names)
        self.place_names = tuple(place_names)
        self.firing_counts: Dict[str, int] = {name: 0 for name in self.transition_names}
        self.firing_completions: Dict[str, int] = {name: 0 for name in self.transition_names}
        self.busy_time: Dict[str, float] = {name: 0.0 for name in self.transition_names}
        self.token_time: Dict[str, float] = {name: 0.0 for name in self.place_names}
        self.elapsed_time: float = 0.0

    # -- recording (called by the engine) --------------------------------

    def record_firing_start(self, transition_name: str) -> None:
        """Count a firing start."""
        self.firing_counts[transition_name] += 1

    def record_firing_completion(self, transition_name: str) -> None:
        """Count a firing completion."""
        self.firing_completions[transition_name] += 1

    def record_interval(self, duration: float, marking: Dict[str, int], firing: Dict[str, int]) -> None:
        """Accumulate a time interval during which marking/firing state was constant."""
        if duration <= 0:
            return
        self.elapsed_time += duration
        for place, tokens in marking.items():
            if tokens:
                self.token_time[place] += duration * tokens
        for transition, active in firing.items():
            if active:
                self.busy_time[transition] += duration

    # -- estimates ---------------------------------------------------------

    def firing_rate(self, transition_name: str) -> float:
        """Observed firings per unit time."""
        if self.elapsed_time == 0:
            return 0.0
        return self.firing_counts[transition_name] / self.elapsed_time

    def utilization(self, transition_name: str) -> float:
        """Observed fraction of time the transition was firing."""
        if self.elapsed_time == 0:
            return 0.0
        return self.busy_time[transition_name] / self.elapsed_time

    def mean_tokens(self, place_name: str) -> float:
        """Time-averaged token count of a place."""
        if self.elapsed_time == 0:
            return 0.0
        return self.token_time[place_name] / self.elapsed_time

    def summary(self) -> Dict[str, Dict[str, float]]:
        """All estimates in one nested dictionary (for reports / JSON dumps)."""
        return {
            "firing_rate": {name: self.firing_rate(name) for name in self.transition_names},
            "utilization": {name: self.utilization(name) for name in self.transition_names},
            "mean_tokens": {name: self.mean_tokens(name) for name in self.place_names},
        }


@dataclass
class BatchMeans:
    """Batch-means confidence intervals for a rate estimated from event counts.

    The observation period is divided into ``batch_count`` equal-length
    batches; the per-batch rates are treated as (approximately) independent
    samples, giving a Student-t interval for the long-run rate.  The warm-up
    fraction is discarded to reduce initialization bias.
    """

    batch_count: int = 20
    confidence: float = 0.95

    def interval(self, event_times: List[float], horizon: float, *, warmup_fraction: float = 0.1) -> ConfidenceInterval:
        """Confidence interval for the rate of a point process observed on [0, horizon]."""
        if horizon <= 0:
            return ConfidenceInterval(0.0, float("inf"), self.confidence)
        start = horizon * warmup_fraction
        useful = [t for t in event_times if t >= start]
        span = horizon - start
        if span <= 0 or self.batch_count < 2:
            rate = len(useful) / span if span > 0 else 0.0
            return ConfidenceInterval(rate, float("inf"), self.confidence)
        batch_length = span / self.batch_count
        counts = np.zeros(self.batch_count)
        for time in useful:
            index = min(int((time - start) / batch_length), self.batch_count - 1)
            counts[index] += 1
        rates = counts / batch_length
        estimate = float(np.mean(rates))
        if self.batch_count < 2 or np.allclose(rates, rates[0]):
            return ConfidenceInterval(estimate, 0.0, self.confidence)
        standard_error = float(np.std(rates, ddof=1) / np.sqrt(self.batch_count))
        from scipy import stats as scipy_stats  # local import: scipy is heavy

        t_value = float(scipy_stats.t.ppf(0.5 + self.confidence / 2.0, self.batch_count - 1))
        return ConfidenceInterval(estimate, t_value * standard_error, self.confidence)
