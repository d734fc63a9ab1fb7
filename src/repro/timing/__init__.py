"""Execution-time modelling for the Section 4.2 experiments."""

from repro.timing.eventsim import (
    BusEventSimulator,
    BusTimingParams,
    BusTimingResult,
    EventDrivenSimulator,
    EventTimingParams,
    EventTimingResult,
)
from repro.timing.prefetch import PrefetchingTimingSimulator
from repro.timing.sim import (
    TimingParams,
    TimingResult,
    TimingSimulator,
    percent_time_reduction,
)

__all__ = [
    "BusEventSimulator",
    "BusTimingParams",
    "BusTimingResult",
    "EventDrivenSimulator",
    "EventTimingParams",
    "EventTimingResult",
    "PrefetchingTimingSimulator",
    "TimingParams",
    "TimingResult",
    "TimingSimulator",
    "percent_time_reduction",
]
