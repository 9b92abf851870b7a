"""Combined power-constrained synthesis: engine, exploration."""

from .result import (
    PowerInfeasibleSynthesisError,
    SynthesisError,
    SynthesisResult,
    TimingInfeasibleError,
)
from .engine import EngineOptions, PowerConstrainedSynthesizer, synthesize
from .explore import (
    SweepPoint,
    SweepResult,
    default_power_grid,
    minimum_feasible_power,
    power_area_sweep,
    synthesize_point,
)

__all__ = [
    "PowerInfeasibleSynthesisError",
    "SynthesisError",
    "SynthesisResult",
    "TimingInfeasibleError",
    "EngineOptions",
    "PowerConstrainedSynthesizer",
    "synthesize",
    "SweepPoint",
    "SweepResult",
    "default_power_grid",
    "minimum_feasible_power",
    "power_area_sweep",
    "synthesize_point",
]
