"""Two-photon driven qubit chains coupled to a bi-directional waveguide."""

from .hierarchy import (
    BLOCK_NAMES,
    ChainParams,
    DriveMode,
    HierarchyState,
    RhsEvaluator,
)
from .integrator import (
    Diagnostics,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    diagnostics,
    evolve,
    integrate,
    rk4_step,
)
from .observables import (
    PopulationRecord,
    concurrence_pair,
    max_concurrence,
    pair_concurrences,
    populations,
    spin_flip,
    survival_time,
)
from .pulse import GaussianPulse

__version__ = "0.1.0"

from .config import ConfigError, ExperimentConfig, apply_overrides, load_config, parse_config  # noqa: E402
from .presets import expand_preset, list_presets  # noqa: E402
from .runner import RunSummary, emit_csv, emit_summary_csv, run, run_many, summarize  # noqa: E402

__all__ = [
    "BLOCK_NAMES",
    "ChainParams",
    "ConfigError",
    "Diagnostics",
    "DriveMode",
    "ExperimentConfig",
    "GaussianPulse",
    "HierarchyState",
    "IntegrationError",
    "IntegratorConfig",
    "PopulationRecord",
    "RhsEvaluator",
    "RunSummary",
    "Trajectory",
    "apply_overrides",
    "emit_csv",
    "emit_summary_csv",
    "expand_preset",
    "list_presets",
    "load_config",
    "parse_config",
    "run",
    "run_many",
    "summarize",
    "concurrence_pair",
    "diagnostics",
    "evolve",
    "integrate",
    "max_concurrence",
    "pair_concurrences",
    "populations",
    "rk4_step",
    "spin_flip",
    "survival_time",
]
