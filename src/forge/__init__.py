"""Staged population-based evolution of prompt-injected agent memory,
evaluated on a built-in seedable cyber-defense simulator."""

from .memory import (
    ArtifactKind,
    Clause,
    InstanceMemory,
    MemoryArtifact,
    Origin,
    Representation,
    Role,
)
from .protocol import (
    Condition,
    FinalReport,
    ProtocolConfig,
    RunResult,
    evaluate_zero_shot,
    load_config,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactKind",
    "Clause",
    "Condition",
    "FinalReport",
    "InstanceMemory",
    "MemoryArtifact",
    "Origin",
    "ProtocolConfig",
    "Representation",
    "Role",
    "RunResult",
    "evaluate_zero_shot",
    "load_config",
    "run_protocol",
    "__version__",
]
