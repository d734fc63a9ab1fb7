"""Exhaustive (finite-state) verification of the coherence protocols.

:mod:`repro.verification.model` / :mod:`repro.verification.checker` are
the bounded model checker behind ``repro-verify`` and the service
``verify`` endpoint: multi-block configs, eviction actions,
counterexample paths, and machine-checked certificates.  The structural
theorems over a single block (dead states, reachable directory states)
are checks on a combo's reachable set.
"""

from repro.verification.checker import (
    ComboResult,
    SweepResult,
    Violation,
    check_config,
    check_model,
    counterexample_case,
    sweep,
)
from repro.verification.model import (
    DIRECTORY_POLICIES,
    MODEL_CHECKABLE_INJECTIONS,
    SNOOP_PROTOCOLS,
    DirectoryModel,
    SnoopModel,
    VerificationError,
    VerifyConfig,
    build_model,
    verify_combos,
)

__all__ = [
    "ComboResult",
    "DIRECTORY_POLICIES",
    "DirectoryModel",
    "MODEL_CHECKABLE_INJECTIONS",
    "SNOOP_PROTOCOLS",
    "SnoopModel",
    "SweepResult",
    "VerificationError",
    "VerifyConfig",
    "Violation",
    "build_model",
    "check_config",
    "check_model",
    "counterexample_case",
    "sweep",
    "verify_combos",
]
