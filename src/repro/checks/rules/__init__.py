"""The built-in rule pack.

Importing this package registers every rule; the driver then asks the
registry (:func:`repro.checks.registry.all_rules`) rather than importing
rule classes directly, so a new rule module only needs to be added to the
import list below.
"""

from __future__ import annotations

from .rc001_randomness import UnseededRandomnessRule
from .rc002_wallclock import WallClockRule
from .rc003_ordering import UnorderedMergeIterationRule
from .rc005_swallow import SwallowedExceptionRule
from .rc006_exports import ExportsRule
from .rc008_envhandoff import EnvHandoffRule
from .rc009_metrics import MetricContractRule

__all__ = [
    "EnvHandoffRule",
    "ExportsRule",
    "MetricContractRule",
    "SwallowedExceptionRule",
    "UnorderedMergeIterationRule",
    "UnseededRandomnessRule",
    "WallClockRule",
]
