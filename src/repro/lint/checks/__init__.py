"""The shipped rule set, one module per invariant family.

``build_rules()`` is the engine's default factory; it returns fresh
instances because repo-level rules (lane parity) accumulate per-run
state.  Rule ids are stable and never reused: documentation, disable
comments, and baseline entries all refer to them.

File-local rules judge one :class:`~repro.lint.rules.FileContext` at a
time; the graph rules (DET001/FORK001/SHM001/PAR001) subclass
:class:`~repro.lint.graph.GraphRule` and are judged once against the
whole-run call graph after every file pass.
"""

from typing import List

from repro.lint.checks.crashcalls import CrashCallRule
from repro.lint.checks.exceptions import SwallowedExceptionRule
from repro.lint.checks.laneparity import StreamingLaneRule
from repro.lint.checks.lanesignature import LaneSignatureRule
from repro.lint.checks.rng import FreshGeneratorRule, LegacyRandomRule
from repro.lint.checks.seedtaint import SeedTaintRule
from repro.lint.checks.serialization import PayloadFieldRule
from repro.lint.checks.shmdiscipline import ShmDisciplineRule
from repro.lint.checks.spannames import SpanNameRule
from repro.lint.checks.timepurity import WallClockRule
from repro.lint.checks.workerpurity import WorkerPurityRule
from repro.lint.rules import Rule

#: Every shipped rule class, in rule-id order.
ALL_RULE_CLASSES = (
    SeedTaintRule,
    WorkerPurityRule,
    LegacyRandomRule,
    FreshGeneratorRule,
    WallClockRule,
    StreamingLaneRule,
    LaneSignatureRule,
    CrashCallRule,
    SwallowedExceptionRule,
    PayloadFieldRule,
    ShmDisciplineRule,
    SpanNameRule,
)


def build_rules() -> List[Rule]:
    """Fresh instances of every shipped rule."""
    return [rule_cls() for rule_cls in ALL_RULE_CLASSES]


__all__ = [
    "ALL_RULE_CLASSES",
    "CrashCallRule",
    "FreshGeneratorRule",
    "LaneSignatureRule",
    "LegacyRandomRule",
    "PayloadFieldRule",
    "SeedTaintRule",
    "ShmDisciplineRule",
    "SpanNameRule",
    "StreamingLaneRule",
    "SwallowedExceptionRule",
    "WallClockRule",
    "WorkerPurityRule",
    "build_rules",
]
