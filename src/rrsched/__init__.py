"""Asynchronous round-robin tournament scheduling toolkit.

Generates round-robin schedules (circle method for any team count, an
optimal construction for odd team counts), evaluates schedules against three
quality and fairness measures, and exhaustively searches the schedule space
at small team counts to confirm bounds and impossibility results.
"""

from .claims import CLAIM_NAMES, ClaimReport, verify_claim
from .generators import (
    circle_schedule,
    duplicate_rounds,
    odd_optimal_schedule,
    odd_slot_assignment,
)
from .metrics import (
    MetricsReport,
    evaluate,
    report_from_json,
    report_to_json,
)
from .model import (
    ParseError,
    RoundStructure,
    Schedule,
    ScheduleValidationError,
    load_schedule,
    make_schedule,
    parse_schedule,
    round_structure,
    schedule_from_json,
    schedule_to_json,
    serialize_schedule,
)
from .search import SearchConstraints, SearchOutcome, canonicalize, search

__version__ = "0.1.0"

__all__ = [
    "CLAIM_NAMES",
    "ClaimReport",
    "MetricsReport",
    "ParseError",
    "RoundStructure",
    "Schedule",
    "ScheduleValidationError",
    "SearchConstraints",
    "SearchOutcome",
    "canonicalize",
    "circle_schedule",
    "duplicate_rounds",
    "evaluate",
    "load_schedule",
    "make_schedule",
    "odd_optimal_schedule",
    "odd_slot_assignment",
    "parse_schedule",
    "report_from_json",
    "report_to_json",
    "round_structure",
    "schedule_from_json",
    "schedule_to_json",
    "search",
    "serialize_schedule",
    "verify_claim",
]
