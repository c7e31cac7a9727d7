"""Asynchronous round-robin tournament scheduling toolkit.

Generates round-robin schedules (circle method for any team count, an
optimal construction for odd team counts), evaluates schedules against three
quality and fairness measures, and exhaustively searches the schedule space
at small team counts to confirm bounds and impossibility results.

The names below are imported from their modules on first use, so that
``import rrsched`` and each command-line run load only what they need.
"""

import sys

__version__ = "0.1.0"

# Exported name: the module that defines it.
_EXPORTS = {
    "CLAIM_NAMES": "claims",
    "ClaimReport": "claims",
    "verify_claim": "claims",
    "circle_schedule": "generators",
    "duplicate_rounds": "generators",
    "odd_optimal_schedule": "generators",
    "odd_slot_assignment": "generators",
    "MetricsReport": "metrics",
    "evaluate": "metrics",
    "report_to_json": "metrics",
    "ParseError": "model",
    "Schedule": "model",
    "ScheduleValidationError": "model",
    "load_schedule": "model",
    "parse_schedule": "model",
    "schedule_from_json": "model",
    "schedule_to_json": "model",
    "serialize_schedule": "model",
    "SearchConstraints": "search",
    "SearchOutcome": "search",
    "canonicalize": "search",
    "search": "search",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    def __setattr__(self, name, value):
        # Importing the submodule rrsched.search binds it here as "search",
        # the name the package exports the search() function under; keep
        # the function.
        if name == "search" and isinstance(value, type(sys)):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
