"""Named verification claims tying generators, metrics, and search together.

Each claim re-derives one documented property of the constructions or of the
schedule space at a concrete team count: either by evaluating a generated
schedule, or by exhausting the (pruned) search space and showing emptiness.
Each claim is one row of ``_CLAIMS``; the search-backed ones stop at 8 teams,
the enumerator's default ceiling.
"""

from __future__ import annotations

from . import fixtures
from .generators import circle_schedule, duplicate_rounds, odd_optimal_schedule
from .metrics import evaluate
from .model import Schedule, _check_count, _Record
from .search import DEFAULT_TEAM_CEILING, SearchConstraints, search


class ClaimReport(_Record):
    """Outcome of one claim: ``nodes_explored`` is set for search-backed
    claims, ``witness`` to a counterexample when one was found."""

    __slots__ = ("claim", "teams", "passed", "details", "nodes_explored", "witness")

    def __new__(cls, claim: str, teams: int | None, passed: bool, details: str,
                nodes_explored: int | None = None, witness: Schedule | None = None):
        return cls._build(claim, teams, passed, details, nodes_explored, witness)


def verify_claim(claim: str, teams: int | None = None) -> ClaimReport:
    """Run one named claim and report pass/fail with its evidence.

    Raises ValueError for unknown claims, for a team count given to a claim
    that takes none, for team counts that are not an ``int`` (``bool`` and
    ``float`` are rejected), of the wrong parity or below the claim's
    minimum, and for a search-backed claim above 8 teams.
    """
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known claims: {', '.join(CLAIM_NAMES)}")
    parity, smallest, check = _CLAIMS[claim]
    if teams is not None:
        if smallest is None:
            raise ValueError(f"claim {claim!r} does not take a team count")
        _check_count(f"claim {claim!r} team count", teams, smallest)
        if parity is not None and teams % 2 != parity:
            raise ValueError(f"claim {claim!r} needs an {('even', 'odd')[parity]} "
                             f"team count, got {teams}")
    elif parity is not None:
        teams = smallest
    return check(claim, teams, None if teams is None else teams // 2)


def _metric_triple(report) -> tuple[int | None, int, int]:
    return (report.guaranteed_rest_time,
            report.games_played_difference_index,
            report.rest_difference_index)


def _search(claim: str, n: int, constraints: SearchConstraints, mode: str):
    # verify has no allow_large, so the search's ceiling is worded as the claim's.
    if n > DEFAULT_TEAM_CEILING:
        raise ValueError(f"claim {claim!r} team count must be <= {DEFAULT_TEAM_CEILING}, "
                         f"got {n}")
    return search(n, constraints, mode=mode)


def _empty_search_claim(claim: str, n: int, constraints: SearchConstraints,
                        description: str) -> ClaimReport:
    outcome = _search(claim, n, constraints, "first")
    if outcome.found is None:
        details = f"no schedule {description}; search exhausted"
    else:
        details = f"counterexample found: a schedule {description} exists"
    return ClaimReport(claim=claim, teams=n, passed=outcome.found is None, details=details,
                       nodes_explored=outcome.nodes_explored, witness=outcome.found)


def _expected_metrics_claim(claim: str, n: int, s: Schedule,
                            expected: tuple[int, int, int]) -> ClaimReport:
    got = _metric_triple(evaluate(s))
    return ClaimReport(claim=claim, teams=n, passed=got == expected,
                       details=f"expected (b, p, d) = {expected}, got {got}")


def _max_rest_claim(claim: str, n: int, k: int, holds, failing: str) -> ClaimReport:
    """Enumerate every canonical odd-``n`` schedule of rest time k-1 and test ``holds``."""
    outcome = _search(claim, n, SearchConstraints(min_rest=k - 1), "enumerate")
    bad = [s for s in outcome.schedules if not holds(evaluate(s))]
    details = (f"{len(outcome.schedules)} canonical schedule(s) with rest time {k - 1}; "
               f"{len(bad)} {failing}")
    return ClaimReport(claim=claim, teams=n, passed=bool(outcome.schedules) and not bad,
                       details=details, nodes_explored=outcome.nodes_explored,
                       witness=bad[0] if bad else None)


def _figure_fixtures(claim: str, teams: None, k: None) -> ClaimReport:
    checks = [
        ("10-team circle, rounds 1-3",
         list(circle_schedule(10).games[:15]), fixtures.TEN_TEAM_CIRCLE_OPENING),
        ("11-team circle, rounds 1-3",
         list(circle_schedule(11).games[:15]), fixtures.ELEVEN_TEAM_CIRCLE_OPENING),
        ("5-team optimal schedule",
         list(odd_optimal_schedule(5).games), fixtures.FIVE_TEAM_OPTIMAL),
        ("7-team optimal schedule",
         list(odd_optimal_schedule(7).games), fixtures.SEVEN_TEAM_OPTIMAL),
    ]
    mismatches = [label for label, got, want in checks if got != want]
    details = ("all reference fixtures reproduced exactly" if not mismatches
               else f"mismatch in: {', '.join(mismatches)}")
    return ClaimReport(claim=claim, teams=None, passed=not mismatches,
                       details=details)


def _duplication_preserves(claim: str, teams: int | None, k: int | None) -> ClaimReport:
    # Duplication preserves the guaranteed rest time of the generated
    # schedules (no team plays twice within a round block in either family).
    # The two difference indices are additionally preserved when every team
    # plays in every round (even team counts); a bye stretches from k to
    # factor*k games under duplication while opponents still rest k-1, so
    # the rest difference index of a schedule with byes necessarily grows.
    # Each preservation statement is checked on its valid domain: all of
    # (b, p, d) for even n, b alone for odd n.
    counts = (4, 6, 8, 5, 7) if teams is None else (teams,)
    failures = []
    for n in counts:
        base = circle_schedule(n) if n % 2 == 0 else odd_optimal_schedule(n)
        kept = 3 if n % 2 == 0 else 1
        before = _metric_triple(evaluate(base))[:kept]
        for factor in (2, 3):
            if _metric_triple(evaluate(duplicate_rounds(base, factor)))[:kept] != before:
                failures.append(f"n={n} x{factor}")
    if failures:
        details = f"changed for: {', '.join(failures)}"
    else:
        details = "rest time preserved under duplication"
        if any(n % 2 == 0 for n in counts):
            details += "; both difference indices preserved on every-round (even) schedules"
        if any(n % 2 for n in counts):
            details += ("; byes stretch under duplication, so rest difference is "
                        "not preserved with odd team counts and is not asserted")
    return ClaimReport(claim=claim, teams=teams, passed=not failures,
                       details=details)


# name: (parity of the team count (0 even, 1 odd, None either), smallest team
# count (None: no team count), check).  check(name, n, k) gets k = n // 2, which
# is (n - 1) // 2 for odd n; n defaults to the smallest count, or to None (k too)
# for a parity of None, and the check then picks its own cases.
_CLAIMS = {
    "even-rest-bound": (0, 4, lambda claim, n, k: _empty_search_claim(
        claim, n, SearchConstraints(min_rest=k - 1),
        f"with rest time >= {k - 1} (claimed maximum is {k - 2})")),
    "even-circle-metrics": (0, 4, lambda claim, n, k: _expected_metrics_claim(
        claim, n, circle_schedule(n), (k - 2, 1, 1 if n == 4 else 2))),
    "even-impossibility": (0, 6, lambda claim, n, k: _empty_search_claim(
        claim, n, SearchConstraints(min_rest=k - 2, max_gpd=1, max_rdi=1),
        f"with rest time {k - 2} and both difference indices 1")),
    "odd-rest-bound": (1, 3, lambda claim, n, k: _empty_search_claim(
        claim, n, SearchConstraints(min_rest=k),
        f"with rest time >= {k} (claimed maximum is {k - 1})")),
    "odd-circle-metrics": (1, 5, lambda claim, n, k: _expected_metrics_claim(
        claim, n, circle_schedule(n), (k - 2, 2, k + 1))),
    "odd-optimal-metrics": (1, 3, lambda claim, n, k: _expected_metrics_claim(
        claim, n, odd_optimal_schedule(n), (k - 1, 1, 1))),
    "odd-rdi-lemma": (1, 3, lambda claim, n, k: _max_rest_claim(
        claim, n, k, lambda r: r.rest_difference_index == 1,
        "with rest difference index != 1")),
    "always-win": (1, 3, lambda claim, n, k: _max_rest_claim(
        claim, n, k, lambda r: bool(r.always_longer_rest_teams),
        "without an always-better-rested team")),
    "figure-fixtures": (None, None, _figure_fixtures),
    "duplication-preserves": (None, 3, _duplication_preserves),
}

CLAIM_NAMES = tuple(_CLAIMS)
