"""Named verification claims tying generators, metrics, and search together.

Each claim re-derives one documented property of the constructions or of the
schedule space at a concrete team count: either by evaluating a generated
schedule, or by exhausting the (pruned) search space and showing emptiness.
Search-backed claims therefore only run at team counts the enumerator
accepts.
"""

from __future__ import annotations

from . import fixtures
from .generators import circle_schedule, duplicate_rounds, odd_optimal_schedule
from .metrics import evaluate
from .model import Schedule, _check_count, _Record, _set_field
from .search import SearchConstraints, search


class ClaimReport(_Record):
    """Outcome of one claim: ``nodes_explored`` is set for search-backed
    claims, ``witness`` to a counterexample when one was found."""

    __slots__ = ("claim", "teams", "passed", "details", "nodes_explored", "witness")

    def __init__(self, claim: str, teams: int | None, passed: bool, details: str,
                 nodes_explored: int | None = None, witness: Schedule | None = None):
        _set_field(self, "claim", claim)
        _set_field(self, "teams", teams)
        _set_field(self, "passed", passed)
        _set_field(self, "details", details)
        _set_field(self, "nodes_explored", nodes_explored)
        _set_field(self, "witness", witness)


def verify_claim(claim: str, teams: int | None = None) -> ClaimReport:
    """Run one named claim and report pass/fail with its evidence.

    Raises ValueError for unknown claims, for a team count given to a claim
    that takes none, and for team counts that are not an ``int`` (``bool``
    and ``float`` are rejected), of the wrong parity or below the claim's
    minimum.
    """
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known claims: {', '.join(CLAIM_NAMES)}")
    check, parity, smallest = _CLAIMS[claim]
    if teams is None:
        return check(claim, None if parity is None else smallest)
    if smallest is None:
        raise ValueError(f"claim {claim!r} does not take a team count")
    _check_count(f"claim {claim!r} team count", teams, smallest)
    if parity is not None and teams % 2 != parity:
        raise ValueError(f"claim {claim!r} needs an {('even', 'odd')[parity]} "
                         f"team count, got {teams}")
    return check(claim, teams)


def _metric_triple(report) -> tuple[int | None, int, int]:
    return (report.guaranteed_rest_time,
            report.games_played_difference_index,
            report.rest_difference_index)


def _empty_search_claim(claim: str, n: int, constraints: SearchConstraints,
                        description: str) -> ClaimReport:
    outcome = search(n, constraints, mode="first")
    if outcome.found is None:
        details = f"no schedule {description}; search exhausted"
    else:
        details = f"counterexample found: a schedule {description} exists"
    return ClaimReport(claim=claim, teams=n, passed=outcome.found is None, details=details,
                       nodes_explored=outcome.nodes_explored, witness=outcome.found)


def _even_rest_bound(claim: str, n: int) -> ClaimReport:
    k = n // 2
    return _empty_search_claim(
        claim, n, SearchConstraints(min_rest=k - 1),
        f"with rest time >= {k - 1} (claimed maximum is {k - 2})")


def _odd_rest_bound(claim: str, n: int) -> ClaimReport:
    k = (n - 1) // 2
    return _empty_search_claim(
        claim, n, SearchConstraints(min_rest=k),
        f"with rest time >= {k} (claimed maximum is {k - 1})")


def _even_impossibility(claim: str, n: int) -> ClaimReport:
    k = n // 2
    return _empty_search_claim(
        claim, n,
        SearchConstraints(min_rest=k - 2, max_gpd=1, max_rdi=1),
        f"with rest time {k - 2} and both difference indices 1")


def _expected_metrics_claim(claim: str, n: int, s: Schedule,
                            expected: tuple[int, int, int]) -> ClaimReport:
    got = _metric_triple(evaluate(s))
    return ClaimReport(claim=claim, teams=n, passed=got == expected,
                       details=f"expected (b, p, d) = {expected}, got {got}")


def _even_circle_metrics(claim: str, n: int) -> ClaimReport:
    k = n // 2
    expected = (k - 2, 1, 1 if n == 4 else 2)
    return _expected_metrics_claim(claim, n, circle_schedule(n), expected)


def _odd_circle_metrics(claim: str, n: int) -> ClaimReport:
    k = (n - 1) // 2
    return _expected_metrics_claim(claim, n, circle_schedule(n), (k - 2, 2, k + 1))


def _odd_optimal_metrics(claim: str, n: int) -> ClaimReport:
    k = (n - 1) // 2
    return _expected_metrics_claim(claim, n, odd_optimal_schedule(n), (k - 1, 1, 1))


def _max_rest_claim(claim: str, n: int, holds, failing: str) -> ClaimReport:
    """Enumerate every canonical odd-``n`` schedule of rest time k-1 and test ``holds``."""
    k = (n - 1) // 2
    outcome = search(n, SearchConstraints(min_rest=k - 1), mode="enumerate")
    bad = [s for s in outcome.schedules if not holds(evaluate(s))]
    details = (f"{len(outcome.schedules)} canonical schedule(s) with rest time {k - 1}; "
               f"{len(bad)} {failing}")
    return ClaimReport(claim=claim, teams=n, passed=bool(outcome.schedules) and not bad,
                       details=details, nodes_explored=outcome.nodes_explored,
                       witness=bad[0] if bad else None)


def _odd_rdi_lemma(claim: str, n: int) -> ClaimReport:
    return _max_rest_claim(claim, n, lambda r: r.rest_difference_index == 1,
                           "with rest difference index != 1")


def _always_win(claim: str, n: int) -> ClaimReport:
    return _max_rest_claim(claim, n, lambda r: bool(r.always_longer_rest_teams),
                           "without an always-better-rested team")


def _figure_fixtures(claim: str, teams: None) -> ClaimReport:
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


def _duplication_preserves(claim: str, teams: int | None) -> ClaimReport:
    # Duplication preserves the guaranteed rest time of the generated
    # schedules (no team plays twice within a round block in either family).
    # The two difference indices are additionally preserved when every team
    # plays in every round (even team counts); a bye stretches from k to
    # factor*k games under duplication while opponents still rest k-1, so
    # the rest difference index of a schedule with byes necessarily grows.
    # Each preservation statement is checked on its valid domain.
    if teams is None:
        cases = [(circle_schedule(n), True) for n in (4, 6, 8)]
        cases += [(odd_optimal_schedule(n), False) for n in (5, 7)]
    elif teams % 2 == 0:
        cases = [(circle_schedule(teams), True)]
    else:
        cases = [(odd_optimal_schedule(teams), False)]
    failures = []
    for base, every_round in cases:
        before = evaluate(base)
        for factor in (2, 3):
            after = evaluate(duplicate_rounds(base, factor))
            same = after.guaranteed_rest_time == before.guaranteed_rest_time
            if every_round:
                same = same and (after.rest_difference_index
                                 == before.rest_difference_index)
                same = same and (after.games_played_difference_index
                                 == before.games_played_difference_index)
            if not same:
                failures.append(f"n={base.team_count} x{factor}")
    if failures:
        details = f"changed for: {', '.join(failures)}"
    else:
        details = "rest time preserved under duplication"
        if any(every_round for _, every_round in cases):
            details += ("; both difference indices preserved on every-round (even) "
                        "schedules")
        if any(not every_round for _, every_round in cases):
            details += ("; byes stretch under duplication, so rest difference is "
                        "not preserved with odd team counts and is not asserted")
    return ClaimReport(claim=claim, teams=teams, passed=not failures,
                       details=details)


# name: (check, parity of the team count (0 even, 1 odd, None either),
# smallest team count (None: the claim takes no team count)).  A check is
# called as check(name, n), with n defaulting to the smallest count; for a
# parity of None it defaults to None, and the check picks its own cases.
_CLAIMS = {
    "even-rest-bound": (_even_rest_bound, 0, 4),
    "even-circle-metrics": (_even_circle_metrics, 0, 4),
    "even-impossibility": (_even_impossibility, 0, 6),
    "odd-rest-bound": (_odd_rest_bound, 1, 3),
    "odd-circle-metrics": (_odd_circle_metrics, 1, 5),
    "odd-optimal-metrics": (_odd_optimal_metrics, 1, 3),
    "odd-rdi-lemma": (_odd_rdi_lemma, 1, 3),
    "always-win": (_always_win, 1, 3),
    "figure-fixtures": (_figure_fixtures, None, None),
    "duplication-preserves": (_duplication_preserves, None, 3),
}

CLAIM_NAMES = tuple(_CLAIMS)
