"""Independent brute-force evaluator used to cross-check the metrics module.

Every function here recomputes its measure from the raw definition by
rescanning the whole game list - no shared helpers with the package, no
incremental state - so agreement with the production evaluator is meaningful.
"""

from __future__ import annotations

from rrsched import Schedule


def _games(s: Schedule) -> list[tuple[int, int]]:
    return [(a, b) for a, b in s.games]


def brute_guaranteed_rest_time(s: Schedule) -> int | None:
    """Min over all teams and ALL pairs of their games of the separating count."""
    games = _games(s)
    best = None
    for team in range(1, s.team_count + 1):
        appearances = [i for i, g in enumerate(games, start=1) if team in g]
        for ui in range(len(appearances)):
            for vi in range(ui + 1, len(appearances)):
                u, v = appearances[ui], appearances[vi]
                separating = sum(1 for w in range(u + 1, v) if team not in games[w - 1])
                if best is None or separating < best:
                    best = separating
    return best


def brute_games_played_difference_index(s: Schedule) -> int:
    games = _games(s)
    worst = 0
    for prefix_len in range(1, len(games) + 1):
        counts = []
        for team in range(1, s.team_count + 1):
            counts.append(sum(1 for g in games[:prefix_len] if team in g))
        worst = max(worst, max(counts) - min(counts))
    return worst


def _rest_before(games: list[tuple[int, int]], index: int, team: int) -> int:
    """Games since the team's previous game, with the shared pre-schedule game at 0."""
    for w in range(index - 1, 0, -1):
        if team in games[w - 1]:
            return index - w - 1
    return index - 1


def brute_rest_difference_index(s: Schedule) -> int:
    games = _games(s)
    worst = 0
    for index, (a, b) in enumerate(games, start=1):
        worst = max(worst, abs(_rest_before(games, index, a) - _rest_before(games, index, b)))
    return worst


def brute_always_longer_rest_teams(s: Schedule) -> set[int]:
    games = _games(s)
    winners = set()
    for team in range(1, s.team_count + 1):
        appearances = [i for i, g in enumerate(games, start=1) if team in g]
        if len(appearances) < 2:
            continue
        opponents_rested_less = True
        for index in appearances[1:]:
            a, b = games[index - 1]
            opponent = b if a == team else a
            if _rest_before(games, index, team) <= _rest_before(games, index, opponent):
                opponents_rested_less = False
                break
        if opponents_rested_less:
            winners.add(team)
    return winners
