"""Schedule quality and fairness measures.

Three per-schedule numbers plus per-team diagnostics:

* guaranteed rest time b: the largest b such that any two games of the same
  team are separated by at least b games not involving it;
* games-played difference index p: the largest spread, after any completed
  game, between the number of games any two teams have played;
* rest difference index d: the largest gap, over all games, between the two
  participants' rests since their previous games.  Debuts are anchored to a
  virtual game one position before the schedule starts, shared by all teams.

:func:`evaluate` computes all of them in one pass over the games.  The pass
keeps what depends on the order of games: each team's latest position,
which gives the rest difference as the gap between the two latest
positions, and the list of each team's positions.  The rest profiles are
the gaps between consecutive positions, and the games-played spread is read
from two columns: the earliest and the latest (j+1)-th position over all
teams (the derivation is in ``notes/decisions.md``).  It is the one way to
read a measure: each is a field of the :class:`MetricsReport` it returns.
"""

from __future__ import annotations

from .model import Schedule, _Record, _set_field


class MetricsReport(_Record):
    """Bundled measures for one schedule.

    ``guaranteed_rest_time`` is None when no team plays twice (that happens
    only for a single game between two teams); both difference indices are at
    least 1 whenever there are three or more teams.  ``rest_profiles[t]``
    lists the rests between team t's consecutive games, v - u - 1 for each
    adjacent pair of positions.  ``always_longer_rest_teams`` holds the teams
    strictly better rested than the opponent in every game after their first,
    under the same debut convention as the rest difference index; a team
    with no game after its first (possible only with two teams) is not one.
    """

    __slots__ = ("team_count", "multiplicity", "guaranteed_rest_time",
                 "games_played_difference_index", "rest_difference_index",
                 "rest_profiles", "always_longer_rest_teams")

    def __init__(self, team_count: int, multiplicity: int,
                 guaranteed_rest_time: int | None, games_played_difference_index: int,
                 rest_difference_index: int, rest_profiles: dict[int, tuple[int, ...]],
                 always_longer_rest_teams: frozenset[int]):
        _set_field(self, "team_count", team_count)
        _set_field(self, "multiplicity", multiplicity)
        _set_field(self, "guaranteed_rest_time", guaranteed_rest_time)
        _set_field(self, "games_played_difference_index", games_played_difference_index)
        _set_field(self, "rest_difference_index", rest_difference_index)
        _set_field(self, "rest_profiles", rest_profiles)
        _set_field(self, "always_longer_rest_teams", always_longer_rest_teams)


def evaluate(s: Schedule) -> MetricsReport:
    """Compute every measure for the schedule in one pass over its games."""
    n = s.team_count
    last = [0] * (n + 1)  # position of each team's latest game; 0 is the virtual debut game
    positions: list[list[int]] = [[] for _ in range(n + 1)]
    # outrested[t]: in some game after its first, t rested no longer than its opponent.
    outrested = [False] * (n + 1)
    rdi = 0
    for idx, (a, b) in enumerate(s.games, start=1):
        last_a = last[a]
        last_b = last[b]
        # Rests before this game are idx - last - 1, so they differ by last_a - last_b,
        # and the team that played later rested less.
        if last_a > last_b:
            outrested[a] = True
            if last_a - last_b > rdi:
                rdi = last_a - last_b
        elif last_b > last_a:
            outrested[b] = True
            if last_b - last_a > rdi:
                rdi = last_b - last_a
        elif last_a:  # the two met in the latest game of each: equal rests
            outrested[a] = outrested[b] = True
        last[a] = last[b] = idx
        positions[a].append(idx)
        positions[b].append(idx)
    del positions[0]

    profiles = [tuple([v - u - 1 for u, v in zip(p, p[1:])]) for p in positions]
    # Every team plays m(n - 1) games.  Column j holds each team's (j+1)-th
    # position: its minimum is when the most games played first reaches j+1,
    # and its maximum when the fewest does.  The spread peaks just as the
    # maximum rises, so p is the largest j + 1 - #{i : latest[i] <= first_j};
    # both columns ascend, and the count is one walk along latest.
    columns = list(zip(*positions))
    latest = list(map(max, columns))
    spread = behind = 0
    for played, first in enumerate(map(min, columns), start=1):
        # latest[i] >= first_i > first once i >= played, so behind stops there.
        while behind < played and latest[behind] <= first:
            behind += 1
        if played - behind > spread:
            spread = played - behind

    rests = [min(profile) for profile in profiles if profile]
    return MetricsReport(
        team_count=n,
        multiplicity=s.multiplicity,
        guaranteed_rest_time=min(rests) if rests else None,
        games_played_difference_index=spread,
        rest_difference_index=rdi,
        rest_profiles=dict(zip(s.teams, profiles)),
        always_longer_rest_teams=frozenset(
            t for t, profile in zip(s.teams, profiles) if profile and not outrested[t]),
    )


def report_to_json(report: MetricsReport, indent: int | None = None) -> str:
    """Structured form of a report: a JSON object that holds ``rest_profiles``
    as stored, with teams in ascending order in every report from :func:`evaluate`."""
    import json  # only the structured format loads the json modules

    doc = {
        "n": report.team_count,
        "m": report.multiplicity,
        "guaranteed_rest_time": report.guaranteed_rest_time,
        "games_played_difference_index": report.games_played_difference_index,
        "rest_difference_index": report.rest_difference_index,
        "always_longer_rest_teams": sorted(report.always_longer_rest_teams),
        # json writes the int keys as strings and the tuples as arrays.
        "rest_profiles": report.rest_profiles,
    }
    # The document holds only the package's own dicts, lists and tuples: no cycle.
    return json.dumps(doc, indent=indent, check_circular=False) + "\n"
