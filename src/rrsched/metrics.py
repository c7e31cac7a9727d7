"""Schedule quality and fairness measures.

Three per-schedule numbers plus per-team diagnostics:

* guaranteed rest time b: the largest b such that any two games of the same
  team are separated by at least b games not involving it;
* games-played difference index p: the largest spread, after any completed
  game, between the number of games any two teams have played;
* rest difference index d: the largest gap, over all games, between the two
  participants' rests since their previous games.  Debuts are anchored to a
  virtual game one position before the schedule starts, shared by all teams.

:func:`evaluate` computes all of them in one pass over the games.  It keeps
each team's latest position, which gives the team's rest before each game
and the rest difference as the gap between the two latest positions, and a
histogram of games played: the maximum count rises with the team that
reaches it, and the minimum rises only when the last team at it plays, so
the games-played spread costs O(1) per game.  It is the one way to read a
measure: each is a field of the :class:`MetricsReport` it returns.
"""

from __future__ import annotations

import reprlib

from .model import ParseError, Schedule, _load_json, _Record, _set_field


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
    profiles: list[list[int]] = [[] for _ in range(n + 1)]
    # outrested[t]: in some game after its first, t rested no longer than its opponent.
    outrested = [False] * (n + 1)
    counts = [0] * (n + 1)
    hist = [0] * (s.multiplicity * (n - 1) + 2)  # hist[c]: teams that have played c games
    hist[0] = n
    low = high = spread = rdi = 0
    for idx, (a, b) in enumerate(s.games, start=1):
        last_a = last[a]
        last_b = last[b]
        # Rests before this game are idx - last - 1, so they differ by last_a - last_b.
        if last_a:
            profiles[a].append(idx - last_a - 1)
            if last_b <= last_a:
                outrested[a] = True
        if last_b:
            profiles[b].append(idx - last_b - 1)
            if last_a <= last_b:
                outrested[b] = True
        gap = last_a - last_b if last_a > last_b else last_b - last_a
        if gap > rdi:
            rdi = gap
        last[a] = last[b] = idx

        count_a = counts[a]
        count_b = counts[b]
        counts[a] = count_a + 1
        counts[b] = count_b + 1
        hist[count_a] -= 1
        hist[count_a + 1] += 1
        hist[count_b] -= 1
        hist[count_b + 1] += 1
        if count_a == high or count_b == high:
            high += 1
        # Counts rise by one per game, so the minimum rises only when its last team leaves it.
        if not hist[low]:
            low += 1
        if high - low > spread:
            spread = high - low

    rests = [min(profile) for profile in profiles if profile]
    return MetricsReport(
        team_count=n,
        multiplicity=s.multiplicity,
        guaranteed_rest_time=min(rests) if rests else None,
        games_played_difference_index=spread,
        rest_difference_index=rdi,
        rest_profiles={t: tuple(profiles[t]) for t in s.teams},
        always_longer_rest_teams=frozenset(
            t for t in s.teams if profiles[t] and not outrested[t]),
    )


def report_to_json(report: MetricsReport, indent: int | None = None) -> str:
    """Structured form of a report; round-trips through :func:`report_from_json`."""
    import json  # only the structured format loads the json modules

    doc = {
        "n": report.team_count,
        "m": report.multiplicity,
        "guaranteed_rest_time": report.guaranteed_rest_time,
        "games_played_difference_index": report.games_played_difference_index,
        "rest_difference_index": report.rest_difference_index,
        "always_longer_rest_teams": sorted(report.always_longer_rest_teams),
        "rest_profiles": {str(t): list(p) for t, p in sorted(report.rest_profiles.items())},
    }
    return json.dumps(doc, indent=indent) + "\n"


_REPORT_FIELDS = ("n", "m", "guaranteed_rest_time", "games_played_difference_index",
                  "rest_difference_index", "always_longer_rest_teams", "rest_profiles")


def report_from_json(data: str | bytes) -> MetricsReport:
    """Parse the structured form of :func:`report_to_json`.

    ``n``, ``m`` and the two difference indices must be JSON integers,
    ``guaranteed_rest_time`` an integer or null, each rest profile and the
    team list arrays of integers, and each profile key an unsigned ASCII
    decimal team number.  The values must also be in range: n >= 2, m >= 1,
    one profile for each team 1..n, every rest and measure >= 0, and the
    teams in ``always_longer_rest_teams`` distinct and within 1..n.
    Anything else raises :class:`ParseError`.
    """
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise ParseError("metrics report must be a JSON object")
    for name in _REPORT_FIELDS:
        if name not in doc:
            raise ParseError(f"malformed metrics report: missing field {name!r}")
    for name in ("n", "m", "games_played_difference_index", "rest_difference_index"):
        _check_int(doc[name], name)
    if doc["guaranteed_rest_time"] is not None:
        _check_int(doc["guaranteed_rest_time"], "guaranteed_rest_time")
    teams = _check_int_list(doc["always_longer_rest_teams"], "always_longer_rest_teams")
    n = doc["n"]
    if n < 2 or doc["m"] < 1:
        raise ParseError(f"malformed metrics report: need n >= 2 and m >= 1, "
                         f"got n={n}, m={doc['m']}")
    for name in ("guaranteed_rest_time", "games_played_difference_index",
                 "rest_difference_index"):
        if doc[name] is not None and doc[name] < 0:
            raise ParseError(f"malformed metrics report: {name} must be >= 0, "
                             f"got {doc[name]}")
    if len(set(teams)) != len(teams) or any(not 1 <= t <= n for t in teams):
        raise ParseError(f"malformed metrics report: always_longer_rest_teams must be "
                         f"distinct teams within 1..{n}, got {reprlib.repr(teams)}")
    if not isinstance(doc["rest_profiles"], dict):
        raise ParseError("malformed metrics report: 'rest_profiles' must be an object")
    profiles: dict[int, tuple[int, ...]] = {}
    for key, profile in doc["rest_profiles"].items():
        # int() alone would also read "1_0" as 10 and non-ASCII digits.
        if not (key.isdigit() and key.isascii()):
            raise ParseError(f"malformed metrics report: team key {reprlib.repr(key)}")
        try:
            team = int(key)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError("malformed metrics report: team key too long") from None
        if team in profiles:  # "1" and "01"
            raise ParseError(f"malformed metrics report: two profiles for team {key}")
        profile = _check_int_list(profile, f"rest profile of team {key}")
        if any(rest < 0 for rest in profile):
            raise ParseError(f"malformed metrics report: negative rest in the profile "
                             f"of team {key}")
        profiles[team] = tuple(profile)
    # n distinct teams within 1..n are exactly 1..n.
    if len(profiles) != n or any(not 1 <= t <= n for t in profiles):
        raise ParseError(f"malformed metrics report: rest profiles must be keyed by "
                         f"the teams 1..{n}, got {reprlib.repr(sorted(profiles))}")
    return MetricsReport(
        team_count=n,
        multiplicity=doc["m"],
        guaranteed_rest_time=doc["guaranteed_rest_time"],
        games_played_difference_index=doc["games_played_difference_index"],
        rest_difference_index=doc["rest_difference_index"],
        rest_profiles=profiles,
        always_longer_rest_teams=frozenset(teams),
    )


def _check_int(value, name: str) -> None:
    # type() rather than isinstance(), as in make_schedule: JSON true is not 1.
    if type(value) is not int:
        raise ParseError(f"malformed metrics report: {name} must be an integer, "
                         f"got {reprlib.repr(value)}")


def _check_int_list(value, name: str) -> list[int]:
    if type(value) is not list or any(type(item) is not int for item in value):
        raise ParseError(f"malformed metrics report: {name} must be an array of "
                         f"integers, got {reprlib.repr(value)}")
    return value
