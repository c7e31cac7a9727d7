"""Schedule constructions.

Two single-round-robin generators plus a round-duplication operator:

* :func:`circle_schedule` - the classic rotating-table ("circle") method for
  any number of teams.
* :func:`odd_optimal_schedule` - a slot-table construction for an odd number
  of teams that simultaneously maximizes the guaranteed rest time and keeps
  both difference indices at 1.  :func:`odd_slot_assignment` returns its
  table as plain rows, one tuple of team slots per round.
* :func:`duplicate_rounds` - turns a single round robin into an m-fold one by
  repeating each round block m times.
"""

from __future__ import annotations

from itertools import chain

from .model import Schedule, _check_count, _valid_schedule

_DUMMY = 0


def circle_schedule(n: int) -> Schedule:
    """Single round robin for ``n`` teams by the circle method.

    Teams sit in two rows: top row 1..n/2 left to right, bottom row n down to
    n/2+1, so the first round is (1,n), (2,n-1), ...  Each round's games are
    the aligned columns read left to right.  Between rounds the top-left seat
    stays fixed and every other team advances one seat counterclockwise:
    bottom-left up to the second top seat, along the top row, down at the
    right end, and back along the bottom row.

    For odd ``n`` a dummy occupies the fixed top-left seat with team n seated
    below it; the dummy's opponent sits out the round and the remaining
    columns are read left to right as before.  Every round has n // 2 games:
    even ``n`` plays n - 1 rounds, odd ``n`` plays n.
    """
    _check_count("n", n, 2)
    if n % 2 == 0:
        rounds, cols = n - 1, n // 2
        top = list(range(1, cols + 1))
        bottom = list(range(n, cols, -1))
    else:
        rounds, cols = n, (n + 1) // 2
        top = [_DUMMY] + list(range(1, cols))
        bottom = list(range(n, cols - 1, -1))

    games: list[tuple[int, int]] = []
    for round_no in range(rounds):
        for x, y in zip(top, bottom):
            if x != _DUMMY:
                games.append((x, y))
        if round_no < rounds - 1:
            top, bottom = [top[0], bottom[0]] + top[1:-1], bottom[1:] + [top[-1]]
    return Schedule(n, 1, games)


def _odd_slot(n: int, k: int, team: int, j: int) -> int:
    # Closed forms for the per-round slot of each team; slots are mod k+1.
    if team == n:
        return j // 2
    if team % 2 == 1:
        i = (team + 1) // 2
        if j <= 2 * i:
            return i
        return (i + (j - 2 * i)) % (k + 1)
    i = team // 2
    if j <= 2 * k + 3 - 2 * i:
        return (i + j - 1) % (k + 1)
    return (k + 1 - i) % (k + 1)


def odd_slot_assignment(n: int) -> tuple[tuple[int, ...], ...]:
    """Slot table realizing the optimal odd-``n`` construction.

    Returns one row per round: ``table[j-1][t-1]`` is the slot of team t in
    round j.  With k = (n-1)/2, slots run 0..k, and slot 0 is the team's bye.
    Over rounds j = 1..2k+1:

    * odd team 2i-1 holds slot i through round 2i, then advances one slot per
      round (mod k+1, passing through the bye slot 0);
    * even team 2i starts in slot i and advances one slot per round through
      round 2k+3-2i, then holds its slot for the remaining rounds;
    * team n sits in slot floor(j/2) in round j, so it has the round-1 bye.

    Every round seats one team in slot 0 and two in each of slots 1..k, and
    every team sits out exactly one round.
    """
    _check_count("n", n, 3)
    if n % 2 == 0:
        raise ValueError(f"need an odd team count, got {n}")
    k = (n - 1) // 2
    return tuple(
        tuple(_odd_slot(n, k, team, j) for team in range(1, n + 1))
        for j in range(1, 2 * k + 2)
    )


def odd_optimal_schedule(n: int) -> Schedule:
    """Materialize :func:`odd_slot_assignment` into a schedule.

    Round j contributes its games in slot order 1..k; each game is the pair
    of teams sharing that slot, emitted with the lower team first.
    """
    rows = odd_slot_assignment(n)  # checks n before k is computed from it
    k = (n - 1) // 2
    games: list[tuple[int, int]] = []
    for row in rows:
        by_slot: dict[int, list[int]] = {}
        for team, slot in enumerate(row, start=1):
            by_slot.setdefault(slot, []).append(team)
        # Teams join their slot in ascending order.
        for slot in range(1, k + 1):
            x, y = by_slot[slot]
            games.append((x, y))
    return Schedule(n, 1, games)


def duplicate_rounds(s: Schedule, factor: int) -> Schedule:
    """Repeat each round block ``factor`` times, giving multiplicity ``factor``.

    Requires a single round robin (m = 1).  Copies of the blocks of a valid
    round robin, as every :class:`Schedule` is, are valid: none is checked.

    For schedules in which no team plays twice within a round block (both
    generators in this module), the guaranteed rest time is unchanged by
    this expansion; when every team plays in every round (even team counts)
    the two difference indices are unchanged as well.  Byes stretch with the
    factor, so odd-team schedules come out with a larger rest difference
    index than they started with.
    """
    _check_count("duplication factor", factor, 1)
    if s.multiplicity != 1:
        raise ValueError(f"can only duplicate a single round robin, got m={s.multiplicity}")
    games, g = s.games, s.team_count // 2
    return _valid_schedule(s.team_count, factor, tuple(chain.from_iterable(
        games[start:start + g] * factor for start in range(0, len(games), g))))
