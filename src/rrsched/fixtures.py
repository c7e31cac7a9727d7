"""Known-good reference schedules used by the ``figure-fixtures`` claim and tests.

Each fixture is the exact oriented game sequence for its construction; the
``verify`` command compares regenerated schedules against these offline.
"""

from __future__ import annotations

# circle_schedule(10), rounds 1-3.
TEN_TEAM_CIRCLE_OPENING: list[tuple[int, int]] = [
    (1, 10), (2, 9), (3, 8), (4, 7), (5, 6),
    (1, 9), (10, 8), (2, 7), (3, 6), (4, 5),
    (1, 8), (9, 7), (10, 6), (2, 5), (3, 4),
]

# circle_schedule(11), rounds 1-3 (one team sits out each round).
ELEVEN_TEAM_CIRCLE_OPENING: list[tuple[int, int]] = [
    (1, 10), (2, 9), (3, 8), (4, 7), (5, 6),
    (11, 9), (1, 8), (2, 7), (3, 6), (4, 5),
    (10, 8), (11, 7), (1, 6), (2, 5), (3, 4),
]

# odd_optimal_schedule(5): rest time 1, both difference indices 1.
FIVE_TEAM_OPTIMAL: list[tuple[int, int]] = [
    (1, 2), (3, 4),
    (1, 5), (2, 3),
    (4, 5), (1, 3),
    (2, 4), (3, 5),
    (1, 4), (2, 5),
]

# odd_optimal_schedule(7): rest time 2, both difference indices 1.
SEVEN_TEAM_OPTIMAL: list[tuple[int, int]] = [
    (1, 2), (3, 4), (5, 6),
    (1, 7), (2, 3), (4, 5),
    (6, 7), (1, 3), (2, 5),
    (4, 6), (3, 7), (1, 5),
    (2, 6), (4, 7), (3, 5),
    (1, 6), (2, 4), (5, 7),
    (3, 6), (1, 4), (2, 7),
]

# A second 7-team schedule with the same optimal measures; not a relabeling
# of SEVEN_TEAM_OPTIMAL (they share the first three rounds, then diverge).
SEVEN_TEAM_OPTIMAL_ALTERNATE: list[tuple[int, int]] = [
    (1, 2), (3, 4), (5, 6),
    (1, 7), (2, 3), (4, 5),
    (6, 7), (1, 3), (2, 5),
    (4, 7), (1, 6), (3, 5),
    (2, 7), (4, 6), (1, 5),
    (3, 7), (2, 6), (1, 4),
    (5, 7), (3, 6), (2, 4),
]

# Two 6-team schedules with rest difference index 1.  The first keeps the
# best even-n rest time (1) at the cost of a games-played spread of 2; the
# second drops to rest time 0 with a spread of 3.
SIX_TEAM_LOW_REST_DIFF_A: list[tuple[int, int]] = [
    (1, 2), (3, 4), (1, 5),
    (2, 6), (1, 3), (4, 5),
    (1, 6), (2, 3), (5, 6),
    (1, 4), (2, 5), (3, 6),
    (2, 4), (3, 5), (4, 6),
]

SIX_TEAM_LOW_REST_DIFF_B: list[tuple[int, int]] = [
    (1, 2), (3, 4), (5, 6),
    (1, 3), (1, 5), (3, 6),
    (1, 6), (2, 4), (1, 4),
    (2, 6), (3, 5), (2, 3),
    (2, 5), (4, 6), (4, 5),
]

