"""Known-good reference schedules used by the ``figure-fixtures`` claim.

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
