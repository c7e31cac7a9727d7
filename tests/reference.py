"""Reference schedules that only the tests use.

Each is an exact oriented game sequence with measures the tests assert; none
is the output of a generator in the package.
"""

# A second 7-team schedule with the same optimal measures; not a relabeling
# of rrsched.fixtures.SEVEN_TEAM_OPTIMAL (they share the first three rounds, then diverge).
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
