"""Generators: circle method, odd-n slot construction, round duplication."""

import pytest

from rrsched import (
    Schedule,
    ScheduleValidationError,
    SearchConstraints,
    circle_schedule,
    duplicate_rounds,
    make_schedule,
    odd_optimal_schedule,
    odd_slot_assignment,
    round_structure,
    search,
    verify_claim,
)
from rrsched.fixtures import (
    ELEVEN_TEAM_CIRCLE_OPENING,
    FIVE_TEAM_OPTIMAL,
    SEVEN_TEAM_OPTIMAL,
    TEN_TEAM_CIRCLE_OPENING,
)


class TestCircleSchedule:
    def test_ten_teams_opening_rounds(self):
        assert list(circle_schedule(10).games)[:15] == TEN_TEAM_CIRCLE_OPENING

    def test_eleven_teams_opening_rounds(self):
        assert list(circle_schedule(11).games)[:15] == ELEVEN_TEAM_CIRCLE_OPENING

    def test_four_teams_full(self):
        # Hand-applied rotation: fixed 1, others advance one seat per round.
        assert list(circle_schedule(4).games) == [
            (1, 4), (2, 3), (1, 3), (4, 2), (1, 2), (3, 4)]

    def test_two_teams(self):
        assert list(circle_schedule(2).games) == [(1, 2)]

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            circle_schedule(1)

    @pytest.mark.parametrize("n", range(2, 33))
    def test_valid_single_round_robin(self, n):
        s = circle_schedule(n)
        assert s.team_count == n and s.multiplicity == 1
        assert len(s) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(5, 18, 2))
    def test_odd_byes_rotate_downward(self, n):
        # The team paired with the dummy sits out: n first, then n-1, n-2, ...
        s = circle_schedule(n)
        g = round_structure(n).g
        for round_no in range(1, n + 1):
            block = s.games[(round_no - 1) * g: round_no * g]
            playing = {t for game in block for t in game}
            expected_bye = n - (round_no - 1)
            assert playing == set(range(1, n + 1)) - {expected_bye}

    @pytest.mark.parametrize("n", range(4, 17, 2))
    def test_even_slot_shift_at_most_one(self, n):
        s = circle_schedule(n)
        slots = _slots_by_round(s)
        for team in s.teams:
            per_round = [slots[r][team] for r in sorted(slots)]
            assert all(abs(x - y) <= 1 for x, y in zip(per_round, per_round[1:]))

    @pytest.mark.parametrize("n", range(5, 18, 2))
    def test_odd_slot_shift_at_most_one_between_played_rounds(self, n):
        s = circle_schedule(n)
        slots = _slots_by_round(s)
        for team in s.teams:
            rounds = sorted(slots)
            for r1, r2 in zip(rounds, rounds[1:]):
                if team in slots[r1] and team in slots[r2]:
                    assert abs(slots[r1][team] - slots[r2][team]) <= 1


def _slots_by_round(s):
    g = round_structure(s.team_count).g
    table: dict[int, dict[int, int]] = {}
    for index, (a, b) in enumerate(s.games, start=1):
        rnd = (index + g - 1) // g
        slot = (index - 1) % g + 1
        table.setdefault(rnd, {})[a] = slot
        table[rnd][b] = slot
    return table


class TestOddSlotAssignment:
    def test_five_team_rows(self):
        table = odd_slot_assignment(5)
        assert [row[5 - 1] for row in table] == [0, 1, 1, 2, 2]
        assert [row[2 - 1] for row in table] == [1, 2, 0, 1, 2]

    def test_three_team_table(self):
        assert odd_slot_assignment(3) == ((1, 1, 0), (1, 0, 1), (0, 1, 1))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            odd_slot_assignment(6)
        with pytest.raises(ValueError):
            odd_slot_assignment(1)

    @pytest.mark.parametrize("n", range(3, 32, 2))
    def test_bye_structure(self, n):
        k = (n - 1) // 2
        table = odd_slot_assignment(n)
        assert len(table) == n
        for row in table:
            assert len(row) == n
            # One bye, and two teams in each of slots 1..k.
            assert sorted(row) == [0] + [slot for slot in range(1, k + 1) for _ in range(2)]
        byes = [row.index(0) + 1 for row in table]
        assert sorted(byes) == list(range(1, n + 1))  # each team exactly once


class TestOddOptimalSchedule:
    def test_five_teams(self):
        assert list(odd_optimal_schedule(5).games) == FIVE_TEAM_OPTIMAL

    def test_seven_teams(self):
        assert list(odd_optimal_schedule(7).games) == SEVEN_TEAM_OPTIMAL

    def test_three_teams(self):
        assert list(odd_optimal_schedule(3).games) == [(1, 2), (1, 3), (2, 3)]

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            odd_optimal_schedule(4)

    @pytest.mark.parametrize("n", range(3, 16, 2))
    def test_meeting_rounds_match_closed_forms(self, n):
        # Every pair must meet in the round its slot trajectories predict.
        k = (n - 1) // 2
        s = odd_optimal_schedule(n)
        meeting = {}
        for index, (a, b) in enumerate(s.games, start=1):
            meeting[_key(a, b)] = (index - 1) // k + 1
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i != j:
                    assert meeting[_key(2 * i - 1, 2 * j - 1)] == i + j
                    assert meeting[_key(2 * i, 2 * j)] == 2 * k + 3 - i - j
                if i <= j:
                    expected = 1 if i == j else 2 * k + 2 + i - j
                    assert meeting[_key(2 * i - 1, 2 * j)] == expected
                if i < j:
                    assert meeting[_key(2 * i, 2 * j - 1)] == j - i + 1
            assert meeting[_key(2 * i - 1, 2 * k + 1)] == 2 * i
            assert meeting[_key(2 * i, 2 * k + 1)] == 2 * k + 3 - 2 * i


def _key(x, y):
    return (x, y) if x < y else (y, x)


class TestDuplicateRounds:
    def test_factor_one_is_identity(self):
        s = odd_optimal_schedule(3)
        assert duplicate_rounds(s, 1) == s

    def test_five_team_reference_doubled(self):
        doubled = duplicate_rounds(odd_optimal_schedule(5), 2)
        assert doubled.multiplicity == 2 and len(doubled) == 20
        assert list(doubled.games)[:8] == [
            (1, 2), (3, 4), (1, 2), (3, 4), (1, 5), (2, 3), (1, 5), (2, 3)]

    @pytest.mark.parametrize("n,factor", [(4, 2), (6, 3), (7, 2)])
    def test_round_blocks_repeat(self, n, factor):
        base = circle_schedule(n)
        dup = duplicate_rounds(base, factor)
        g = round_structure(n).g
        assert len(dup) == factor * len(base)
        for block_no in range(len(base) // g):
            want = base.games[block_no * g:(block_no + 1) * g]
            for copy in range(factor):
                start = (block_no * factor + copy) * g
                assert dup.games[start:start + g] == want

    def test_rejects_bad_factor_and_multiplicity(self):
        s = circle_schedule(4)
        with pytest.raises(ValueError):
            duplicate_rounds(s, 0)
        with pytest.raises(ValueError):
            duplicate_rounds(duplicate_rounds(s, 2), 2)

    def test_two_team_duplication(self):
        dup = duplicate_rounds(circle_schedule(2), 3)
        assert len(dup) == 3 and dup.multiplicity == 3

    # A hand-built Schedule is checked by its own constructor: an invalid
    # one never reaches duplicate_rounds.
    @pytest.mark.parametrize("games, message", [
        (((1, 2), (1, 2), (2, 3)), r"pair \(1, 2\) occurs more than 1 time\(s\) at game 2"),
        (((1, 1), (1, 3), (2, 3)), r"self-pair \(1, 1\) at game 1"),
        (((1, 2), (1, 4), (2, 3)), r"team 4 out of range 1\.\.3 at game 2"),
    ], ids=["repeated-pair", "self-pair", "out-of-range"])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_rejects_invalid_hand_built_input(self, games, message, factor):
        with pytest.raises(ScheduleValidationError, match=message) as exc:
            duplicate_rounds(Schedule(3, 1, games), factor)
        assert exc.traceback[-1].name == "__init__"

    def test_list_games_come_back_as_tuples(self):
        dup = duplicate_rounds(Schedule(3, 1, [[1, 2], [1, 3], [2, 3]]), 2)
        assert type(dup.games) is tuple
        assert all(type(game) is tuple for game in dup.games)
        assert dup == duplicate_rounds(make_schedule(3, 1, [(1, 2), (1, 3), (2, 3)]), 2)


@pytest.mark.parametrize("build,match", [
    (lambda: circle_schedule(5.0), "n must be an integer"),
    (lambda: odd_optimal_schedule(7.0), "n must be an integer"),
    (lambda: odd_slot_assignment(7.0), "n must be an integer"),
    (lambda: odd_slot_assignment(True), "n must be an integer"),
    (lambda: duplicate_rounds(circle_schedule(4), 1.5), "factor must be an integer"),
    (lambda: duplicate_rounds(circle_schedule(4), True), "factor must be an integer"),
], ids=["circle-5.0", "odd-optimal-7.0", "slots-7.0", "slots-True", "factor-1.5",
        "factor-True"])
def test_non_int_counts_are_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


# Every entry point that takes a count: (id, call with the count, the name
# its message gives the count, the smallest count it accepts).
_COUNTS = [
    ("make_schedule-n", lambda v: make_schedule(v, 1, [(1, 2), (1, 3), (2, 3)]), "n", 2),
    ("make_schedule-m", lambda v: make_schedule(3, v, [(1, 2), (1, 3), (2, 3)]), "m", 1),
    ("round_structure", round_structure, "n", 2),
    ("odd_slot_assignment", odd_slot_assignment, "n", 3),
    ("duplicate_rounds", lambda v: duplicate_rounds(circle_schedule(4), v),
     "duplication factor", 1),
    *((f"SearchConstraints-{bound}", lambda v, bound=bound: SearchConstraints(**{bound: v}),
       bound, 0) for bound in ("min_rest", "max_gpd", "max_rdi")),
    ("search-n", lambda v: search(v, SearchConstraints(min_rest=1)), "n", 3),
    ("search-jobs", lambda v: search(5, SearchConstraints(min_rest=1), jobs=v), "jobs", 1),
    ("search-limit", lambda v: search(5, SearchConstraints(min_rest=1), mode="enumerate",
                                      limit=v), "limit", 1),
    ("verify_claim", lambda v: verify_claim("duplication-preserves", v),
     "claim 'duplication-preserves' team count", 3),
]


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{entry}-{value!r}")
    for entry, call, name, minimum in _COUNTS
    for value, message in [
        (True, f"{name} must be an integer, got True"),
        (3.0, f"{name} must be an integer, got 3.0"),
        ("3", f"{name} must be an integer, got '3'"),
        (minimum - 1, f"{name} must be >= {minimum}, got {minimum - 1}"),
    ]
])
def test_counts_share_one_rule(call, value, message):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message


class TestGeneratedSchedulesValidate:
    @pytest.mark.parametrize("n", range(3, 16, 2))
    def test_odd_optimal_revalidates(self, n):
        s = odd_optimal_schedule(n)
        rebuilt = make_schedule(n, 1, list(s.games))
        assert rebuilt == s

    # duplicate_rounds validates only its m = 1 input; each copy must pass
    # the m-fold check as well.
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("build, sizes", [
        (circle_schedule, range(2, 25)),
        (odd_optimal_schedule, range(3, 24, 2)),
    ], ids=["circle", "odd-optimal"])
    def test_duplicates_revalidate(self, build, sizes, factor):
        for n in sizes:
            d = duplicate_rounds(build(n), factor)
            assert make_schedule(n, factor, d.games) == d
