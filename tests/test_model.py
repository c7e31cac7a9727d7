"""Model layer: validation, round structure, text and structured I/O."""

import pickle
import sys
import tracemalloc
from collections import namedtuple
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsched import (
    ParseError,
    Schedule,
    ScheduleValidationError,
    SearchConstraints,
    canonicalize,
    circle_schedule,
    duplicate_rounds,
    load_schedule,
    odd_optimal_schedule,
    parse_schedule,
    schedule_from_json,
    schedule_to_json,
    search,
    serialize_schedule,
)
from rrsched import model
from rrsched.fixtures import FIVE_TEAM_OPTIMAL

from conftest import all_pairs

N3_GAMES = [(1, 2), (1, 3), (2, 3)]


class TestTupleModel:
    def test_reversed_pair_counts_as_repeat(self):
        with pytest.raises(ScheduleValidationError) as exc:
            Schedule(3, 1, [(1, 2), (2, 1), (1, 3)])
        assert exc.value.index == 2
        assert "(1, 2)" in str(exc.value)

    def test_self_pair_rejected_with_index(self):
        with pytest.raises(ScheduleValidationError, match=r"self-pair \(3, 3\)") as exc:
            Schedule(3, 1, [(1, 2), (1, 3), (3, 3)])
        assert exc.value.index == 3

    def test_orientation_survives_construction_and_round_trips(self):
        games = [(2, 1), (1, 3), (3, 2)]
        s = Schedule(3, 1, games)
        assert s.games == tuple(games)
        assert parse_schedule(serialize_schedule(s)).games == s.games
        assert schedule_from_json(schedule_to_json(s)).games == s.games
        assert s != Schedule(3, 1, N3_GAMES)  # equality is orientation-exact

    @given(st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_canonicalize_emits_ascending_pairs(self, n, data):
        games = data.draw(st.permutations(all_pairs(n)))
        flips = data.draw(st.lists(st.booleans(), min_size=len(games), max_size=len(games)))
        s = Schedule(n, 1, [(b, a) if flip else (a, b)
                                 for (a, b), flip in zip(games, flips)])
        once = canonicalize(s)
        assert all(a < b for a, b in once.games)
        assert canonicalize(once) == once


class TestMakeSchedule:
    """The round-robin checks of the Schedule constructor."""

    def test_smallest_odd_tournament(self):
        s = Schedule(3, 1, N3_GAMES)
        assert len(s) == 3
        assert s.team_count == 3 and s.multiplicity == 1

    def test_duplicate_pair_rejected_with_index(self):
        with pytest.raises(ScheduleValidationError) as exc:
            Schedule(3, 1, [(1, 2), (1, 3), (1, 2)])
        assert exc.value.index == 3
        assert str(exc.value) == "pair (1, 2) occurs more than 1 time(s) at game 3"

    # Both once ended "; pair (1, 3) never occurs", naming a pair that the
    # schedule holds: the first pair seen fewer than m times so far.
    @pytest.mark.parametrize("m, games, idx", [
        (1, [(1, 2), (1, 2), (1, 3)], 2),
        (2, [(1, 2), (1, 3), (1, 2), (1, 2), (2, 3), (2, 3)], 4),
    ])
    def test_repeat_message_names_only_the_repeated_pair(self, m, games, idx):
        with pytest.raises(ScheduleValidationError) as exc:
            Schedule(3, m, games)
        assert exc.value.index == idx
        assert str(exc.value) == f"pair (1, 2) occurs more than {m} time(s) at game {idx}"

    def test_five_team_reference_schedule_valid(self):
        s = Schedule(5, 1, FIVE_TEAM_OPTIMAL)
        assert len(s) == 10

    def test_wrong_length(self):
        with pytest.raises(ScheduleValidationError, match="wrong number of games"):
            Schedule(3, 1, [(1, 2), (1, 3)])

    def test_out_of_range_team(self):
        with pytest.raises(ScheduleValidationError) as exc:
            Schedule(3, 1, [(1, 2), (1, 4), (2, 3)])
        assert exc.value.index == 2

    def test_self_pair_with_index(self):
        with pytest.raises(ScheduleValidationError) as exc:
            Schedule(3, 1, [(1, 2), (3, 3), (2, 3)])
        assert exc.value.index == 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            Schedule(1, 1, [(1, 2)])
        with pytest.raises(ValueError):
            Schedule(3, 0, N3_GAMES)
        with pytest.raises(ScheduleValidationError):
            Schedule(3, 1, [])

    @pytest.mark.parametrize("game", [(True, 2), (1.0, 2), ("1", 2), None, (1, 2, 3)])
    def test_rejects_games_that_are_not_two_int_teams(self, game):
        with pytest.raises(ScheduleValidationError, match="pair of integer teams") as exc:
            Schedule(3, 1, [(1, 2), game, (2, 3)])
        assert exc.value.index == 2

    @pytest.mark.parametrize("n, m", [(True, 1), (3.0, 1), ("3", 1), (3, True), (3, None)])
    def test_rejects_non_int_n_and_m(self, n, m):
        with pytest.raises(ValueError, match="must be an integer"):
            Schedule(n, m, N3_GAMES)

    def test_stores_games_as_tuples(self):
        s = Schedule(3, 1, [[a, b] for a, b in N3_GAMES])
        assert s.games == tuple(N3_GAMES)
        assert all(type(g) is tuple for g in s.games)
        # A tuple subclass and a list are rebuilt as plain tuples; a plain
        # tuple is stored as given.
        game = namedtuple("Game", "a b")
        mixed = [game(1, 2), [1, 3], (2, 3)]
        s = Schedule(3, 1, mixed)
        assert s.games == tuple(N3_GAMES)
        assert all(type(g) is tuple for g in s.games)
        assert s.games[2] is mixed[2]

    def test_multiplicity_two(self):
        s = Schedule(3, 2, N3_GAMES + N3_GAMES)
        assert len(s) == 6 and s.multiplicity == 2


Game = namedtuple("Game", "a b")

# Games as tuples, lists and namedtuples, and how the Schedule constructor's
# "pair of integer teams" message shows a pair of each.
_CONTAINERS = {
    "tuple": (lambda a, b: (a, b), "({!r}, {!r})"),
    "list": (lambda a, b: [a, b], "[{!r}, {!r}]"),
    "namedtuple": (Game, "Game(a={!r}, b={!r})"),
}

# Each rejection the Schedule constructor pins to a game: (id, the game built
# by a container's pair function, the message with {idx} for its game number,
# or None for the "pair of integer teams" message of that pair).
# FIVE_TEAM_OPTIMAL opens with (1, 2), so (2, 1) after it repeats it reversed.
_GAME_FAULTS = [
    ("bare-int", lambda pair: 12, "game {idx} must be a pair of integer teams, got 12"),
    ("fraction", lambda pair: pair(1, Fraction(2)), None),
    ("bool", lambda pair: pair(True, 2), None),
    ("float", lambda pair: pair(1.0, 2), None),
    ("str", lambda pair: pair("1", 2), None),
    ("none", lambda pair: None, "game {idx} must be a pair of integer teams, got None"),
    ("three-tuple", lambda pair: (1, 2, 3),
     "game {idx} must be a pair of integer teams, got (1, 2, 3)"),
    ("self-pair", lambda pair: pair(3, 3), "self-pair (3, 3) at game {idx}"),
    ("team-0-first", lambda pair: pair(0, 2), "team 0 out of range 1..5 at game {idx}"),
    ("team-0-second", lambda pair: pair(2, 0), "team 0 out of range 1..5 at game {idx}"),
    ("team-6-first", lambda pair: pair(6, 2), "team 6 out of range 1..5 at game {idx}"),
    ("team-6-second", lambda pair: pair(2, 6), "team 6 out of range 1..5 at game {idx}"),
    ("both-out", lambda pair: pair(-1, 6), "team -1 out of range 1..5 at game {idx}"),
    ("reversed-repeat", lambda pair: pair(2, 1),
     "pair (1, 2) occurs more than 1 time(s) at game {idx}"),
]

# The first, a middle and the last game; the first game repeats no pair.
_FAULT_CASES = [pytest.param(build, message, idx, id=f"{fault}-{idx}")
                for fault, build, message in _GAME_FAULTS for idx in (1, 5, 10)
                if not (fault == "reversed-repeat" and idx == 1)]


class TestMakeScheduleErrors:
    """The message and index of each rejection, wherever the game sits and
    whatever container holds the games."""

    @pytest.mark.parametrize("container", _CONTAINERS)
    @pytest.mark.parametrize("build, message, idx", _FAULT_CASES)
    def test_message_and_index(self, build, message, idx, container):
        pair, shown = _CONTAINERS[container]
        game = build(pair)
        if message is None:
            message = "game {idx} must be a pair of integer teams, got " + shown.format(*game)
        games = [pair(a, b) for a, b in FIVE_TEAM_OPTIMAL]
        games[idx - 1] = game
        with pytest.raises(ScheduleValidationError) as exc:
            Schedule(5, 1, games)
        assert (str(exc.value), exc.value.index) == (message.format(idx=idx), idx)

    @pytest.mark.parametrize("container", _CONTAINERS)
    def test_reversed_repeat_past_the_multiplicity(self, container):
        pair, _ = _CONTAINERS[container]
        games = [pair(a, b) for a, b in FIVE_TEAM_OPTIMAL]
        games += [pair(b, a) for a, b in FIVE_TEAM_OPTIMAL]
        games[-1] = pair(2, 1)  # a third (1, 2), after (1, 2) and (2, 1)
        with pytest.raises(ScheduleValidationError) as exc:
            Schedule(5, 2, games)
        assert (str(exc.value), exc.value.index) == (
            "pair (1, 2) occurs more than 2 time(s) at game 20", 20)

    @pytest.mark.parametrize("container", _CONTAINERS)
    def test_valid_games_give_equal_schedules_of_plain_tuples(self, container):
        pair, _ = _CONTAINERS[container]
        games = [pair(a, b) for a, b in FIVE_TEAM_OPTIMAL]
        built = Schedule(5, 1, games)
        assert built == Schedule(5, 1, tuple(FIVE_TEAM_OPTIMAL))
        assert all(type(game) is tuple for game in built.games)


def _refuse_construction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Schedule.__new__ called")

    monkeypatch.setattr(Schedule, "__new__", refuse)


class TestValidByConstruction:
    """Only the constructor checks a round robin, and nothing whose games are
    valid by construction calls it."""

    @pytest.mark.parametrize("n", [2, 5, 8, 9])
    def test_duplicate_rounds_copies_without_a_check(self, n, monkeypatch):
        s = circle_schedule(n) if n % 2 == 0 else odd_optimal_schedule(n)
        want = duplicate_rounds(s, 3)
        _refuse_construction(monkeypatch)
        assert duplicate_rounds(s, 3) == want

    @pytest.mark.parametrize("mode", ["first", "enumerate"])
    def test_search_builds_its_schedules_without_a_check(self, mode, monkeypatch):
        constraints = SearchConstraints(min_rest=1)
        want = search(5, constraints, mode=mode)
        _refuse_construction(monkeypatch)
        assert search(5, constraints, mode=mode) == want
        assert want.found is not None or len(want.schedules) == 8

    def test_canonicalize_relabels_without_a_check(self, monkeypatch):
        s = Schedule(5, 1, [(b, a) for a, b in reversed(FIVE_TEAM_OPTIMAL)])
        want = canonicalize(s)
        _refuse_construction(monkeypatch)
        assert canonicalize(s) == want

    def test_refused_constructor_stops_the_checked_paths(self, monkeypatch):
        pickled = pickle.dumps(Schedule(3, 1, N3_GAMES))
        _refuse_construction(monkeypatch)
        for build in (lambda: Schedule(3, 1, N3_GAMES), lambda: circle_schedule(4),
                      lambda: odd_optimal_schedule(5), lambda: parse_schedule("n 2\n1 2\n"),
                      lambda: schedule_from_json('{"n": 2, "games": [[1, 2]]}'),
                      lambda: pickle.loads(pickled)):
            with pytest.raises(AssertionError, match="Schedule.__new__ called"):
                build()

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_goes_through_the_constructor(self, protocol):
        class Forged:  # pickles as a Schedule of a repeated pair
            def __reduce__(self):
                return Schedule, (3, 1, ((1, 2), (2, 1), (2, 3)))

        with pytest.raises(ScheduleValidationError,
                           match=r"pair \(1, 2\) occurs more than 1 time\(s\) at game 2"):
            pickle.loads(pickle.dumps(Forged(), protocol))
        s = Schedule(3, 1, N3_GAMES)
        assert pickle.loads(pickle.dumps(s, protocol)) == s


class TestRoundStructure:
    """A single round robin is r consecutive rounds of g = n // 2 games in
    which no team plays twice: r = n - 1 for even n and n for odd n, so
    r * g = n(n-1)/2.  The circle method plays them."""

    @pytest.mark.parametrize("n,g,r", [(10, 5, 9), (11, 5, 11), (2, 1, 1), (3, 1, 3), (4, 2, 3)])
    def test_examples(self, n, g, r):
        games = circle_schedule(n).games
        rounds = [games[k:k + g] for k in range(0, len(games), g)]
        assert len(rounds) == r
        assert all(len(set(chain.from_iterable(block))) == 2 * g for block in rounds)

    def test_identity_over_range(self):
        for n in range(2, 65):
            r = n - 1 if n % 2 == 0 else n
            assert len(circle_schedule(n)) == r * (n // 2) == n * (n - 1) // 2


class TestTextFormat:
    def test_parse_minimal(self):
        s = parse_schedule("n 3\n1 2\n1 3\n2 3\n")
        assert s == Schedule(3, 1, N3_GAMES)

    def test_serialize_five_team_reference(self):
        s = Schedule(5, 1, FIVE_TEAM_OPTIMAL)
        assert serialize_schedule(s) == (
            "n 5\n1 2\n3 4\n1 5\n2 3\n4 5\n1 3\n2 4\n3 5\n1 4\n2 5\n"
        )

    def test_self_pair_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_schedule("n 3\n1 1\n1 3\n2 3\n")
        assert exc.value.line == 2
        assert "self-pair" in str(exc.value)

    def test_comments_blank_lines_and_m(self):
        text = "# season two\n\nn 3\nm 2\n1 2\n1 3\n2 3\n# again\n2 1\n3 1\n3 2\n"
        s = parse_schedule(text)
        assert s.multiplicity == 2 and len(s) == 6

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_schedule("1 2\n1 3\n2 3\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError) as exc:
            parse_schedule("n 3\nn 3\n1 2\n1 3\n2 3\n")
        assert exc.value.line == 2

    def test_misplaced_m(self):
        with pytest.raises(ParseError):
            parse_schedule("n 3\n1 2\nm 2\n1 3\n2 3\n")

    def test_non_integer_team(self):
        with pytest.raises(ParseError) as exc:
            parse_schedule("n 3\n1 x\n1 3\n2 3\n")
        assert exc.value.line == 2

    def test_three_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_schedule("n 3\n1 2 3\n1 3\n2 3\n")

    def test_validation_error_mapped_to_line(self):
        with pytest.raises(ParseError) as exc:
            parse_schedule("# x\nn 3\n1 2\n1 3\n1 2\n")
        assert exc.value.line == 5

    def test_accepts_bytes(self):
        s = parse_schedule(b"n 3\n1 2\n1 3\n2 3\n")
        assert s.team_count == 3

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="wrong number of games"):
            parse_schedule("n 3\n1 2\n1 3\n")

    def test_header_only_input(self):
        with pytest.raises(ParseError, match="empty game sequence"):
            parse_schedule("n 3\n")

    @pytest.mark.parametrize("text, line", [
        ("n 0\n", 1),
        ("# x\nn -3\n1 2\n", 2),
        ("n 3\nm 0\n1 2\n1 3\n2 3\n", 2),
    ])
    def test_out_of_range_header_reports_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_schedule(text)
        assert exc.value.line == line

    # A header out of order in the head or in the body of the text.
    @pytest.mark.parametrize("text, line, message", [
        ("m 2\nn 3\n1 2\n1 3\n2 3\n", 1, "misplaced 'm' header"),
        ("n 3\nm 2\nm 2\n1 2\n", 3, "misplaced 'm' header"),
        ("n 3\n1 2\n1 3\nm 2\n2 3\n", 4, "misplaced 'm' header"),
        ("n 3\n1 2\n\nn 3\n1 3\n2 3\n", 4, "duplicate 'n' header"),
    ], ids=["m-before-n", "m-twice", "m-after-games", "n-after-games"])
    def test_header_order_errors_report_message_and_line(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_schedule(text)
        assert (exc.value.line, str(exc.value)) == (line, f"{message} at line {line}")

    @pytest.mark.parametrize("text, line", [
        ("n 3\n1 2\n1 3\n2 0_3\n", 4),
        ("n 3\n1 2\n1 3\n2 \u0663\n", 4),
        ("n \u0663\n1 2\n1 3\n2 3\n", 1),
        ("n 3\nm \uff12\n1 2\n1 3\n2 3\n2 1\n3 1\n3 2\n", 2),
    ])
    def test_only_ascii_decimal_integers(self, text, line):
        # int() would read "0_3" and the Arabic-Indic and full-width digits as numbers.
        with pytest.raises(ParseError) as exc:
            parse_schedule(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("data, line", [
        (b"n 3\n1 2\n1 3\n2 \xff\n", 4),
        (b"\xfen 3\n", 1),
        (b"n 3\r\n1 2\r\n1 \xc3\r\n", 3),
    ])
    def test_non_utf8_is_a_parse_error_naming_the_line(self, data, line):
        for parse in (parse_schedule, load_schedule):
            with pytest.raises(ParseError, match="invalid UTF-8") as exc:
                parse(data)
            assert exc.value.line == line

    @pytest.mark.parametrize("separator", [
        "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ])
    def test_only_newlines_end_a_line(self, separator):
        # str.splitlines() also breaks at these, which would number the
        # bad game on line 3 as line 4.
        with pytest.raises(ParseError) as exc:
            parse_schedule(f"n 3{separator}\n1 2\n1 x\n2 3\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("data, line", [
        (b"n 3\r1 2\r1 x\r2 3\r", 3),
        (b"n 3\r\n1 2\r1 x\n2 3\n", 3),
        (b"n 3\r1 2\r\n1 \xff\n", 3),
        (b"n 3\x0c\n1 2\n1 \xff\n", 3),
    ])
    def test_lone_carriage_returns_end_lines_for_parser_and_decoder(self, data, line):
        with pytest.raises(ParseError) as exc:
            parse_schedule(data)
        assert exc.value.line == line

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() has no digit limit in this interpreter")
    def test_overlong_numbers_are_parse_errors(self):
        # int() raises ValueError past sys.get_int_max_str_digits() digits.
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        for text, line in [(f"n 3\n1 2\n1 3\n2 {digits}\n", 4), (f"n {digits}\n", 1),
                           (f"n 3\nm {digits}\n", 2)]:
            with pytest.raises(ParseError) as exc:
                parse_schedule(text)
            assert exc.value.line == line
        with pytest.raises(ParseError, match="invalid JSON"):
            schedule_from_json('{"n": ' + digits + ', "games": [[1, 2]]}')

    def test_whitespace_tolerant_game_lines(self):
        s = parse_schedule("n 3\n 1  2 \n1 3\n2 3\n")
        assert s == Schedule(3, 1, N3_GAMES)

    @pytest.mark.parametrize("data", [
        "\ufeffn 3\n1 2\n1 3\n2 3\n",
        b"\xef\xbb\xbfn 3\n1 2\n1 3\n2 3\n",
    ])
    def test_leading_byte_order_mark_is_dropped(self, data):
        for parse in (parse_schedule, load_schedule):
            assert parse(data) == Schedule(3, 1, N3_GAMES)

    def test_only_one_byte_order_mark_is_dropped(self):
        for parse in (parse_schedule, load_schedule):
            with pytest.raises(ParseError) as exc:
                parse("\ufeff\ufeffn 3\n1 2\n1 3\n2 3\n")
            assert exc.value.line == 1

    @pytest.mark.parametrize("text, message", [
        ("n 1000000000\n1 2\n",
         "wrong number of games: expected 499999999500000000 for n=1000000000, m=1, got 1"),
        ("n 3\nm 1000000000\n1 2\n",
         "wrong number of games: expected 3000000000 for n=3, m=1000000000, got 1"),
    ], ids=["n", "m"])
    def test_huge_header_allocates_nothing_per_team(self, text, message):
        # A body with fewer lines than games is read line by line, without
        # the table of team names the one-pass read builds.
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                parse_schedule(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (str(exc.value), exc.value.line) == (message, None)
        assert peak < 1 << 20

    def test_commented_body_is_read_in_one_pass(self, monkeypatch):
        s = duplicate_rounds(circle_schedule(8), 2)
        g = 4  # games per round
        header, games = ["n 8", "m 2"], serialize_schedule(s).splitlines()[2:]
        lines = header[:]
        for k in range(0, len(games), g):
            lines += ["", f"# round {k // g + 1}"] + games[k:k + g]

        def line_rules(body, first):
            raise AssertionError("the body was read line by line")

        monkeypatch.setattr(model, "_game_rows", line_rules)
        assert parse_schedule("\n".join(lines) + "\n") == s
        assert parse_schedule("\n".join(header + games) + "\n") == s


def _bad_repeat(m, games, idx):
    """A pair that already occurs m times before game ``idx``, or None."""
    counts = {}
    for a, b in games[:idx - 1]:
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + 1
    return next((pair for pair, count in counts.items() if count == m), None)


_FAULTS = ["self-pair", "team n+1", "repeat", "token x", "token 1_0", "token +1",
           "token \u0663", "third token"]


def _plant(fault, n, m, games, idx, line):
    """(text of game line idx, expected message) for the fault planted there,
    or None when it cannot be planted at idx."""
    a, b = games[idx - 1]
    if fault == "self-pair":
        return f"{a} {a}", f"self-pair ({a}, {a}) at game {idx} (line {line})"
    if fault == "team n+1":
        return f"{a} {n + 1}", f"team {n + 1} out of range 1..{n} at game {idx} (line {line})"
    if fault == "repeat":
        full = _bad_repeat(m, games, idx)
        if full is None:
            return None
        return (f"{full[1]} {full[0]}",
                f"pair {full} occurs more than {m} time(s) at game {idx} (line {line})")
    if fault == "third token":
        text = f"{a} {b} 1"
        return text, f"expected two team numbers at line {line}, got {text!r}"
    text = f"{a} {fault.split()[1]}"
    return text, f"non-integer team at line {line}: {text!r}"


# Layouts of the same schedule: lines before the header, line ending, final
# newline, a line placed before the middle game, and whether a "# round k"
# line opens every round (after a blank line, past the first round).
_LAYOUTS = [
    ([], "\n", True, None, False),
    (["# season one"], "\n", True, None, False),
    ([], "\r\n", True, None, False),
    ([], "\n", False, None, False),
    ([], "\n", True, "", False),
    ([], "\n", True, "# half time", False),
    ([], "\n", True, None, True),
    # A "-" anywhere in the text sends even a valid body through the line rules.
    (["# home - away"], "\n", True, None, False),
]


class TestPlantedFaults:
    """One fault on each game line in turn, in every layout: the error names
    the planted line with the same message wherever the body is read."""

    @staticmethod
    def _serialized(n, m):
        s = circle_schedule(n) if m == 1 else duplicate_rounds(circle_schedule(n), m)
        lines = serialize_schedule(s).splitlines()
        return s, lines[:m], lines[m:]

    @staticmethod
    def _text(n, header, body, layout):
        """The text of ``body`` in ``layout``, and the line of each game."""
        before, newline, final, middle, rounds = layout
        g = n // 2
        lines = before + header
        game_lines = []
        for i, game in enumerate(body):
            if middle is not None and i == len(body) // 2:
                lines.append(middle)
            if rounds and i % g == 0:
                lines += ["", f"# round {i // g + 1}"] if i else ["# round 1"]
            lines.append(game)
            game_lines.append(len(lines))
        return newline.join(lines) + (newline if final else ""), game_lines

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("m", [1, 2])
    def test_layouts_parse_to_the_same_schedule(self, n, m):
        s, header, body = self._serialized(n, m)
        for layout in _LAYOUTS:
            assert parse_schedule(self._text(n, header, body, layout)[0]) == s

    @pytest.mark.parametrize("fault", _FAULTS)
    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("m", [1, 2])
    def test_error_names_the_planted_line(self, n, m, fault):
        s, header, body = self._serialized(n, m)
        planted = 0
        for layout in _LAYOUTS:
            _, game_lines = self._text(n, header, body, layout)
            for idx, line in enumerate(game_lines, start=1):
                planting = _plant(fault, n, m, s.games, idx, line)
                if planting is None:
                    continue
                text, message = planting
                bad = body[:idx - 1] + [text] + body[idx:]
                with pytest.raises(ParseError) as exc:
                    parse_schedule(self._text(n, header, bad, layout)[0])
                assert (exc.value.line, str(exc.value)) == (line, message)
                planted += 1
        assert planted


# Documents whose "games" field is not an array.
_GAMES_NOT_AN_ARRAY = [
    '{"n": 3, "games": 5}',
    '{"n": 3, "games": "12"}',
    '{"n": 3, "games": {}}',
    '{"n": 3, "games": null}',
]


class TestStructuredFormat:
    def test_round_trip(self):
        s = Schedule(5, 1, FIVE_TEAM_OPTIMAL)
        assert schedule_from_json(schedule_to_json(s)) == s

    def test_bytes_are_pinned(self):
        s = Schedule(3, 2, [(2, 1), (1, 3), (3, 2), (1, 2), (3, 1), (2, 3)])
        assert schedule_to_json(s) == (
            '{"n": 3, "m": 2, "games": [[2, 1], [1, 3], [3, 2], [1, 2], [3, 1], [2, 3]]}\n')
        assert schedule_to_json(s, indent=2) == """\
{
  "n": 3,
  "m": 2,
  "games": [
    [
      2,
      1
    ],
    [
      1,
      3
    ],
    [
      3,
      2
    ],
    [
      1,
      2
    ],
    [
      3,
      1
    ],
    [
      2,
      3
    ]
  ]
}
"""

    def test_default_multiplicity(self):
        s = schedule_from_json('{"n": 3, "games": [[1, 2], [1, 3], [2, 3]]}')
        assert s.multiplicity == 1

    @pytest.mark.parametrize("doc", [
        "not json",
        "[1, 2]",
        '{"games": [[1, 2]]}',
        '{"n": 3, "games": [[1, 2], [1, 3], [2, 3, 4]]}',
        '{"n": 3, "games": [[1, 2], [1, 3], [2, "3"]]}',
        '{"n": "3", "games": []}',
        '{"n": 3, "games": [[1, 2], [1, 3], [1, 2]]}',
        '{"n": 3, "games": [[true, 2], [1, 3], [2, 3]]}',
        '{"n": 3, "m": true, "games": [[1, 2], [1, 3], [2, 3]]}',
        '{"n": 3, "games": [[1, 2], [1, 3], [2, 3.0]]}',
        '{"n": 3.0, "games": [[1, 2], [1, 3], [2, 3]]}',
        '{"n": 3, "games": [[1, 2], [1, 3], null]}',
        '{"n": 3, "games": [[1, 2], [1, 3], "23"]}',
        b'{"n": 3, "games": [[1, 2], [1, 3], [2, 3]], "\xff": 0}',
        *_GAMES_NOT_AN_ARRAY,
    ])
    def test_malformed_documents(self, doc):
        match = "field 'games' must be an array of \\[a, b\\] pairs" if (
            doc in _GAMES_NOT_AN_ARRAY) else None
        with pytest.raises(ParseError, match=match):
            schedule_from_json(doc)

    def test_deep_nesting_is_a_parse_error(self):
        depth = 200_000
        with pytest.raises(ParseError, match="nested too deeply"):
            schedule_from_json('{"n": ' + "[" * depth + "]" * depth + "}")

    def test_leading_byte_order_mark_is_dropped(self):
        s = Schedule(3, 1, N3_GAMES)
        text = "\ufeff" + schedule_to_json(s)
        for parse in (schedule_from_json, load_schedule):
            assert parse(text) == s
            assert parse(text.encode()) == s

    def test_load_schedule_sniffs_format(self):
        s = Schedule(3, 1, N3_GAMES)
        assert load_schedule(schedule_to_json(s)) == s
        assert load_schedule(serialize_schedule(s)) == s
        assert load_schedule("  " + schedule_to_json(s)) == s

    # No text schedule starts with "[", so an array is read as a JSON
    # document; it was once a text body without an "n" header.
    @pytest.mark.parametrize("prefix", ["", " \n\t", "\ufeff", "\ufeff  "])
    @pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
    def test_load_schedule_reads_an_array_as_json(self, prefix, encode):
        data = prefix + "[[1, 2], [1, 3], [2, 3]]\n"
        with pytest.raises(ParseError) as exc:
            load_schedule(data.encode() if encode else data)
        assert str(exc.value) == "structured schedule must be a JSON object"


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=2))
    games = draw(st.permutations(all_pairs(n) * m))
    flips = draw(st.lists(st.booleans(), min_size=len(games), max_size=len(games)))
    oriented = [(b, a) if flip else (a, b) for (a, b), flip in zip(games, flips)]
    return Schedule(n, m, oriented)


class TestProperties:
    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_text_round_trip(self, s):
        parsed = parse_schedule(serialize_schedule(s))
        assert parsed == s
        assert parsed.games == s.games

    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, s):
        assert schedule_from_json(schedule_to_json(s)) == s

    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_each_team_appears_m_times_n_minus_1(self, s):
        for team in s.teams:
            appearances = sum(1 for g in s.games if team in g)
            assert appearances == s.multiplicity * (s.team_count - 1)


def _line_rules(text, n, m, first):
    """What parse_schedule must give for ``text``, whose body opens at line
    ``first``: _game_rows reads the body, the Schedule constructor validates
    the games and a validation error names the line of its game."""
    body = model._lines(model._decode(text))[first - 1:]
    rows = list(model._game_rows(body, first))
    try:
        return Schedule(n, m, [game for _, game in rows])
    except ScheduleValidationError as exc:
        if exc.index is None:
            raise ParseError(str(exc)) from exc
        line = rows[exc.index - 1][0]
        raise ParseError(f"{exc} (line {line})", line=line) from exc


def _outcome(read, *args):
    """``read(*args)``'s Schedule, or its ParseError's message and line."""
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc), exc.line


# Edits of one game line "a b" of a five-team schedule.
_LINE_EDITS = {
    "01": lambda a, b: f"0{a} {b}",
    "0": lambda a, b: f"{a} 0",
    "team-n+1": lambda a, b: f"{a} 6",
    "+1": lambda a, b: f"+{a} {b}",
    "1_0": lambda a, b: f"{a} 1_0",
    "arabic-indic-3": lambda a, b: f"{a} ٣",
    "tab": lambda a, b: f"{a}\t{b}",
    "three-tokens": lambda a, b: f"{a} {b} 1",
    "n-header": lambda a, b: "n 5",
    "m-header": lambda a, b: "m 2",
}


class TestReaderParity:
    """parse_schedule gives what the line rules give: the same Schedule, or
    the same ParseError message and line, however the body is read."""

    # A comment line anywhere changes how the body's rows are read.
    @pytest.mark.parametrize("lead", [[], ["# round robin"]], ids=["plain", "commented"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", None], ids=["lf", "crlf", "no-final"])
    @pytest.mark.parametrize("position", [0, 10, 19], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("edit", _LINE_EDITS)
    def test_edited_line(self, edit, position, ending, lead):
        s = duplicate_rounds(odd_optimal_schedule(5), 2)
        lines = serialize_schedule(s).splitlines()  # "n 5", "m 2", then 20 games
        lines[2 + position] = _LINE_EDITS[edit](*s.games[position])
        text = (ending or "\n").join(lead + lines) + (ending or "")
        assert (_outcome(parse_schedule, text)
                == _outcome(_line_rules, text, 5, 2, 3 + len(lead)))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", None], ids=["lf", "crlf", "no-final"])
    def test_unedited(self, ending):
        s = duplicate_rounds(odd_optimal_schedule(5), 2)
        text = (ending or "\n").join(serialize_schedule(s).splitlines()) + (ending or "")
        assert parse_schedule(text) == _line_rules(text, 5, 2, 3) == s

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_schedules(self, data):
        s = data.draw(schedules())
        n, m = s.team_count, s.multiplicity
        lines = serialize_schedule(s).splitlines()
        head = 1 if m == 1 else 2
        tokens = st.sampled_from(["01", "0", "00", str(n + 1), "+1", "-1", "1_0", "٣",
                                  "１", "n", "m", "#", "x"]) | st.integers(1, n).map(str)
        # Edits past the first game line, which therefore stays the body's
        # first line: an "m 2" there would be read as the head's m header.
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(["token", "insert", "tab", "copy"]))
            if kind == "insert":
                at = data.draw(st.integers(head + 1, len(lines)))
                lines.insert(at, data.draw(st.sampled_from(
                    ["", "  ", "# round 2", "#", "n 3", "m 2", "1 2 3", "1", "1 # 2"])))
                continue
            if len(lines) == head + 1:
                continue
            at = data.draw(st.integers(head + 1, len(lines) - 1))
            row = lines[at].split() or ["1"]
            if kind == "token":
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(tokens)
                lines[at] = " ".join(row)
            elif kind == "tab":
                lines[at] = "\t".join(row)
            else:
                lines[at] = lines[data.draw(st.integers(head, len(lines) - 1))]
        lead = data.draw(st.sampled_from([[], ["# round robin"]]))
        ending = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = ending.join(lead + lines) + data.draw(st.sampled_from([ending, ""]))
        assert (_outcome(parse_schedule, text)
                == _outcome(_line_rules, text, n, m, len(lead) + head + 1))
