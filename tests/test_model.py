"""Model layer: validation, round structure, text and structured I/O."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsched import (
    ParseError,
    ScheduleValidationError,
    canonicalize,
    load_schedule,
    make_schedule,
    parse_schedule,
    round_structure,
    schedule_from_json,
    schedule_to_json,
    serialize_schedule,
)
from rrsched.fixtures import FIVE_TEAM_OPTIMAL

from conftest import all_pairs

N3_GAMES = [(1, 2), (1, 3), (2, 3)]


class TestTupleModel:
    def test_reversed_pair_counts_as_repeat(self):
        with pytest.raises(ScheduleValidationError) as exc:
            make_schedule(3, 1, [(1, 2), (2, 1), (1, 3)])
        assert exc.value.index == 2
        assert "(1, 2)" in str(exc.value)

    def test_self_pair_rejected_with_index(self):
        with pytest.raises(ScheduleValidationError, match=r"self-pair \(3, 3\)") as exc:
            make_schedule(3, 1, [(1, 2), (1, 3), (3, 3)])
        assert exc.value.index == 3

    def test_orientation_survives_construction_and_round_trips(self):
        games = [(2, 1), (1, 3), (3, 2)]
        s = make_schedule(3, 1, games)
        assert s.games == tuple(games)
        assert parse_schedule(serialize_schedule(s)).games == s.games
        assert schedule_from_json(schedule_to_json(s)).games == s.games
        assert s != make_schedule(3, 1, N3_GAMES)  # equality is orientation-exact

    @given(st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_canonicalize_emits_ascending_pairs(self, n, data):
        games = data.draw(st.permutations(all_pairs(n)))
        flips = data.draw(st.lists(st.booleans(), min_size=len(games), max_size=len(games)))
        s = make_schedule(n, 1, [(b, a) if flip else (a, b)
                                 for (a, b), flip in zip(games, flips)])
        once = canonicalize(s)
        assert all(a < b for a, b in once.games)
        assert canonicalize(once) == once


class TestMakeSchedule:
    def test_smallest_odd_tournament(self):
        s = make_schedule(3, 1, N3_GAMES)
        assert len(s) == 3
        assert s.team_count == 3 and s.multiplicity == 1

    def test_duplicate_pair_rejected_with_index(self):
        with pytest.raises(ScheduleValidationError) as exc:
            make_schedule(3, 1, [(1, 2), (1, 3), (1, 2)])
        assert exc.value.index == 3
        assert "(1, 2)" in str(exc.value)
        assert "(2, 3)" in str(exc.value)  # names the missing pair too

    def test_five_team_reference_schedule_valid(self):
        s = make_schedule(5, 1, FIVE_TEAM_OPTIMAL)
        assert len(s) == 10

    def test_wrong_length(self):
        with pytest.raises(ScheduleValidationError, match="wrong number of games"):
            make_schedule(3, 1, [(1, 2), (1, 3)])

    def test_out_of_range_team(self):
        with pytest.raises(ScheduleValidationError) as exc:
            make_schedule(3, 1, [(1, 2), (1, 4), (2, 3)])
        assert exc.value.index == 2

    def test_self_pair_with_index(self):
        with pytest.raises(ScheduleValidationError) as exc:
            make_schedule(3, 1, [(1, 2), (3, 3), (2, 3)])
        assert exc.value.index == 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            make_schedule(1, 1, [(1, 2)])
        with pytest.raises(ValueError):
            make_schedule(3, 0, N3_GAMES)
        with pytest.raises(ScheduleValidationError):
            make_schedule(3, 1, [])

    @pytest.mark.parametrize("game", [(True, 2), (1.0, 2), ("1", 2), None, (1, 2, 3)])
    def test_rejects_games_that_are_not_two_int_teams(self, game):
        with pytest.raises(ScheduleValidationError, match="pair of integer teams") as exc:
            make_schedule(3, 1, [(1, 2), game, (2, 3)])
        assert exc.value.index == 2

    @pytest.mark.parametrize("n, m", [(True, 1), (3.0, 1), ("3", 1), (3, True), (3, None)])
    def test_rejects_non_int_n_and_m(self, n, m):
        with pytest.raises(ValueError, match="must be integers"):
            make_schedule(n, m, N3_GAMES)

    def test_stores_games_as_tuples(self):
        s = make_schedule(3, 1, [[a, b] for a, b in N3_GAMES])
        assert s.games == tuple(N3_GAMES)
        assert all(type(g) is tuple for g in s.games)

    def test_multiplicity_two(self):
        s = make_schedule(3, 2, N3_GAMES + N3_GAMES)
        assert len(s) == 6 and s.multiplicity == 2


class TestRoundStructure:
    @pytest.mark.parametrize("n,g,r", [(10, 5, 9), (11, 5, 11), (2, 1, 1), (3, 1, 3), (4, 2, 3)])
    def test_examples(self, n, g, r):
        rs = round_structure(n)
        assert (rs.g, rs.r) == (g, r)

    def test_identity_over_range(self):
        for n in range(2, 65):
            rs = round_structure(n)
            assert rs.r * rs.g == n * (n - 1) // 2

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            round_structure(1)

    @pytest.mark.parametrize("n", [5.0, True])
    def test_rejects_non_int(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            round_structure(n)


class TestTextFormat:
    def test_parse_minimal(self):
        s = parse_schedule("n 3\n1 2\n1 3\n2 3\n")
        assert s == make_schedule(3, 1, N3_GAMES)

    def test_serialize_five_team_reference(self):
        s = make_schedule(5, 1, FIVE_TEAM_OPTIMAL)
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
        assert s == make_schedule(3, 1, N3_GAMES)


class TestStructuredFormat:
    def test_round_trip(self):
        s = make_schedule(5, 1, FIVE_TEAM_OPTIMAL)
        assert schedule_from_json(schedule_to_json(s)) == s

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
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(ParseError):
            schedule_from_json(doc)

    def test_deep_nesting_is_a_parse_error(self):
        depth = 200_000
        with pytest.raises(ParseError, match="nested too deeply"):
            schedule_from_json('{"n": ' + "[" * depth + "]" * depth + "}")

    def test_load_schedule_sniffs_format(self):
        s = make_schedule(3, 1, N3_GAMES)
        assert load_schedule(schedule_to_json(s)) == s
        assert load_schedule(serialize_schedule(s)) == s
        assert load_schedule("  " + schedule_to_json(s)) == s


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=2))
    games = draw(st.permutations(all_pairs(n) * m))
    flips = draw(st.lists(st.booleans(), min_size=len(games), max_size=len(games)))
    oriented = [(b, a) if flip else (a, b) for (a, b), flip in zip(games, flips)]
    return make_schedule(n, m, oriented)


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
