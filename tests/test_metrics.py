"""Metrics: the three measures, diagnostics, invariances, and the oracle check."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsched import (
    circle_schedule,
    duplicate_rounds,
    evaluate,
    make_schedule,
    odd_optimal_schedule,
    report_to_json,
)

from conftest import all_pairs, random_schedule
from oracle import (
    brute_always_longer_rest_teams,
    brute_games_played_difference_index,
    brute_guaranteed_rest_time,
    brute_rest_difference_index,
)
from reference import SIX_TEAM_LOW_REST_DIFF_A, SIX_TEAM_LOW_REST_DIFF_B

N3 = make_schedule(3, 1, [(1, 2), (1, 3), (2, 3)])


def triple(s):
    report = evaluate(s)
    return (report.guaranteed_rest_time,
            report.games_played_difference_index,
            report.rest_difference_index)


class TestGuaranteedRestTime:
    def test_even_circle(self):
        assert evaluate(circle_schedule(10)).guaranteed_rest_time == 3

    def test_odd_optimal(self):
        assert evaluate(odd_optimal_schedule(5)).guaranteed_rest_time == 1

    def test_odd_circle(self):
        # (n - 5) / 2 for the odd circle method.
        assert evaluate(circle_schedule(11)).guaranteed_rest_time == 3

    def test_undefined_for_single_game(self):
        assert evaluate(circle_schedule(2)).guaranteed_rest_time is None

    def test_defined_for_doubled_single_game(self):
        assert evaluate(duplicate_rounds(circle_schedule(2), 2)).guaranteed_rest_time == 0


class TestGamesPlayedDifferenceIndex:
    def test_even_circle(self):
        assert evaluate(circle_schedule(10)).games_played_difference_index == 1

    def test_odd_circle(self):
        assert evaluate(circle_schedule(11)).games_played_difference_index == 2

    def test_low_rest_diff_fixture_b(self):
        s = make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_B)
        assert evaluate(s).games_played_difference_index == 3

    def test_single_game(self):
        assert evaluate(circle_schedule(2)).games_played_difference_index == 0


class TestRestDifferenceIndex:
    def test_four_team_circle(self):
        assert evaluate(circle_schedule(4)).rest_difference_index == 1

    def test_ten_team_circle(self):
        assert evaluate(circle_schedule(10)).rest_difference_index == 2

    def test_eleven_team_circle(self):
        assert evaluate(circle_schedule(11)).rest_difference_index == 6

    def test_single_game(self):
        assert evaluate(circle_schedule(2)).rest_difference_index == 0


class TestRestProfile:
    def test_five_team_reference_team_one(self):
        assert evaluate(odd_optimal_schedule(5)).rest_profiles[1] == (1, 2, 2)

    def test_three_team_profiles(self):
        profiles = evaluate(N3).rest_profiles
        assert profiles[1] == profiles[3] == (0,)


class TestAlwaysLongerRestTeams:
    def test_five_team_reference(self):
        assert evaluate(odd_optimal_schedule(5)).always_longer_rest_teams == {2}

    def test_three_team(self):
        assert evaluate(N3).always_longer_rest_teams == {2}

    def test_total_on_even_circle(self):
        # No guarantee for even team counts; emptiness is acceptable output.
        result = evaluate(circle_schedule(10)).always_longer_rest_teams
        assert isinstance(result, frozenset)

    def test_single_game_has_no_qualifiers(self):
        assert evaluate(circle_schedule(2)).always_longer_rest_teams == set()


class TestEvaluate:
    def test_seven_team_optimal(self):
        assert triple(odd_optimal_schedule(7)) == (2, 1, 1)

    def test_six_team_circle(self):
        assert triple(circle_schedule(6)) == (1, 1, 2)

    def test_low_rest_diff_fixture_a(self):
        assert triple(make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_A)) == (1, 2, 1)

    def test_low_rest_diff_fixture_b(self):
        assert triple(make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_B)) == (0, 3, 1)

    def test_rest_time_equals_min_of_profiles(self):
        report = evaluate(circle_schedule(9))
        rests = [r for profile in report.rest_profiles.values() for r in profile]
        assert report.guaranteed_rest_time == min(rests)

    def test_report_json_round_trip(self):
        report = evaluate(odd_optimal_schedule(5))
        doc = _check_written(report)
        assert doc["always_longer_rest_teams"] == [2]
        assert doc["rest_profiles"]["1"] == [1, 2, 2]

    def test_report_json_round_trip_undefined_rest(self):
        doc = _check_written(evaluate(circle_schedule(2)), indent=2)
        assert doc["guaranteed_rest_time"] is None


def _check_written(report, indent=None):
    """Assert that report_to_json writes ``report``'s fields: teams in
    ascending order, profile keys as strings, profiles as arrays, and null
    for an undefined rest time.  Returns the decoded document."""
    teams = range(1, report.team_count + 1)
    doc = json.loads(report_to_json(report, indent=indent))
    assert doc == {
        "n": report.team_count,
        "m": report.multiplicity,
        "guaranteed_rest_time": report.guaranteed_rest_time,
        "games_played_difference_index": report.games_played_difference_index,
        "rest_difference_index": report.rest_difference_index,
        "always_longer_rest_teams": sorted(report.always_longer_rest_teams),
        "rest_profiles": {str(t): list(report.rest_profiles[t]) for t in teams},
    }
    assert list(doc["rest_profiles"]) == [str(t) for t in teams]
    return doc


# report_to_json's exact bytes for three reports: (schedule, text at
# indent=None, text at indent=2).  The last has empty profiles and a null rest.
_REPORT_BYTES = [
    (lambda: odd_optimal_schedule(5),
     '{"n": 5, "m": 1, "guaranteed_rest_time": 1, "games_played_difference_index": 1, '
     '"rest_difference_index": 1, "always_longer_rest_teams": [2], "rest_profiles": '
     '{"1": [1, 2, 2], "2": [2, 2, 2], "3": [1, 1, 1], "4": [2, 1, 1], "5": [1, 2, '
     '1]}}\n',
     """\
{
  "n": 5,
  "m": 1,
  "guaranteed_rest_time": 1,
  "games_played_difference_index": 1,
  "rest_difference_index": 1,
  "always_longer_rest_teams": [
    2
  ],
  "rest_profiles": {
    "1": [
      1,
      2,
      2
    ],
    "2": [
      2,
      2,
      2
    ],
    "3": [
      1,
      1,
      1
    ],
    "4": [
      2,
      1,
      1
    ],
    "5": [
      1,
      2,
      1
    ]
  }
}
"""),
    (lambda: duplicate_rounds(circle_schedule(4), 2),
     '{"n": 4, "m": 2, "guaranteed_rest_time": 0, "games_played_difference_index": 1, '
     '"rest_difference_index": 1, "always_longer_rest_teams": [], "rest_profiles": '
     '{"1": [1, 1, 1, 1, 1], "2": [1, 1, 1, 0, 1], "3": [1, 0, 1, 2, 1], "4": [1, 2, '
     '1, 1, 1]}}\n',
     """\
{
  "n": 4,
  "m": 2,
  "guaranteed_rest_time": 0,
  "games_played_difference_index": 1,
  "rest_difference_index": 1,
  "always_longer_rest_teams": [],
  "rest_profiles": {
    "1": [
      1,
      1,
      1,
      1,
      1
    ],
    "2": [
      1,
      1,
      1,
      0,
      1
    ],
    "3": [
      1,
      0,
      1,
      2,
      1
    ],
    "4": [
      1,
      2,
      1,
      1,
      1
    ]
  }
}
"""),
    (lambda: circle_schedule(2),
     '{"n": 2, "m": 1, "guaranteed_rest_time": null, "games_played_difference_index": '
     '0, "rest_difference_index": 0, "always_longer_rest_teams": [], "rest_profiles": '
     '{"1": [], "2": []}}\n',
     """\
{
  "n": 2,
  "m": 1,
  "guaranteed_rest_time": null,
  "games_played_difference_index": 0,
  "rest_difference_index": 0,
  "always_longer_rest_teams": [],
  "rest_profiles": {
    "1": [],
    "2": []
  }
}
"""),
]


class TestReportToJson:
    def test_evaluated_reports_round_trip(self, rng):
        for n in range(2, 10):
            for m in (1, 2, 3):
                _check_written(evaluate(random_schedule(rng, n, m)))

    @pytest.mark.parametrize("build, compact, indented", _REPORT_BYTES,
                             ids=["odd-optimal-5", "circle-4-doubled", "two-teams"])
    def test_bytes_are_pinned(self, build, compact, indented):
        report = evaluate(build())
        assert report_to_json(report) == compact
        assert report_to_json(report, indent=2) == indented


class TestDuplicationInvariance:
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("factor", [2, 3])
    def test_even_circle_preserves_all_three(self, n, factor):
        base = evaluate(circle_schedule(n))
        dup = evaluate(duplicate_rounds(circle_schedule(n), factor))
        assert dup.guaranteed_rest_time == base.guaranteed_rest_time
        assert dup.rest_difference_index == base.rest_difference_index
        assert dup.games_played_difference_index == base.games_played_difference_index

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("factor", [2, 3])
    def test_odd_optimal_preserves_guaranteed_rest(self, n, factor):
        base = evaluate(odd_optimal_schedule(n))
        dup = evaluate(duplicate_rounds(odd_optimal_schedule(n), factor))
        assert dup.guaranteed_rest_time == base.guaranteed_rest_time

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("factor", [2, 3])
    def test_odd_duplication_stretches_byes(self, n, factor):
        # A bye round grows from k to factor*k games while the opponent of
        # the returning team rests as before, so the rest difference index
        # of a schedule with byes grows under duplication (the derivation
        # of d = factor*k - k + 1 is in notes/decisions.md).
        k = (n - 1) // 2
        dup = evaluate(duplicate_rounds(odd_optimal_schedule(n), factor))
        assert dup.rest_difference_index > 1
        assert dup.rest_difference_index >= factor * k - k + 1


@st.composite
def schedule_and_permutation(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    games = draw(st.permutations(all_pairs(n)))
    perm = draw(st.permutations(list(range(1, n + 1))))
    mapping = {t: p for t, p in zip(range(1, n + 1), perm)}
    return make_schedule(n, 1, games), mapping


class TestProperties:
    @given(schedule_and_permutation())
    @settings(max_examples=80, deadline=None)
    def test_relabeling_invariance(self, case):
        s, mapping = case
        relabeled = make_schedule(
            s.team_count, 1, [(mapping[a], mapping[b]) for a, b in s.games])
        assert triple(relabeled) == triple(s)
        assert evaluate(relabeled).always_longer_rest_teams == {
            mapping[t] for t in evaluate(s).always_longer_rest_teams}

    @given(st.integers(min_value=3, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_indices_at_least_one_for_three_plus_teams(self, n, rnd):
        s = random_schedule(rnd, n)
        report = evaluate(s)
        assert report.games_played_difference_index >= 1
        assert report.rest_difference_index >= 1


class TestOracleAgreement:
    def test_production_matches_brute_force(self, rng):
        for _ in range(300):
            n = rng.randint(4, 9)
            m = 2 if rng.random() < 0.2 else 1
            s = random_schedule(rng, n, m)
            report = evaluate(s)
            assert report.guaranteed_rest_time == brute_guaranteed_rest_time(s)
            assert (report.games_played_difference_index
                    == brute_games_played_difference_index(s))
            assert report.rest_difference_index == brute_rest_difference_index(s)
            assert report.always_longer_rest_teams == brute_always_longer_rest_teams(s)

    def test_production_matches_brute_force_triple_round_robin(self, rng):
        # Game counts reach m(n - 1), so the two position columns that p is
        # read from run longer at m = 3.
        for _ in range(60):
            s = random_schedule(rng, rng.randint(3, 8), 3)
            report = evaluate(s)
            assert report.guaranteed_rest_time == brute_guaranteed_rest_time(s)
            assert (report.games_played_difference_index
                    == brute_games_played_difference_index(s))
            assert report.rest_difference_index == brute_rest_difference_index(s)
            assert report.always_longer_rest_teams == brute_always_longer_rest_teams(s)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_front_loaded_spread(self, n, m):
        # Team 1 plays all its games first, m times over, and the other pairs
        # follow in lexicographic order: p peaks at m(n - 2), as team 1 ends.
        others = [(a, b) for a, b in all_pairs(n) if a != 1]
        games = [(1, b) for b in range(2, n + 1)] * m + others * m
        s = make_schedule(n, m, games)
        spread = evaluate(s).games_played_difference_index
        assert spread == brute_games_played_difference_index(s)
        assert spread == m * (n - 2)

    def test_rest_profiles_are_appearance_gaps(self, rng):
        for _ in range(100):
            s = random_schedule(rng, rng.randint(2, 9), rng.randint(1, 3))
            profiles = evaluate(s).rest_profiles
            assert sorted(profiles) == list(s.teams)
            for team in s.teams:
                positions = [i for i, game in enumerate(s.games) if team in game]
                assert list(profiles[team]) == [v - u - 1 for u, v in
                                                zip(positions, positions[1:])]

    def test_oracle_agrees_on_fixture_values(self):
        s = make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_A)
        assert (brute_guaranteed_rest_time(s),
                brute_games_played_difference_index(s),
                brute_rest_difference_index(s)) == (1, 2, 1)
