"""Claim registry: every named verification runs and reports honestly."""

import re
from pathlib import Path

import pytest

import rrsched.claims as claims
from rrsched import (
    CLAIM_NAMES,
    Schedule,
    SearchOutcome,
    circle_schedule,
    duplicate_rounds,
    evaluate,
    odd_optimal_schedule,
    verify_claim,
)

README = Path(__file__).resolve().parents[1] / "README.md"


class TestDefaults:
    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_every_claim_passes_at_its_default(self, claim):
        report = verify_claim(claim)
        assert report.passed, f"{claim}: {report.details}"

    def test_defaults_are_the_smallest_covered_team_counts(self):
        assert verify_claim("even-rest-bound").teams == 4
        assert verify_claim("even-impossibility").teams == 6
        assert verify_claim("odd-rest-bound").teams == 3
        assert verify_claim("odd-circle-metrics").teams == 5
        assert verify_claim("figure-fixtures").teams is None


_DUP_EVEN = "both difference indices preserved on every-round (even) schedules"
_DUP_ODD = ("byes stretch under duplication, so rest difference is not preserved "
            "with odd team counts and is not asserted")


# Every report in full, recorded before the claims became table rows (the
# rows for odd-rest-bound 5, odd-rdi-lemma 5 and odd-optimal-metrics 11
# before the search reused twin-swapped subtrees), so a change of wording or
# of node count shows here and not only in a substring.
@pytest.mark.parametrize("claim, teams, want_teams, details, nodes", [
    ("even-rest-bound", None, 4,
     "no schedule with rest time >= 1 (claimed maximum is 0); search exhausted", 2),
    ("even-circle-metrics", None, 4, "expected (b, p, d) = (0, 1, 1), got (0, 1, 1)", None),
    ("even-impossibility", None, 6,
     "no schedule with rest time 1 and both difference indices 1; search exhausted", 19),
    ("odd-rest-bound", None, 3,
     "no schedule with rest time >= 1 (claimed maximum is 0); search exhausted", 1),
    ("odd-circle-metrics", None, 5, "expected (b, p, d) = (0, 2, 3), got (0, 2, 3)", None),
    ("odd-optimal-metrics", None, 3, "expected (b, p, d) = (0, 1, 1), got (0, 1, 1)", None),
    ("odd-rdi-lemma", None, 3,
     "2 canonical schedule(s) with rest time 0; 0 with rest difference index != 1", 5),
    ("always-win", None, 3,
     "2 canonical schedule(s) with rest time 0; 0 without an always-better-rested team", 5),
    ("figure-fixtures", None, None, "all reference fixtures reproduced exactly", None),
    ("duplication-preserves", None, None,
     f"rest time preserved under duplication; {_DUP_EVEN}; {_DUP_ODD}", None),
    ("even-rest-bound", 6, 6,
     "no schedule with rest time >= 2 (claimed maximum is 1); search exhausted", 3),
    ("odd-rest-bound", 5, 5,
     "no schedule with rest time >= 2 (claimed maximum is 1); search exhausted", 2),
    ("odd-rdi-lemma", 5, 5,
     "8 canonical schedule(s) with rest time 1; 0 with rest difference index != 1", 92),
    ("odd-optimal-metrics", 11, 11, "expected (b, p, d) = (4, 1, 1), got (4, 1, 1)", None),
    ("even-circle-metrics", 8, 8, "expected (b, p, d) = (2, 1, 2), got (2, 1, 2)", None),
    ("even-impossibility", 8, 8,
     "no schedule with rest time 2 and both difference indices 1; search exhausted", 388),
    ("odd-rest-bound", 7, 7,
     "no schedule with rest time >= 3 (claimed maximum is 2); search exhausted", 3),
    ("odd-circle-metrics", 7, 7, "expected (b, p, d) = (1, 2, 4), got (1, 2, 4)", None),
    ("odd-optimal-metrics", 9, 9, "expected (b, p, d) = (3, 1, 1), got (3, 1, 1)", None),
    ("odd-rdi-lemma", 7, 7,
     "16 canonical schedule(s) with rest time 2; 0 with rest difference index != 1", 1361),
    ("always-win", 5, 5,
     "8 canonical schedule(s) with rest time 1; 0 without an always-better-rested team", 92),
    ("duplication-preserves", 5, 5, f"rest time preserved under duplication; {_DUP_ODD}", None),
    ("duplication-preserves", 6, 6, f"rest time preserved under duplication; {_DUP_EVEN}", None),
])
def test_report_is_pinned(claim, teams, want_teams, details, nodes):
    report = verify_claim(claim, teams)
    assert (report.passed, report.teams, report.details, report.nodes_explored) == (
        True, want_teams, details, nodes)
    assert report.witness is None


class TestValidation:
    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="unknown claim"):
            verify_claim("no-such-claim")

    def test_parity_mismatch(self):
        with pytest.raises(ValueError, match="even"):
            verify_claim("even-circle-metrics", 5)
        with pytest.raises(ValueError, match="odd"):
            verify_claim("odd-optimal-metrics", 6)

    def test_below_minimum(self):
        with pytest.raises(ValueError, match="team count must be >= "):
            verify_claim("even-impossibility", 4)
        with pytest.raises(ValueError, match="team count must be >= "):
            verify_claim("odd-circle-metrics", 3)

    @pytest.mark.parametrize("claim, teams", [
        ("odd-rest-bound", 7.0),
        ("odd-rest-bound", True),
        ("even-rest-bound", 4.0),
        ("even-rest-bound", False),
        ("odd-optimal-metrics", "5"),
    ])
    def test_non_int_team_count(self, claim, teams):
        with pytest.raises(ValueError, match="team count must be an integer"):
            verify_claim(claim, teams)

    # The search behind these claims stops at 8 teams; the refusal is worded
    # as the claim's own count check, since verify has no allow_large.
    @pytest.mark.parametrize("claim, teams", [
        ("even-rest-bound", 10),
        ("even-impossibility", 10),
        ("odd-rest-bound", 9),
        ("odd-rdi-lemma", 9),
        ("always-win", 9),
    ])
    def test_search_backed_claim_above_eight_teams(self, claim, teams):
        with pytest.raises(ValueError) as exc:
            verify_claim(claim, teams)
        assert str(exc.value) == f"claim {claim!r} team count must be <= 8, got {teams}"

    def test_fixture_claim_takes_no_team_count(self):
        with pytest.raises(ValueError):
            verify_claim("figure-fixtures", 10)

    # b is undefined for two teams before duplication, so n = 2 once failed
    # the claim; the others were refused by a generator, in its own words.
    @pytest.mark.parametrize("teams, message", [
        (2, "team count must be >= 3"),
        (1, "team count must be >= 3"),
        (7.0, "team count must be an integer"),
        (True, "team count must be an integer"),
    ])
    def test_duplication_team_count(self, teams, message):
        with pytest.raises(ValueError, match=message):
            verify_claim("duplication-preserves", teams)


def test_readme_lists_every_claim_in_order():
    match = re.search(r"^Claims: (.*?)\.$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no 'Claims:' list"
    assert tuple(re.findall(r"`([^`]+)`", match.group(1))) == CLAIM_NAMES


class TestFailingClaims:
    """Each claim helper's failing branch, reached by stubbing what it calls."""

    def test_empty_search_claim_reports_its_counterexample(self, monkeypatch):
        witness = circle_schedule(4)
        monkeypatch.setattr(claims, "search", lambda n, constraints, mode: SearchOutcome(
            mode=mode, nodes_explored=7, found=witness))
        report = verify_claim("even-rest-bound")
        assert (report.passed, report.teams, report.details, report.nodes_explored) == (
            False, 4, "counterexample found: a schedule with rest time >= 1 "
            "(claimed maximum is 0) exists", 7)
        assert report.witness is witness

    def test_expected_metrics_claim_reports_the_wrong_triple(self, monkeypatch):
        monkeypatch.setattr(claims, "odd_optimal_schedule", circle_schedule)
        report = verify_claim("odd-optimal-metrics", 5)
        assert (report.passed, report.details, report.nodes_explored, report.witness) == (
            False, "expected (b, p, d) = (1, 1, 1), got (0, 2, 3)", None, None)

    def test_max_rest_claim_reports_its_first_bad_schedule(self, monkeypatch):
        good = odd_optimal_schedule(5)
        bad = [circle_schedule(5),
               Schedule(5, 1, sorted(circle_schedule(5).games))]
        assert [evaluate(s).rest_difference_index != 1 for s in (good, *bad)] == [
            False, True, True]
        monkeypatch.setattr(claims, "search", lambda n, constraints, mode: SearchOutcome(
            mode=mode, nodes_explored=11, schedules=(good, *bad)))
        report = verify_claim("odd-rdi-lemma", 5)
        assert (report.passed, report.details, report.nodes_explored) == (
            False, "3 canonical schedule(s) with rest time 1; "
            "2 with rest difference index != 1", 11)
        assert report.witness is bad[0]

    def test_max_rest_claim_fails_on_an_empty_enumeration(self, monkeypatch):
        monkeypatch.setattr(claims, "search", lambda n, constraints, mode: SearchOutcome(
            mode=mode, nodes_explored=1))
        report = verify_claim("always-win", 5)
        assert (report.passed, report.details, report.nodes_explored, report.witness) == (
            False, "0 canonical schedule(s) with rest time 1; "
            "0 without an always-better-rested team", 1, None)

    def test_figure_fixtures_names_each_mismatch(self, monkeypatch):
        monkeypatch.setattr(claims, "odd_optimal_schedule", circle_schedule)
        report = verify_claim("figure-fixtures")
        assert (report.passed, report.details, report.witness) == (
            False, "mismatch in: 5-team optimal schedule, 7-team optimal schedule", None)

    @pytest.mark.parametrize("teams", [5, 6])
    def test_duplication_preserves_names_each_change(self, monkeypatch, teams):
        # A triple copy in sorted game order puts a team in back-to-back
        # games, so its rest time drops to 0.
        def duplicate(s, factor):
            copy = duplicate_rounds(s, factor)
            if factor == 3:
                return Schedule(s.team_count, 3, sorted(copy.games))
            return copy

        monkeypatch.setattr(claims, "duplicate_rounds", duplicate)
        report = verify_claim("duplication-preserves", teams)
        assert (report.passed, report.teams, report.details) == (
            False, teams, f"changed for: n={teams} x3")
