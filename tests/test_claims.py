"""Claim registry: every named verification runs and reports honestly."""

import re
from pathlib import Path

import pytest

from rrsched import CLAIM_NAMES, verify_claim

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


class TestExplicitTeamCounts:
    def test_even_circle_metrics_eight(self):
        report = verify_claim("even-circle-metrics", 8)
        assert report.passed and "(2, 1, 2)" in report.details

    def test_odd_optimal_metrics_nine(self):
        report = verify_claim("odd-optimal-metrics", 9)
        assert report.passed and "(3, 1, 1)" in report.details

    def test_odd_optimal_metrics_eleven(self):
        assert verify_claim("odd-optimal-metrics", 11).passed

    def test_even_impossibility_reports_exhaustion(self):
        report = verify_claim("even-impossibility", 6)
        assert report.passed
        assert report.nodes_explored > 0
        assert report.witness is None

    def test_rest_bounds_at_larger_counts(self):
        assert verify_claim("even-rest-bound", 6).passed
        assert verify_claim("odd-rest-bound", 5).passed
        assert verify_claim("odd-rest-bound", 7).passed

    def test_impossibility_at_eight_teams(self):
        assert verify_claim("even-impossibility", 8).passed

    def test_lemma_and_always_win_at_five(self):
        lemma = verify_claim("odd-rdi-lemma", 5)
        assert lemma.passed and "8 canonical" in lemma.details
        always = verify_claim("always-win", 5)
        assert always.passed

    def test_duplication_with_explicit_counts(self):
        assert verify_claim("duplication-preserves", 6).passed
        assert verify_claim("duplication-preserves", 5).passed


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
