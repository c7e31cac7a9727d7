"""Command-line surface: flags, formats, exit codes."""

import io
import json
import subprocess
import sys

import pytest

from rrsched import (
    CLAIM_NAMES,
    ClaimReport,
    load_schedule,
    make_schedule,
    odd_optimal_schedule,
    schedule_from_json,
    serialize_schedule,
)
from rrsched.cli import main
from rrsched.fixtures import TEN_TEAM_CIRCLE_OPENING

from reference import SEVEN_TEAM_OPTIMAL_ALTERNATE, SIX_TEAM_LOW_REST_DIFF_A

FIVE_TEAM_TEXT = "n 5\n1 2\n3 4\n1 5\n2 3\n4 5\n1 3\n2 4\n3 5\n1 4\n2 5\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_five_team_optimal_text(self, capsys):
        code, out, _ = run(capsys, "generate", "--teams", "5", "--method", "odd-optimal")
        assert code == 0
        assert out == FIVE_TEAM_TEXT

    def test_ten_team_circle_opening(self, capsys):
        code, out, _ = run(capsys, "generate", "--teams", "10", "--method", "circle")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n 10"
        assert len(lines) == 1 + 45
        games = [tuple(int(x) for x in line.split()) for line in lines[1:16]]
        assert games == TEN_TEAM_CIRCLE_OPENING

    def test_structured_round_trip(self, capsys):
        code, out, _ = run(capsys, "generate", "--teams", "7", "--method", "odd-optimal",
                           "--format", "structured")
        assert code == 0
        assert schedule_from_json(out) == odd_optimal_schedule(7)

    def test_multiplicity(self, capsys):
        code, out, _ = run(capsys, "generate", "--teams", "4", "--method", "circle",
                           "--multiplicity", "2")
        assert code == 0
        s = load_schedule(out)
        assert s.multiplicity == 2 and len(s) == 12

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "schedule.txt"
        code, out, _ = run(capsys, "generate", "--teams", "5", "--method", "odd-optimal",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == FIVE_TEAM_TEXT

    def test_parity_error_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--teams", "6", "--method", "odd-optimal")
        assert code == 2
        assert "odd" in err

    def test_bad_multiplicity_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--teams", "4", "--method", "circle",
                           "--multiplicity", "0")
        assert code == 2

    def test_bad_multiplicity_is_rejected_before_generating(self, capsys, monkeypatch):
        import rrsched.generators

        def refuse(teams):
            raise AssertionError("the schedule was generated")

        monkeypatch.setattr(rrsched.generators, "circle_schedule", refuse)
        code, out, err = run(capsys, "generate", "--teams", "800", "--method", "circle",
                             "--multiplicity", "0")
        assert code == 2 and out == ""
        assert "duplication factor must be >= 1, got 0" in err

    def test_tiny_team_count_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--teams", "1", "--method", "circle")
        assert code == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        target = tmp_path / "missing" / "schedule.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "rrsched", "generate", "--teams", "5",
             "--method", "circle", "--output", str(target)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


class TestEvaluate:
    def test_file_table(self, capsys, tmp_path):
        target = tmp_path / "s.txt"
        target.write_text(FIVE_TEAM_TEXT)
        code, out, _ = run(capsys, "evaluate", str(target))
        assert code == 0
        assert "guaranteed rest time:" in out and " 1" in out
        assert "games-played difference index:" in out
        assert "always-longer-rest teams:" in out

    def test_stdin(self, capsys, monkeypatch):
        fake = io.TextIOWrapper(io.BytesIO(FIVE_TEAM_TEXT.encode()))
        monkeypatch.setattr(sys, "stdin", fake)
        code, out, _ = run(capsys, "evaluate")
        assert code == 0
        assert "rest difference index:" in out

    def test_structured_report(self, capsys, tmp_path):
        target = tmp_path / "s.txt"
        target.write_text(FIVE_TEAM_TEXT)
        code, out, _ = run(capsys, "evaluate", str(target), "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["m"]) == (5, 1)
        assert (doc["guaranteed_rest_time"],
                doc["games_played_difference_index"],
                doc["rest_difference_index"]) == (1, 1, 1)

    def test_structured_input_accepted(self, capsys, tmp_path):
        target = tmp_path / "s.json"
        target.write_text('{"n": 3, "games": [[1, 2], [1, 3], [2, 3]]}')
        code, out, _ = run(capsys, "evaluate", str(target))
        assert code == 0

    def test_six_team_reference_schedule_table(self, capsys, monkeypatch):
        text = serialize_schedule(make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_A))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        code, out, _ = run(capsys, "evaluate")
        assert code == 0
        assert "guaranteed rest time:          1" in out
        assert "games-played difference index: 2" in out
        assert "rest difference index:         1" in out

    def test_seven_team_alternate_reference_report(self, capsys, tmp_path):
        target = tmp_path / "alt.txt"
        target.write_text(serialize_schedule(make_schedule(7, 1, SEVEN_TEAM_OPTIMAL_ALTERNATE)))
        code, out, _ = run(capsys, "evaluate", str(target), "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert (doc["guaranteed_rest_time"],
                doc["games_played_difference_index"],
                doc["rest_difference_index"]) == (2, 1, 1)

    def test_truncated_file_exits_2(self, capsys, tmp_path):
        target = tmp_path / "bad.txt"
        target.write_text("n 5\n1 2\n3 4\n")
        code, _, err = run(capsys, "evaluate", str(target))
        assert code == 2
        assert "wrong number of games" in err

    @pytest.mark.parametrize("text", [
        '{"n": 3, "games": [[true, 2], [1, 3], [2, 3]]}\n',
        "n 0\n",
        "n 3\nm 0\n1 2\n1 3\n2 3\n",
        "n 3\n1 2\n1 3\n2 0_3\n",
        "n \u0663\n1 2\n1 3\n2 3\n",
        '{"n": ' + "[" * 200_000 + "]" * 200_000 + "}\n",
        b"n 3\n1 2\n1 3\n2 \xff\n",
    ])
    def test_rejected_input_exits_2(self, capsys, tmp_path, text):
        target = tmp_path / "bad.txt"
        target.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        code, out, err = run(capsys, "evaluate", str(target))
        assert code == 2
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"n": 3, "games": 5}\n', "field 'games' must be an array of [a, b] pairs"),
        ("[[1, 2], [1, 3], [2, 3]]\n", "structured schedule must be a JSON object"),
    ], ids=["games-not-an-array", "json-array"])
    def test_structured_document_error_exits_2(self, capsys, tmp_path, text, message):
        target = tmp_path / "bad.json"
        target.write_text(text)
        code, out, err = run(capsys, "evaluate", str(target))
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "n 3\n1 2\n1 3\n2 3\n",
        '{"n": 3, "games": [[1, 2], [1, 3], [2, 3]]}',
    ])
    def test_leading_byte_order_mark_is_accepted(self, capsys, tmp_path, text):
        target = tmp_path / "s.txt"
        target.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, out, err = run(capsys, "evaluate", str(target))
        assert (code, err) == (0, "")
        assert "guaranteed rest time:" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "evaluate", str(tmp_path / "nope.txt"))
        assert code == 2


class TestSearch:
    def test_impossibility_exits_1(self, capsys):
        code, out, _ = run(capsys, "search", "--teams", "6", "--min-rest", "1",
                           "--max-gpd", "1", "--max-rdi", "1", "--mode", "first")
        assert code == 1
        assert "no schedule" in out
        assert "# nodes explored:" in out

    def test_first_prints_parseable_schedule(self, capsys):
        code, out, _ = run(capsys, "search", "--teams", "5", "--min-rest", "1",
                           "--mode", "first")
        assert code == 0
        s = load_schedule(out)  # comment lines are ignored by the parser
        assert s.team_count == 5

    def test_count_labels_canonical(self, capsys):
        code, out, _ = run(capsys, "search", "--teams", "5", "--min-rest", "1",
                           "--mode", "count")
        assert code == 0
        assert "count: 8" in out
        assert "canonical" in out

    def test_enumerate_with_limit(self, capsys):
        code, out, _ = run(capsys, "search", "--teams", "5", "--min-rest", "1",
                           "--mode", "enumerate", "--limit", "2")
        assert code == 0
        assert out.count("# schedule ") == 2
        assert "# schedules emitted: 2" in out

    def test_jobs_flag_gives_identical_output(self, capsys):
        _, solo, _ = run(capsys, "search", "--teams", "5", "--min-rest", "1",
                         "--mode", "enumerate")
        _, duo, _ = run(capsys, "search", "--teams", "5", "--min-rest", "1",
                        "--mode", "enumerate", "--jobs", "2")
        assert solo == duo

    def test_no_symmetry_breaking_count(self, capsys):
        code, out, _ = run(capsys, "search", "--teams", "4", "--max-gpd", "3",
                           "--mode", "count", "--no-symmetry-breaking")
        assert code == 0
        assert "count: 720" in out

    # The walk once recursed a level per game and died here with a
    # RecursionError and exit 1, the code for "no schedule".
    def test_walk_deeper_than_the_recursion_limit(self, capsys):
        code, out, _ = run(capsys, "search", "--teams", "46", "--mode", "first",
                           "--allow-large")
        assert code == 0
        assert out.splitlines()[-1] == "# nodes explored: 1035"

    def test_oversized_without_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "--teams", "9", "--min-rest", "4",
                           "--mode", "first")
        assert code == 2
        assert "allow_large" in err

    def test_unconstrained_refusal_mentions_override(self, capsys):
        code, _, err = run(capsys, "search", "--teams", "6", "--mode", "count")
        assert code == 2
        assert "unconstrained" in err

    def test_zero_limit_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "--teams", "5", "--min-rest", "1",
                           "--mode", "enumerate", "--limit", "0")
        assert code == 2

    # count once printed "count: 8" and exited 0, ignoring the limit.
    @pytest.mark.parametrize("mode", ["first", "count"])
    def test_limit_outside_enumerate_exits_2(self, capsys, mode):
        code, out, err = run(capsys, "search", "--teams", "5", "--min-rest", "1",
                             "--mode", mode, "--limit", "1")
        assert (code, out) == (2, "")
        assert "limit applies only to mode 'enumerate'" in err


class TestVerify:
    def test_pass_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "figure-fixtures")
        assert code == 0
        assert out.startswith("PASS figure-fixtures")

    def test_search_backed_claim_reports_nodes(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "even-impossibility", "--teams", "6")
        assert code == 0
        assert "[nodes explored:" in out

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "made-up")
        assert code == 2
        assert "unknown claim" in err

    def test_parity_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "odd-rest-bound", "--teams", "4")
        assert code == 2

    # b is undefined for two teams, so the claim once failed there and exited 1.
    def test_duplication_below_three_teams_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--claim", "duplication-preserves",
                             "--teams", "2")
        assert (code, out) == (2, "")
        assert "'duplication-preserves' team count must be >= 3" in err

    def test_search_backed_claim_above_eight_teams_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--claim", "even-impossibility",
                             "--teams", "10")
        assert (code, out) == (2, "")
        assert "claim 'even-impossibility' team count must be <= 8, got 10" in err
        assert "allow_large" not in err

    def test_help_lists_every_claim(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a name
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in CLAIM_NAMES)

    def test_failing_claim_exits_1(self, capsys, monkeypatch):
        import rrsched.claims

        def fake_verify(claim, teams=None):
            return ClaimReport(claim=claim, teams=teams, passed=False,
                               details="synthetic failure",
                               witness=odd_optimal_schedule(5))

        monkeypatch.setattr(rrsched.claims, "verify_claim", fake_verify)
        code, out, _ = run(capsys, "verify", "--claim", "always-win", "--teams", "5")
        assert code == 1
        assert out.startswith("FAIL always-win")
        assert "# counterexample:" in out
        assert serialize_schedule(odd_optimal_schedule(5)) in out


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rrsched", "generate", "--teams", "3",
             "--method", "odd-optimal"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "n 3\n1 2\n1 3\n2 3\n"

    def test_pipe_generate_into_evaluate(self):
        gen = subprocess.run(
            [sys.executable, "-m", "rrsched", "generate", "--teams", "7",
             "--method", "odd-optimal", "--format", "structured"],
            capture_output=True, text=True)
        ev = subprocess.run(
            [sys.executable, "-m", "rrsched", "evaluate", "--format", "structured"],
            input=gen.stdout, capture_output=True, text=True)
        assert ev.returncode == 0
        doc = json.loads(ev.stdout)
        assert (doc["n"], doc["guaranteed_rest_time"]) == (7, 2)

    def test_closed_pipe_exits_141_quietly(self):
        # As in `rrsched search ... | head -c 5`: the reader takes 5 bytes of
        # some 250 kB and closes the pipe while the search still writes.
        with subprocess.Popen(
                [sys.executable, "-m", "rrsched", "search", "--teams", "6", "--min-rest", "1",
                 "--mode", "enumerate", "--limit", "3000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(5) == b"# sch"
            proc.stdout.close()
            proc.wait(timeout=60)
            assert (proc.returncode, proc.stderr.read()) == (141, b"")

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "rrsched"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
