"""Command-line interface: generate, evaluate, search, verify.

Exit codes are a stable scripting contract: 0 for success or a passing
claim, 1 for an honest negative (no schedule found in mode "first", or a
failing claim), 2 for usage and input errors, and 141 (128 + SIGPIPE, as a
shell reports for ``cat``) with nothing printed when the reader of standard
output closes it early, as ``rrsched search ... | head`` does.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports the modules it runs, when it runs: without a bytecode
# cache, a command-line run pays to compile every module it imports.

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

_METHODS = ("circle", "odd-optimal")


class _ClaimOption(argparse.Action):
    """``--claim NAME``.  Its help lists the claims, read only when help is
    printed: the claims module imports every other module."""

    @property
    def help(self):
        from .claims import CLAIM_NAMES

        return f"one of: {', '.join(CLAIM_NAMES)}"

    @help.setter
    def help(self, value):
        # Action.__init__ stores the help passed to add_argument; none is.
        pass

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrsched",
        description="Generate, evaluate, and search asynchronous round-robin schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a schedule")
    gen.add_argument("--teams", type=int, required=True, help="number of teams")
    gen.add_argument("--method", choices=_METHODS, required=True,
                     help="construction to use")
    gen.add_argument("--multiplicity", type=int, default=1,
                     help="repeat each round this many times (default 1)")
    gen.add_argument("--format", choices=("text", "structured"), default="text",
                     help="output format (default text)")
    gen.add_argument("--output", metavar="FILE", help="write to FILE instead of stdout")

    ev = sub.add_parser("evaluate", help="compute the quality measures of a schedule")
    ev.add_argument("file", nargs="?", metavar="FILE",
                    help="schedule file (text or structured); stdin when omitted")
    ev.add_argument("--format", choices=("table", "structured"), default="table",
                    help="report format (default table)")

    se = sub.add_parser("search", help="enumerate schedules under constraints")
    se.add_argument("--teams", type=int, required=True)
    se.add_argument("--min-rest", type=int, default=None,
                    help="require at least this many games of rest between a team's games")
    se.add_argument("--max-gpd", type=int, default=None,
                    help="cap the games-played spread after every game")
    se.add_argument("--max-rdi", type=int, default=None,
                    help="cap the per-game rest difference")
    se.add_argument("--mode", choices=("first", "count", "enumerate"), required=True)
    se.add_argument("--limit", type=int, default=None,
                    help="stop enumerate mode after this many schedules")
    se.add_argument("--no-symmetry-breaking", action="store_true",
                    help="enumerate raw labelings instead of canonical ones")
    se.add_argument("--jobs", type=int, default=1,
                    help="worker processes, at most the CPU count; output is identical "
                         "for any value; only a first run, or a count that keeps no "
                         "table of states, uses them, since a pool made other runs slower")
    se.add_argument("--allow-large", action="store_true",
                    help="permit team counts and unconstrained runs the tool would refuse")

    ve = sub.add_parser("verify", help="check a named claim")
    ve.add_argument("--claim", action=_ClaimOption, required=True, metavar="NAME")
    ve.add_argument("--teams", type=int, default=None,
                    help="team count (defaults to the smallest the claim covers; "
                         "search-backed claims stop at 8)")

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    from .generators import circle_schedule, duplicate_rounds, odd_optimal_schedule
    from .model import _check_count, schedule_to_json, serialize_schedule

    # Checked first: a bad factor should not wait for a large schedule.
    _check_count("duplication factor", args.multiplicity, 1)
    generate = {"circle": circle_schedule, "odd-optimal": odd_optimal_schedule}[args.method]
    schedule = generate(args.teams)
    if args.multiplicity != 1:
        schedule = duplicate_rounds(schedule, args.multiplicity)
    if args.format == "structured":
        _emit(schedule_to_json(schedule, indent=2), args.output)
    else:
        _emit(serialize_schedule(schedule), args.output)
    return EXIT_OK


def _format_report_table(report) -> str:
    rest = report.guaranteed_rest_time
    always = " ".join(str(t) for t in sorted(report.always_longer_rest_teams)) or "none"
    rows = [
        ("teams", report.team_count),
        ("multiplicity", report.multiplicity),
        ("guaranteed rest time", "undefined" if rest is None else rest),
        ("games-played difference index", report.games_played_difference_index),
        ("rest difference index", report.rest_difference_index),
        ("always-longer-rest teams", always),
    ]
    for team in sorted(report.rest_profiles):
        profile = " ".join(str(r) for r in report.rest_profiles[team]) or "-"
        rows.append((f"rest profile team {team}", profile))
    width = max(len(label) for label, _ in rows) + 1
    return "".join(f"{label + ':':<{width}} {value}\n" for label, value in rows)


def _cmd_evaluate(args) -> int:
    from .metrics import evaluate, report_to_json
    from .model import load_schedule

    if args.file:
        with open(args.file, "rb") as handle:
            data = handle.read()
    else:
        data = sys.stdin.buffer.read()
    report = evaluate(load_schedule(data))
    if args.format == "structured":
        sys.stdout.write(report_to_json(report, indent=2))
    else:
        sys.stdout.write(_format_report_table(report))
    return EXIT_OK


def _cmd_search(args) -> int:
    from .model import serialize_schedule
    from .search import SearchConstraints, search

    constraints = SearchConstraints(min_rest=args.min_rest, max_gpd=args.max_gpd,
                                    max_rdi=args.max_rdi)
    outcome = search(args.teams, constraints, mode=args.mode, limit=args.limit,
                     symmetry_breaking=not args.no_symmetry_breaking,
                     jobs=args.jobs, allow_large=args.allow_large)
    if outcome.mode == "first":
        if outcome.found is None:
            sys.stdout.write(f"no schedule satisfies the constraints\n"
                             f"# nodes explored: {outcome.nodes_explored}\n")
            return EXIT_NEGATIVE
        sys.stdout.write(serialize_schedule(outcome.found))
        sys.stdout.write(f"# nodes explored: {outcome.nodes_explored}\n")
        return EXIT_OK
    if outcome.mode == "count":
        label = ("canonical labeled schedules" if not args.no_symmetry_breaking
                 else "labeled schedules")
        sys.stdout.write(f"count: {outcome.count} ({label}; newly computed, not a documented "
                         f"reference value)\n# nodes explored: {outcome.nodes_explored}\n")
        return EXIT_OK
    for i, schedule in enumerate(outcome.schedules, start=1):
        sys.stdout.write(f"# schedule {i}\n")
        sys.stdout.write(serialize_schedule(schedule))
    sys.stdout.write(f"# schedules emitted: {len(outcome.schedules)}\n"
                     f"# nodes explored: {outcome.nodes_explored}\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .claims import verify_claim
    from .model import serialize_schedule

    report = verify_claim(args.claim, args.teams)
    status = "PASS" if report.passed else "FAIL"
    scope = f" (teams={report.teams})" if report.teams is not None else ""
    line = f"{status} {report.claim}{scope}: {report.details}"
    if report.nodes_explored is not None:
        line += f" [nodes explored: {report.nodes_explored}]"
    sys.stdout.write(line + "\n")
    if report.witness is not None and not report.passed:
        sys.stdout.write("# counterexample:\n")
        sys.stdout.write(serialize_schedule(report.witness))
    return EXIT_OK if report.passed else EXIT_NEGATIVE


_COMMANDS = {
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "search": _cmd_search,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        # Flushed here, so that a closed pipe raises below and not at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        # ParseError and ScheduleValidationError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
