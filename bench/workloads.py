"""Seeded inputs, timed ops and their correctness checks, per workload.

A workload is a list of :class:`Op` built from a seed.  Each op calls rrsched
through its public API (or its command line) and wraps every call into a
layer in a span.  Each check compares the result with a reference that does
not come from the code under test: closed forms for the generated schedules,
and the checked-in ``catalogue.json`` for search and claims.

Running this file builds one workload's inputs and prints ``ready``; the
benchmark times that from a fresh interpreter as ``setup_s``::

    python3 bench/workloads.py pipeline 7
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "rrsched" / "__init__.py").is_file():
    raise SystemExit(f"error: no rrsched package under {SRC}")
sys.path.insert(0, str(SRC))

from rrsched import (  # noqa: E402
    SearchConstraints,
    circle_schedule,
    duplicate_rounds,
    evaluate,
    load_schedule,
    odd_optimal_schedule,
    report_to_json,
    schedule_to_json,
    search,
    serialize_schedule,
    verify_claim,
)

WORKLOADS = ("pipeline", "search", "search-jobs2", "cli")
CATALOGUE = Path(__file__).with_name("catalogue.json")

# Ops per pass (even counts: sizes are drawn in pairs).  pipeline: half m=1,
# a quarter each m=2 and m=3, n log-uniform over [16, 160].  cli: generate,
# evaluate from a file, evaluate from stdin, search and verify invocations,
# n uniform over [8, 60].
PIPELINE_MIX = ((1, 52), (2, 26), (3, 26))
PIPELINE_N = (16, 160)
CLI_N = (8, 60)
CLI_GENERATE, CLI_EVALUATE_FILE, CLI_EVALUATE_STDIN = 12, 8, 8
CLI_SEARCH_CASES = ("n5-gpd1-count", "n5-rest1-enumerate", "n7-rest2-count",
                    "n7-rest3-first", "n8-rest2-rdi2-first", "n8-rest2-gpd2-rdi1-first")
CLI_FIXED_CLAIMS = (("even-impossibility", 8), ("odd-rdi-lemma", 7),
                    ("figure-fixtures", None), ("duplication-preserves", None))


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``run(span)`` calls the program and returns its result;
    ``check(result, expected)`` returns a failure message, or None.
    """

    name: str
    run: Callable[[Callable], Any]
    check: Callable[[Any, Any], "str | None"]
    expected: Any


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The op list for one workload and seed; cli input files go to ``workdir``."""
    if workload == "pipeline":
        return pipeline_ops(seed)
    if workload in ("search", "search-jobs2"):
        return search_ops(seed, jobs=2 if workload == "search-jobs2" else 1)
    if workload == "cli":
        return cli_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------- references

def reference_bpd(method: str, n: int, m: int) -> tuple[int, int, int]:
    """Closed-form (b, p, d) of a generated schedule, duplicated m-fold.

    With k = n/2 (even n) or (n-1)/2 (odd n): the even circle gives
    (k-2, 1, 2) for any m, and (0, 1, 1) at n = 4; the odd circle gives
    (k-2, m+1, m*k+1); odd-optimal gives (k-1, m, (m-1)*k+1).
    """
    k = n // 2
    if method == "circle":
        if n % 2 == 0:
            return (0, 1, 1) if n == 4 else (k - 2, 1, 2)
        return (k - 2, m + 1, m * k + 1)
    return (k - 1, m, (m - 1) * k + 1)


def oriented(schedule) -> list[tuple[int, int]]:
    """Games in stored order and orientation; accepts games held as objects
    with ``a`` and ``b`` attributes or as (a, b) pairs."""
    games = schedule.games
    if games and hasattr(games[0], "a"):
        return [(g.a, g.b) for g in games]
    return [(a, b) for a, b in games]


def games_digest(schedules) -> str:
    """Order- and orientation-exact digest of a list of schedules."""
    h = hashlib.sha256()
    for s in schedules:
        h.update(" ".join(f"{a}-{b}" for a, b in oriented(s)).encode() + b"\n")
    return h.hexdigest()[:16]


def _pair_counts_ok(games: list[tuple[int, int]], n: int, m: int) -> bool:
    counts: dict[tuple[int, int], int] = {}
    for a, b in games:
        if a == b or not (1 <= a <= n and 1 <= b <= n):
            return False
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + 1
    return len(counts) == n * (n - 1) // 2 and all(c == m for c in counts.values())


def constraint_violation(schedule, n: int, constraints: dict) -> str | None:
    """Why a search result breaks its constraints, or None if it meets them."""
    if not _pair_counts_ok(oriented(schedule), n, 1):
        return "not a single round robin"
    report = evaluate(schedule)
    b = report.guaranteed_rest_time
    if "min_rest" in constraints and (b is None or b < constraints["min_rest"]):
        return f"rest time {b} < {constraints['min_rest']}"
    if report.games_played_difference_index > constraints.get("max_gpd", float("inf")):
        return f"games-played spread {report.games_played_difference_index}"
    if report.rest_difference_index > constraints.get("max_rdi", float("inf")):
        return f"rest difference {report.rest_difference_index}"
    return None


def _strata(rng: random.Random, count: int, low: int, high: int, log: bool) -> list[int]:
    # Two draws per equal-width stratum, at u and 1 - u: the inputs change
    # with the seed while the spread of sizes, and so of op costs, barely does.
    out = []
    strata = count // 2
    for i in range(strata):
        u = rng.random()
        for x in ((i + u) / strata, (i + 1 - u) / strata):
            out.append(round(low * (high / low) ** x if log else low + (high - low) * x))
    return out


def _generator(method: str):
    return circle_schedule if method == "circle" else odd_optimal_schedule


# ------------------------------------------------------------------ pipeline

def pipeline_ops(seed: int) -> list[Op]:
    """generate -> duplicate (m > 1) -> serialize -> load -> evaluate -> report."""
    rng = random.Random(seed)
    ops = []
    for m, count in PIPELINE_MIX:
        odd_flip, fmt_flip = rng.randrange(2), rng.randrange(2)
        sizes = _strata(rng, count, *PIPELINE_N, log=True)
        # The largest size is always the top of the range, so every seed has
        # the same largest working set and peak RSS compares like with like.
        sizes[sizes.index(max(sizes))] = PIPELINE_N[1]
        for i, n in enumerate(sizes):
            method = "odd-optimal" if n % 2 and (i + odd_flip) % 2 else "circle"
            fmt = "json" if (i // 2 + fmt_flip) % 2 else "text"
            ops.append(_pipeline_op(method, n, m, fmt))
    rng.shuffle(ops)
    return ops


def _pipeline_op(method: str, n: int, m: int, fmt: str) -> Op:
    generate = _generator(method)
    gen_layer = "generators.circle" if method == "circle" else "generators.odd_optimal"
    serialize = schedule_to_json if fmt == "json" else serialize_schedule

    def run(span):
        with span(gen_layer, n=n) as rec:
            schedule = generate(n)
            rec["games"] = len(schedule.games)
        if m > 1:
            with span("generators.duplicate", n=n) as rec:
                schedule = duplicate_rounds(schedule, m)
                rec["games"] = len(schedule.games)
        with span("model.serialize", n=n):
            data = serialize(schedule)
        with span("model.load", n=n) as rec:
            loaded = load_schedule(data)
            rec["games"] = len(loaded.games)
        with span("metrics.evaluate", n=n) as rec:
            report = evaluate(loaded)
            rec["games"] = len(loaded.games)
        with span("metrics.report_json", n=n):
            text = report_to_json(report)
        return schedule, loaded, text

    return Op(f"pipeline {method} n={n} m={m} {fmt}", run, _check_pipeline,
              (n, m, reference_bpd(method, n, m)))


def _check_pipeline(result, expected) -> str | None:
    schedule, loaded, text = result
    n, m, bpd = expected
    doc = json.loads(text)
    got = (doc["n"], doc["m"], (doc["guaranteed_rest_time"],
                                doc["games_played_difference_index"],
                                doc["rest_difference_index"]))
    if got != expected:
        return f"report (n, m, (b, p, d)) = {got}, expected {expected}"
    games = oriented(schedule)
    if not _pair_counts_ok(games, n, m):
        return "generated schedule is not an m-fold round robin"
    if oriented(loaded) != games:
        return "serialize/load round trip changed game order or orientation"
    return None


# -------------------------------------------------------------------- search

def load_catalogue() -> dict:
    return json.loads(CATALOGUE.read_text(encoding="utf-8"))


def search_ops(seed: int, jobs: int) -> list[Op]:
    """Every catalogue case once per pass, in a seeded order."""
    cases = load_catalogue()["cases"]
    random.Random(seed).shuffle(cases)
    return [_search_op(c, jobs) if c["kind"] == "search" else _claim_op(c) for c in cases]


def solutions(outcome) -> int:
    if outcome.mode == "count":
        return outcome.count
    if outcome.mode == "first":
        return int(outcome.found is not None)
    return len(outcome.schedules)


def expected_solutions(case: dict) -> int:
    """Schedules a search case yields, per the catalogue."""
    expect = case["expect"]
    if case["mode"] == "count":
        return expect["count"]
    if case["mode"] == "first":
        return int(expect["found"] is not None)
    return expect["schedules"]


def _search_op(case: dict, jobs: int) -> Op:
    n, mode, limit = case["n"], case["mode"], case.get("limit")
    constraints = SearchConstraints(**case["constraints"])
    allow_large = case.get("allow_large", False)

    def run(span):
        with span("search", n=n, case=case["id"], jobs=jobs) as rec:
            outcome = search(n, constraints, mode=mode, limit=limit, jobs=jobs,
                             allow_large=allow_large)
            rec["nodes"] = outcome.nodes_explored
            rec["solutions"] = solutions(outcome)
        return outcome

    return Op(f"search {case['id']} jobs={jobs}", run, _search_checker(case), case["expect"])


def _search_checker(case: dict):
    validated = False  # set after the first exact match; later passes compare only

    def check(outcome, expect) -> str | None:
        nonlocal validated
        if case["mode"] == "count":
            if outcome.count != expect["count"]:
                return f"count {outcome.count}, catalogue {expect['count']}"
            return None
        if case["mode"] == "first":
            schedules = [outcome.found] if outcome.found is not None else []
            got = [list(g) for g in oriented(outcome.found)] if schedules else None
            if got != expect["found"]:
                return f"first schedule {got}, catalogue {expect['found']}"
        else:
            schedules = list(outcome.schedules)
            got = (len(schedules), games_digest(schedules))
            if got != (expect["schedules"], expect["digest"]):
                return f"(schedules, digest) {got}, catalogue " \
                       f"{(expect['schedules'], expect['digest'])}"
        if not validated:
            for s in schedules:
                problem = constraint_violation(s, case["n"], case["constraints"])
                if problem:
                    return f"result breaks its constraints: {problem}"
            validated = True
        return None

    return check


def _claim_op(case: dict) -> Op:
    claim, n = case["claim"], case["n"]

    def run(span):
        with span("claims", n=n, case=case["id"]) as rec:
            report = verify_claim(claim, n)
            rec["nodes"] = report.nodes_explored
        return report

    return Op(f"claim {case['id']}", run, _check_claim, case["expect"])


def _check_claim(report, expect) -> str | None:
    if report.passed != expect["passed"]:
        return f"passed={report.passed}: {report.details}"
    if report.passed and report.witness is not None:
        return "passing claim returned a counterexample"
    return None


# ----------------------------------------------------------------------- cli

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_ops(seed: int, workdir: Path) -> list[Op]:
    """``python -m rrsched`` invocations; evaluate inputs are written to ``workdir``."""
    rng = random.Random(seed)
    env = cli_env()
    ops = []
    flip = rng.randrange(2)
    for i, n in enumerate(_strata(rng, CLI_GENERATE, *CLI_N, log=False)):
        method = "odd-optimal" if n % 2 and (i + flip) % 2 else "circle"
        m = 1 + (i + flip) % 2
        fmt = "structured" if (i // 2 + flip) % 2 else "text"
        args = ["generate", "--teams", str(n), "--method", method,
                "--multiplicity", str(m), "--format", fmt]
        ops.append(_cli_op("generate", args, None, env, _check_generate, (n, m)))
    for source, count in (("file", CLI_EVALUATE_FILE), ("stdin", CLI_EVALUATE_STDIN)):
        flip = rng.randrange(2)
        for i, n in enumerate(_strata(rng, count, *CLI_N, log=False)):
            method = "odd-optimal" if n % 2 and (i + flip) % 2 else "circle"
            m = 1 + (i // 2 + flip) % 2
            schedule = _generator(method)(n)
            if m > 1:
                schedule = duplicate_rounds(schedule, m)
            data = schedule_to_json(schedule) if (i + flip) % 2 else serialize_schedule(schedule)
            report = "table" if source == "file" else "structured"
            args = ["evaluate", "--format", report]
            stdin = None
            if source == "file":
                path = workdir / f"schedule-{len(ops)}.txt"
                path.write_text(data, encoding="utf-8")
                args.insert(1, str(path))
            else:
                stdin = data.encode()
            ops.append(_cli_op("evaluate", args, stdin, env, _check_evaluate,
                               (report, n, m, reference_bpd(method, n, m))))
    cases = {c["id"]: c for c in load_catalogue()["cases"]}
    for case_id in CLI_SEARCH_CASES:
        case = cases[case_id]
        args = ["search", "--teams", str(case["n"]), "--mode", case["mode"]]
        for name, value in case["constraints"].items():
            args += ["--" + name.replace("_", "-"), str(value)]
        if case.get("limit"):
            args += ["--limit", str(case["limit"])]
        ops.append(_cli_op("search", args, None, env, _check_cli_search, case))
    odd = 2 * rng.randrange(4, 30) + 1
    even = 2 * rng.randrange(4, 31)
    claims = CLI_FIXED_CLAIMS + (("odd-optimal-metrics", odd), ("even-circle-metrics", even))
    for claim, n in claims:
        args = ["verify", "--claim", claim] + (["--teams", str(n)] if n else [])
        ops.append(_cli_op("verify", args, None, env, _check_verify, claim))
    rng.shuffle(ops)
    return ops


def _cli_op(command: str, args: list[str], stdin: bytes | None, env: dict,
            check, expected) -> Op:
    cmd = [sys.executable, "-m", "rrsched", *args]

    def run(span):
        with span("cli." + command):
            return subprocess.run(cmd, input=stdin, capture_output=True, cwd=ROOT,
                                  env=env, timeout=120)

    return Op("cli " + " ".join(args), run, check, expected)


def _stdout(proc, want_code: int = 0) -> str:
    if proc.returncode != want_code:
        raise RuntimeError(f"exit code {proc.returncode}, expected {want_code}: "
                           f"{proc.stderr.decode(errors='replace').strip()[-200:]}")
    return proc.stdout.decode()


def _check_generate(proc, expected) -> str | None:
    n, m = expected
    out = _stdout(proc)
    if out.lstrip().startswith("{"):
        doc = json.loads(out)
        header = (doc["n"], doc["m"])
        games = [tuple(g) for g in doc["games"]]
    else:
        lines = [line.split() for line in out.splitlines() if line.strip()]
        header = (int(lines[0][1]), int(lines[1][1]) if lines[1][0] == "m" else 1)
        games = [(int(a), int(b)) for a, b in lines[1 + (header[1] > 1):]]
    if header != (n, m) or not _pair_counts_ok(games, n, m):
        return f"output is not a {m}-fold round robin on {n} teams"
    return None


def _check_evaluate(proc, expected) -> str | None:
    report, n, m, bpd = expected
    out = _stdout(proc)
    if report == "structured":
        doc = json.loads(out)
        got = (doc["n"], doc["m"], doc["guaranteed_rest_time"],
               doc["games_played_difference_index"], doc["rest_difference_index"])
    else:
        rows = dict(line.split(":", 1) for line in out.splitlines())
        got = tuple(int(rows[label]) for label in (
            "teams", "multiplicity", "guaranteed rest time",
            "games-played difference index", "rest difference index"))
    if got != (n, m, *bpd):
        return f"printed (n, m, b, p, d) = {got}, expected {(n, m, *bpd)}"
    return None


def _check_cli_search(proc, case) -> str | None:
    expect = case["expect"]
    negative = case["mode"] == "first" and expect["found"] is None
    out = _stdout(proc, 1 if negative else 0)
    if case["mode"] == "count":
        want = f"count: {expect['count']} "
    elif case["mode"] == "enumerate":
        want = f"# schedules emitted: {expect['schedules']}\n"
    elif negative:
        want = "no schedule satisfies the constraints\n"
    else:
        want = "".join(f"{a} {b}\n" for a, b in expect["found"])
    return None if want in out else f"output lacks {want!r}"


def _check_verify(proc, claim) -> str | None:
    out = _stdout(proc)
    return None if out.startswith(f"PASS {claim}") else f"unexpected output {out[:80]!r}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        build_ops(sys.argv[1], int(sys.argv[2]), Path(tmp))
        print("ready", flush=True)
