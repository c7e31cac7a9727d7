"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces the criterion's runtime budget where one is stated.
Run with::

    pytest -s tests/test_acceptance.py
"""

import random
import time

from rrsched import (
    SearchConstraints,
    canonicalize,
    circle_schedule,
    duplicate_rounds,
    evaluate,
    make_schedule,
    odd_optimal_schedule,
    search,
)
from rrsched.cli import main
from rrsched.fixtures import (
    ELEVEN_TEAM_CIRCLE_OPENING,
    FIVE_TEAM_OPTIMAL,
    SEVEN_TEAM_OPTIMAL,
    TEN_TEAM_CIRCLE_OPENING,
)

from conftest import random_schedule
from oracle import (
    brute_always_longer_rest_teams,
    brute_games_played_difference_index,
    brute_guaranteed_rest_time,
    brute_rest_difference_index,
)
from reference import (
    SEVEN_TEAM_OPTIMAL_ALTERNATE,
    SIX_TEAM_LOW_REST_DIFF_A,
    SIX_TEAM_LOW_REST_DIFF_B,
)


def _report(number: int, description: str, ok: bool,
            elapsed: float | None = None, budget: float | None = None):
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s" + (f" < {budget:.0f}s]" if budget else "]")
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}{timing}")
    assert ok, f"criterion {number} failed: {description}"
    if budget is not None:
        assert elapsed is not None and elapsed < budget, (
            f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.2f}s")


def _triple(s):
    r = evaluate(s)
    return (r.guaranteed_rest_time, r.games_played_difference_index,
            r.rest_difference_index)


def _cli_games(capsys, *argv) -> list[tuple[int, int]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return [tuple(int(x) for x in line.split())
            for line in out.splitlines() if not line.startswith(("n ", "m ", "#"))]


def test_criterion_01_figure_fidelity(capsys):
    start = time.perf_counter()
    ok = (_cli_games(capsys, "generate", "--teams", "10", "--method", "circle")[:15]
          == TEN_TEAM_CIRCLE_OPENING)
    ok &= (_cli_games(capsys, "generate", "--teams", "11", "--method", "circle")[:15]
           == ELEVEN_TEAM_CIRCLE_OPENING)
    ok &= (_cli_games(capsys, "generate", "--teams", "5", "--method", "odd-optimal")
           == FIVE_TEAM_OPTIMAL)
    ok &= (_cli_games(capsys, "generate", "--teams", "7", "--method", "odd-optimal")
           == SEVEN_TEAM_OPTIMAL)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(1, "generate reproduces the four reference schedules game-for-game",
                ok, elapsed, 1.0)


def test_criterion_02_even_circle_metrics(capsys):
    start = time.perf_counter()
    ok = all(_triple(circle_schedule(n)) == (n // 2 - 2, 1, 1 if n == 4 else 2)
             for n in (4, 6, 8, 10, 12))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(2, "even circle schedules measure (k-2, 1, 2), with 1 at four teams",
                ok, elapsed, 1.0)


def test_criterion_03_odd_circle_metrics(capsys):
    start = time.perf_counter()
    ok = all(_triple(circle_schedule(n)) == ((n - 1) // 2 - 2, 2, (n - 1) // 2 + 1)
             for n in (5, 7, 9, 11, 13))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(3, "odd circle schedules measure (k-2, 2, k+1)", ok, elapsed, 1.0)


def test_criterion_04_odd_optimal_metrics(capsys):
    start = time.perf_counter()
    ok = all(_triple(odd_optimal_schedule(n)) == ((n - 1) // 2 - 1, 1, 1)
             for n in range(3, 16, 2))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(4, "odd optimal schedules measure (k-1, 1, 1) for 3..15 teams",
                ok, elapsed, 1.0)


def test_criterion_05_even_impossibility(capsys):
    start = time.perf_counter()
    outcome = search(6, SearchConstraints(min_rest=1, max_gpd=1, max_rdi=1), mode="first")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(5, f"no six-team schedule attains (1, 1, 1); search exhausted "
                   f"{outcome.nodes_explored} nodes", outcome.found is None, elapsed, 60.0)


def test_criterion_06_rest_time_bounds(capsys):
    start = time.perf_counter()
    ok = True
    for n in (4, 6):
        ok &= search(n, SearchConstraints(min_rest=n // 2 - 1), mode="first").found is None
    for n in (3, 5, 7):
        ok &= search(n, SearchConstraints(min_rest=(n - 1) // 2), mode="first").found is None
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(6, "rest beyond k-2 (even) or k-1 (odd) is unattainable at small sizes",
                ok, elapsed, 120.0)


def test_criterion_07_five_team_max_rest_consequences(capsys):
    start = time.perf_counter()
    outcome = search(5, SearchConstraints(min_rest=1), mode="enumerate")
    reports = [evaluate(s) for s in outcome.schedules]
    ok = bool(reports)
    ok &= all(r.rest_difference_index == 1 for r in reports)
    ok &= all(r.always_longer_rest_teams for r in reports)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(7, f"all {len(reports)} max-rest five-team schedules have rest "
                   f"difference 1 and an always-better-rested team", ok, elapsed, 120.0)


def test_criterion_08_six_team_reference_metrics(capsys):
    start = time.perf_counter()
    ok = _triple(make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_A)) == (1, 2, 1)
    ok &= _triple(make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_B)) == (0, 3, 1)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(8, "six-team reference schedules measure (1, 2, 1) and (0, 3, 1)",
                ok, elapsed)


def test_criterion_09_duplication_preserves_measures(capsys):
    # Criterion: b unchanged for circle {4, 6, 8} and odd-optimal {5, 7} at
    # factors {2, 3}; d unchanged and p = 1 for the even circle.  For the
    # odd-optimal family d is not preserved: a bye round stretches from k to
    # factor*k games while the returning team's opponent rests as before, so
    # d goes from 1 to exactly factor*k - k + 1 (see notes/decisions.md).
    # Every duplicated schedule's b and d are also recomputed by the oracle.
    start = time.perf_counter()
    failures = []

    def check_oracle(label, schedule, report):
        if report.guaranteed_rest_time != brute_guaranteed_rest_time(schedule):
            failures.append(f"oracle b {label}")
        if report.rest_difference_index != brute_rest_difference_index(schedule):
            failures.append(f"oracle d {label}")

    for n in (4, 6, 8):
        base = evaluate(circle_schedule(n))
        for factor in (2, 3):
            label = f"circle({n})x{factor}"
            schedule = duplicate_rounds(circle_schedule(n), factor)
            dup = evaluate(schedule)
            check_oracle(label, schedule, dup)
            if dup.guaranteed_rest_time != base.guaranteed_rest_time:
                failures.append(f"b {label}")
            if dup.rest_difference_index != base.rest_difference_index:
                failures.append(f"d {label}")
            if not (dup.games_played_difference_index
                    == base.games_played_difference_index == 1):
                failures.append(f"p {label}")
    for n in (5, 7):
        k = (n - 1) // 2
        base = evaluate(odd_optimal_schedule(n))
        for factor in (2, 3):
            label = f"odd_optimal({n})x{factor}"
            schedule = duplicate_rounds(odd_optimal_schedule(n), factor)
            dup = evaluate(schedule)
            check_oracle(label, schedule, dup)
            if dup.guaranteed_rest_time != base.guaranteed_rest_time:
                failures.append(f"b {label}")
            if dup.rest_difference_index != factor * k - k + 1:
                failures.append(f"d {label}")
    elapsed = time.perf_counter() - start
    detail = "" if not failures else f" (failing sub-cases: {', '.join(failures)})"
    with capsys.disabled():
        _report(9, "round duplication preserves b (and d, p on even circle); "
                   f"odd-optimal d grows to factor*k - k + 1{detail}",
                not failures, elapsed)


def test_criterion_10_oracle_equivalence(capsys):
    start = time.perf_counter()
    rng = random.Random(987654321)
    ok = True
    for _ in range(1000):
        n = rng.randint(4, 9)
        m = 2 if rng.random() < 0.15 else 1
        s = random_schedule(rng, n, m)
        r = evaluate(s)
        ok &= r.guaranteed_rest_time == brute_guaranteed_rest_time(s)
        ok &= r.games_played_difference_index == brute_games_played_difference_index(s)
        ok &= r.rest_difference_index == brute_rest_difference_index(s)
        ok &= r.always_longer_rest_teams == frozenset(brute_always_longer_rest_teams(s))
        if not ok:
            break
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(10, "production evaluator matches the brute-force oracle on 1000 "
                    "random schedules", ok, elapsed, 30.0)


def test_criterion_11_seven_team_references_distinct(capsys):
    start = time.perf_counter()
    first = canonicalize(make_schedule(7, 1, SEVEN_TEAM_OPTIMAL))
    second = canonicalize(make_schedule(7, 1, SEVEN_TEAM_OPTIMAL_ALTERNATE))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(11, "the two seven-team reference schedules are not relabelings "
                    "of each other", first != second, elapsed)
