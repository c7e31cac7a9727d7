"""Search: pruned enumeration, symmetry breaking, canonicalization."""

import contextlib
import functools
import gc
import hashlib
import importlib
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsched import (
    SearchConstraints,
    canonicalize,
    evaluate,
    make_schedule,
    search,
)
from rrsched.fixtures import FIVE_TEAM_OPTIMAL, SEVEN_TEAM_OPTIMAL

from conftest import all_pairs
from oracle import (
    brute_games_played_difference_index,
    brute_guaranteed_rest_time,
    brute_rest_difference_index,
)
from reference import (
    SEVEN_TEAM_OPTIMAL_ALTERNATE,
    SIX_TEAM_LOW_REST_DIFF_A,
    SIX_TEAM_LOW_REST_DIFF_B,
)

# The package exports the search() function under the module's name.
search_module = importlib.import_module("rrsched.search")

CATALOGUE = Path(__file__).resolve().parents[1] / "bench" / "catalogue.json"


class TestEmptinessResults:
    def test_six_team_triple_optimum_impossible(self):
        outcome = search(6, SearchConstraints(min_rest=1, max_gpd=1, max_rdi=1), mode="first")
        assert outcome.found is None
        assert outcome.nodes_explored > 0

    @pytest.mark.parametrize("n", [4, 6])
    def test_even_rest_bound(self, n):
        k = n // 2
        assert search(n, SearchConstraints(min_rest=k - 1), mode="first").found is None

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_rest_bound(self, n):
        k = (n - 1) // 2
        assert search(n, SearchConstraints(min_rest=k), mode="first").found is None

    # For even n, (p, d) = (1, 1) needs 4 | n (notes/decisions.md has the
    # argument): these runs prove it empty at n = 2 (mod 4).
    @pytest.mark.parametrize("n, nodes", [(6, 35), (10, 2869), (14, 491207)])
    def test_even_unit_spread_and_rest_difference_need_four_to_divide_n(self, n, nodes):
        outcome = search(n, SearchConstraints(max_gpd=1, max_rdi=1), mode="first",
                         allow_large=True)
        assert (outcome.found, outcome.nodes_explored) == (None, nodes)

    def test_impossibility_holds_without_symmetry_breaking(self):
        outcome = search(6, SearchConstraints(min_rest=1, max_gpd=1, max_rdi=1),
                         mode="first", symmetry_breaking=False)
        assert outcome.found is None


class TestExistenceResults:
    def test_five_team_max_rest_exists_with_unit_rest_difference(self):
        outcome = search(5, SearchConstraints(min_rest=1), mode="first")
        assert outcome.found is not None
        assert evaluate(outcome.found).rest_difference_index == 1

    def test_six_team_unit_rest_difference_exists(self):
        outcome = search(6, SearchConstraints(max_rdi=1), mode="first")
        assert outcome.found is not None
        assert evaluate(outcome.found).rest_difference_index == 1

    def test_five_team_reference_is_enumerated(self):
        outcome = search(5, SearchConstraints(min_rest=1), mode="enumerate")
        assert make_schedule(5, 1, FIVE_TEAM_OPTIMAL) in outcome.schedules

    def test_seven_team_references_are_enumerated(self):
        outcome = search(7, SearchConstraints(min_rest=2), mode="enumerate")
        assert make_schedule(7, 1, SEVEN_TEAM_OPTIMAL) in outcome.schedules
        assert make_schedule(7, 1, SEVEN_TEAM_OPTIMAL_ALTERNATE) in outcome.schedules

    def test_six_team_unit_rest_difference_enumeration(self):
        # All canonical six-team schedules with rest difference 1, including
        # both shipped reference schedules; none of them combines rest time 1
        # with a games-played spread of 1 (the other face of the six-team
        # impossibility result).
        outcome = search(6, SearchConstraints(max_rdi=1), mode="enumerate")
        schedules = outcome.schedules
        assert make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_A) in schedules
        assert make_schedule(6, 1, SIX_TEAM_LOW_REST_DIFF_B) in schedules
        for s in schedules:
            report = evaluate(s)
            assert not (report.guaranteed_rest_time >= 1
                        and report.games_played_difference_index <= 1)


class TestEmittedSchedules:
    @pytest.mark.parametrize("constraints", [
        SearchConstraints(min_rest=1),
        SearchConstraints(min_rest=1, max_rdi=1),
        SearchConstraints(max_gpd=1),
    ])
    def test_post_hoc_reevaluation_agrees(self, constraints):
        outcome = search(5, constraints, mode="enumerate")
        assert outcome.schedules
        for s in outcome.schedules:
            report = evaluate(s)
            if constraints.min_rest is not None:
                assert report.guaranteed_rest_time >= constraints.min_rest
            if constraints.max_gpd is not None:
                assert report.games_played_difference_index <= constraints.max_gpd
            if constraints.max_rdi is not None:
                assert report.rest_difference_index <= constraints.max_rdi

    def test_emission_order_is_lexicographic(self):
        outcome = search(5, SearchConstraints(min_rest=1), mode="enumerate")
        keys = [s.games for s in outcome.schedules]
        assert keys == sorted(keys)

    def test_all_emitted_are_valid_schedules(self):
        outcome = search(4, SearchConstraints(max_rdi=2), mode="enumerate")
        for s in outcome.schedules:
            rebuilt = make_schedule(s.team_count, 1, list(s.games))
            assert rebuilt == s

    def test_first_labels_appear_in_order_under_symmetry_breaking(self):
        outcome = search(5, SearchConstraints(min_rest=1), mode="enumerate")
        for s in outcome.schedules:
            seen: list[int] = []
            for g in s.games:
                for t in g:
                    if t not in seen:
                        seen.append(t)
            assert seen == sorted(seen)


class TestExhaustiveBounds:
    def test_every_four_team_schedule_has_rest_at_most_zero(self):
        # Full space at four teams: max over all 720 orderings of b is k-2 = 0.
        outcome = search(4, mode="enumerate", symmetry_breaking=False)
        rests = {evaluate(s).guaranteed_rest_time for s in outcome.schedules}
        assert max(rests) == 0

    def test_every_three_team_schedule_has_rest_zero(self):
        outcome = search(3, mode="enumerate", symmetry_breaking=False)
        assert len(outcome.schedules) == 6  # 3! orderings of the three games
        assert {evaluate(s).guaranteed_rest_time for s in outcome.schedules} == {0}


class TestCountsAndLimits:
    def test_unconstrained_four_team_orderings(self):
        # 6 games of the complete graph on 4 teams: 6! = 720 raw orderings.
        outcome = search(4, mode="count", symmetry_breaking=False)
        assert outcome.count == 720

    def test_symmetric_enumeration_covers_all_canonical_forms(self):
        raw = search(4, mode="enumerate", symmetry_breaking=False)
        symmetric = set(search(4, mode="enumerate").schedules)
        assert len(raw.schedules) == 720
        for s in raw.schedules:
            assert canonicalize(s) in symmetric

    def test_limit_truncates_deterministically(self):
        full = search(5, SearchConstraints(min_rest=1), mode="enumerate")
        cut = search(5, SearchConstraints(min_rest=1), mode="enumerate", limit=3)
        assert cut.schedules == full.schedules[:3]
        assert cut.nodes_explored < full.nodes_explored

    def test_monotonicity_under_tightening(self):
        def count(**kwargs):
            return search(4, SearchConstraints(**kwargs), mode="count",
                          symmetry_breaking=False).count

        unconstrained = search(4, mode="count", symmetry_breaking=False).count
        assert count(max_gpd=1) <= count(max_gpd=2) <= unconstrained
        assert count(max_rdi=1) <= count(max_rdi=2) <= count(max_rdi=3)
        assert count(min_rest=1) <= count(min_rest=0) == unconstrained

    def test_monotonicity_with_symmetry_breaking(self):
        def count(constraints):
            return search(5, constraints, mode="count").count

        assert (count(SearchConstraints(min_rest=1, max_rdi=1))
                <= count(SearchConstraints(min_rest=1)))
        assert (count(SearchConstraints(min_rest=1, max_gpd=1))
                <= count(SearchConstraints(min_rest=1)))


class TestExactCounts:
    # (count, nodes_explored) with symmetry breaking on; any change to the
    # order or the pruning of the walk moves these numbers.  TestCatalogue
    # pins the catalogue's cases through a stand-in pool; these counts also
    # run at jobs=2 with the default budget, where the eight-team one goes
    # through a real one.
    @pytest.mark.parametrize("n, bounds, count, nodes, jobs", [
        # No catalogue count keeps a table keyed by a two-game tail; this
        # one does (measured before the walk kept a table of subtree counts
        # by state).
        pytest.param(8, dict(min_rest=2, max_gpd=1), 560128, 5519244, 1,
                     id="n8-rest2-gpd1-jobs1"),
        pytest.param(8, dict(min_rest=2, max_gpd=1), 560128, 5519244, 2,
                     id="n8-rest2-gpd1-jobs2"),
        # The catalogue count that placed the most nodes before the walk kept
        # a table under max_rdi (53,556); it now places 20,362, under the
        # default budget.
        pytest.param(6, dict(max_rdi=1), 8128, 319235, 2, id="n6-rdi1-jobs2"),
    ])
    def test_pinned_counts(self, n, bounds, count, nodes, jobs):
        outcome = search(n, SearchConstraints(**bounds), mode="count", jobs=jobs)
        assert (outcome.count, outcome.nodes_explored) == (count, nodes)

    # Each level of the walk places one game, and this run places all 1,035
    # without going back, more levels than the interpreter's default
    # recursion limit of 1,000 frames.
    def test_walk_deeper_than_the_recursion_limit(self):
        outcome = search(46, SearchConstraints(), "first", allow_large=True)
        assert outcome.nodes_explored == 1035
        assert make_schedule(46, 1, outcome.found.games) == outcome.found

    # The odd max-rest counts, 2^(k+1) canonical labelings: the walk reuses
    # most of these trees, and the node counts are those of a full walk.
    @pytest.mark.parametrize("n, count, nodes", [(11, 64, 297731), (13, 128, 5088900)])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pinned_max_rest_counts(self, n, count, nodes, jobs):
        outcome = search(n, SearchConstraints(min_rest=(n - 3) // 2), mode="count",
                         jobs=jobs, allow_large=True)
        assert (outcome.count, outcome.nodes_explored) == (count, nodes)

    # The odd max-rest enumeration keeps no table (three teams free at each
    # position) and reuses most subtrees by relabeling a twin sibling's
    # schedules: it must list what the count counts, in walk order.
    def test_max_rest_enumeration_equals_the_count(self):
        outcome = search(11, SearchConstraints(min_rest=4), "enumerate", allow_large=True)
        games = [s.games for s in outcome.schedules]
        assert (len(games), outcome.nodes_explored) == (64, 297731)
        assert all(x < y for x, y in zip(games, games[1:]))
        assert {evaluate(s).guaranteed_rest_time for s in outcome.schedules} == {4}


def _plain_walk(n, min_rest, max_gpd, max_rdi, symmetry, quota=None):
    """(schedules, accepted placements) of a plain depth-first walk that
    tries the unused pairs in ascending order and tests each bound from its
    definition on the prefix: rest since a team's previous game, the spread
    of games played over all teams, and the difference of the two teams'
    rests with a shared game before the schedule at position 0.  Under
    symmetry breaking the labels seen so far must be 1 to some m.  The
    schedules are in walk order, and the walk stops at the ``quota``-th."""
    pairs = all_pairs(n)
    total = len(pairs)
    used = [False] * total
    previous = [0] * (n + 1)  # position of each team's previous game, 0 if none
    played = [0] * (n + 1)
    games = []
    schedules = []
    nodes = 0

    def place(position, seen):
        # True once the walk has stopped at its quota.
        nonlocal nodes
        for i, (a, b) in enumerate(pairs):
            if used[i]:
                continue
            if symmetry and max(b, seen) != seen + (a > seen) + (b > seen):
                continue
            rest_a = position - previous[a] - 1
            rest_b = position - previous[b] - 1
            if min_rest is not None and ((previous[a] and rest_a < min_rest)
                                         or (previous[b] and rest_b < min_rest)):
                continue
            if max_rdi is not None and abs(rest_a - rest_b) > max_rdi:
                continue
            played[a] += 1
            played[b] += 1
            stop = False
            if max_gpd is None or max(played[1:]) - min(played[1:]) <= max_gpd:
                nodes += 1
                games.append((a, b))
                if position == total:
                    schedules.append(tuple(games))
                    stop = len(schedules) == quota
                else:
                    used[i] = True
                    previous_a, previous_b = previous[a], previous[b]
                    previous[a] = previous[b] = position
                    stop = place(position + 1, max(b, seen))
                    previous[a], previous[b] = previous_a, previous_b
                    used[i] = False
                games.pop()
            played[a] -= 1
            played[b] -= 1
            if stop:
                return True
        return False

    place(1, 0)
    return schedules, nodes


def _plain_grid():
    # Every five-team bound triple from min_rest in {1, 2}, max_gpd 1 and
    # max_rdi in {1, 2} with at least one bound set, and one six-team run
    # whose table holds a tail of one game without being forced on.
    for triple in itertools.product((None, 1, 2), (None, 1), (None, 1, 2)):
        if triple != (None, None, None):
            for symmetry in (True, False):
                yield pytest.param(5, *triple, symmetry,
                                   id=f"n5-{triple}-{'sym' if symmetry else 'all'}")
    yield pytest.param(6, 1, 1, None, True, id="n6-(1, 1, None)-sym")


def _games(outcome):
    return [s.games for s in outcome.schedules]


def _table_settings(monkeypatch, n, min_rest):
    """Set each table setting in turn: a table only where it is kept, in
    every run that may keep one or in none (where either differs), and one
    full at 20 entries.  An "enumerate" walk without a table relabels the
    schedules of a twin sibling that found some."""
    min_free, limit = search_module._TABLE_MIN_FREE, search_module._TABLE_LIMIT
    settings = [(min_free, limit), (0, 20)]
    if n - 2 * (min_rest or 0) < min_free:
        settings.append((0, limit))
    else:
        settings.append((n + 1, limit))
    for min_free, limit in settings:
        monkeypatch.setattr(search_module, "_TABLE_MIN_FREE", min_free)
        monkeypatch.setattr(search_module, "_TABLE_LIMIT", limit)
        yield


class TestPlainWalkCounts:
    """Counts, schedules and node counts of ``search`` against
    ``_plain_walk``, which neither reuses twin subtrees nor keeps a table of
    states."""

    @pytest.mark.parametrize("n, min_rest, max_gpd, max_rdi, symmetry", _plain_grid())
    def test_count_matches_a_plain_walk(self, split, monkeypatch, n, min_rest, max_gpd,
                                        max_rdi, symmetry):
        schedules, nodes = _plain_walk(n, min_rest, max_gpd, max_rdi, symmetry)
        expected = (len(schedules), nodes)
        constraints = SearchConstraints(min_rest, max_gpd, max_rdi)
        set_budget, started = split
        for _ in _table_settings(monkeypatch, n, min_rest):
            solo = search(n, constraints, "count", symmetry_breaking=symmetry)
            assert (solo.count, solo.nodes_explored) == expected
            for budget in (1, 40):
                set_budget(budget)
                outcome = search(n, constraints, "count", symmetry_breaking=symmetry, jobs=2)
                assert (outcome.count, outcome.nodes_explored) == expected, budget
        assert started  # the budgets did reach the stand-in pool

    @pytest.mark.parametrize("n, min_rest, max_gpd, max_rdi, symmetry", _plain_grid())
    def test_enumerate_matches_a_plain_walk(self, monkeypatch, n, min_rest, max_gpd, max_rdi,
                                            symmetry):
        expected = _plain_walk(n, min_rest, max_gpd, max_rdi, symmetry)
        limited = _plain_walk(n, min_rest, max_gpd, max_rdi, symmetry, 3)
        constraints = SearchConstraints(min_rest, max_gpd, max_rdi)
        for _ in _table_settings(monkeypatch, n, min_rest):
            solo = search(n, constraints, "enumerate", symmetry_breaking=symmetry)
            assert (_games(solo), solo.nodes_explored) == expected
            outcome = search(n, constraints, "enumerate", 3, symmetry_breaking=symmetry)
            assert (_games(outcome), outcome.nodes_explored) == limited

    # After its 12th schedule this walk meets, at position 8, a state it has
    # stored with two schedules below it.  The limit ends inside that
    # subtree, so the walk walks it to its first schedule and stops there,
    # rather than copying both with the subtree's whole node count.
    def test_limit_inside_a_stored_subtree_is_walked(self):
        expected = _plain_walk(5, None, None, 1, True, 13)
        outcome = search(5, SearchConstraints(max_rdi=1), "enumerate", 13)
        assert (_games(outcome), outcome.nodes_explored) == expected

    # This walk keeps no table.  After its second schedule it meets, at
    # position 4, the twin image of a sibling that found two.  A limit of 3
    # ends inside the image and a limit of 4 at its last schedule, so the
    # walk walks the image and stops in it, rather than relabeling both
    # schedules with the image's whole node count.
    @pytest.mark.parametrize("limit", [3, 4])
    def test_limit_inside_a_twin_image_is_walked(self, limit):
        expected = _plain_walk(5, 1, None, None, True, limit)
        outcome = search(5, SearchConstraints(min_rest=1), "enumerate", limit)
        assert (_games(outcome), outcome.nodes_explored) == expected


class TestWalkLifetime:
    # The walk's recursive closure was a reference cycle, so each run left
    # its lists, and a count run its table, for the cyclic collector.
    @pytest.mark.parametrize("mode, limit", [("count", None), ("enumerate", 50)])
    def test_search_leaves_nothing_for_the_collector(self, mode, limit):
        run = functools.partial(search, 6, SearchConstraints(min_rest=1), mode, limit)
        run()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOracleCounts:
    @pytest.fixture(scope="class")
    def measured(self):
        # (b, p, d) of every ordering of the six four-team games, by brute force.
        return [
            (brute_guaranteed_rest_time(s), brute_games_played_difference_index(s),
             brute_rest_difference_index(s))
            for s in (make_schedule(4, 1, games)
                      for games in itertools.permutations(all_pairs(4)))
        ]

    @pytest.mark.parametrize("min_rest", [None, 0, 1])
    @pytest.mark.parametrize("max_gpd", [None, 1, 2])
    @pytest.mark.parametrize("max_rdi", [None, 1, 2])
    def test_count_matches_oracle(self, measured, min_rest, max_gpd, max_rdi):
        expected = sum(
            1 for b, p, d in measured
            if (min_rest is None or b >= min_rest)
            and (max_gpd is None or p <= max_gpd)
            and (max_rdi is None or d <= max_rdi)
        )
        outcome = search(4, SearchConstraints(min_rest, max_gpd, max_rdi), mode="count",
                         symmetry_breaking=False)
        assert len(measured) == 720
        assert outcome.count == expected


class TestParallelDeterminism:
    def test_enumerate_identical_across_jobs(self):
        seq = search(5, SearchConstraints(min_rest=1), mode="enumerate")
        par = search(5, SearchConstraints(min_rest=1), mode="enumerate", jobs=2)
        assert par.schedules == seq.schedules
        assert par.nodes_explored == seq.nodes_explored

    def test_single_branch_runs_without_a_process_pool(self, monkeypatch):
        # 92 nodes: the count keeps no table, but ends within the split
        # budget, so it never reaches the point where it would start a pool.
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        seq = search(5, SearchConstraints(min_rest=1), mode="count")
        par = search(5, SearchConstraints(min_rest=1), mode="count", jobs=2)
        assert par == seq

    def test_count_identical_across_jobs_without_symmetry(self):
        seq = search(4, mode="count", symmetry_breaking=False)
        par = search(4, mode="count", symmetry_breaking=False, jobs=3)
        assert (par.count, par.nodes_explored) == (seq.count, seq.nodes_explored)

    def test_first_identical_across_jobs(self):
        seq = search(6, SearchConstraints(max_rdi=1), mode="first", symmetry_breaking=False)
        par = search(6, SearchConstraints(max_rdi=1), mode="first",
                     symmetry_breaking=False, jobs=4)
        assert par.found == seq.found
        assert par.nodes_explored == seq.nodes_explored

    def test_limit_identical_across_jobs(self):
        seq = search(4, SearchConstraints(max_rdi=1), mode="enumerate",
                     limit=5, symmetry_breaking=False)
        par = search(4, SearchConstraints(max_rdi=1), mode="enumerate",
                     limit=5, symmetry_breaking=False, jobs=3)
        assert par.schedules == seq.schedules
        assert par.nodes_explored == seq.nodes_explored


class InProcessPool:
    """Stands in for multiprocessing.Pool: its ``imap`` walks each task in
    this process when the merge asks for its result, so no task runs ahead
    of the merge.  Records the worker count, the results in the order they
    ran and whether the ``with`` block has exited."""

    def __init__(self, started, processes):
        self.processes = processes
        self.results = []
        self.exited = False
        started.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.exited = True

    def imap(self, func, iterable):
        for item in iterable:
            self.results.append(func(item))
            yield self.results[-1]


@pytest.fixture
def split(monkeypatch):
    """Run jobs > 1 searches in this process with a tiny split budget; yields
    the setter of the budget and the list of pools the runs started."""
    started = []
    monkeypatch.setattr(multiprocessing, "Pool", functools.partial(InProcessPool, started))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def budget(nodes):
        monkeypatch.setattr(search_module, "_SPLIT_BUDGET", nodes)

    yield budget, started


def _split_grid():
    # Every case of n = 3 and 4; n = 5 with min_rest >= 1, which keeps each
    # under 8,000 nodes.
    bounds = (None, 0, 1, 2)
    for n in (3, 4, 5):
        for min_rest, max_gpd, max_rdi in itertools.product(bounds, repeat=3):
            if n == 5 and not min_rest:
                continue
            for symmetry in (True, False):
                for mode, limit in (("first", None), ("count", None),
                                    ("enumerate", None), ("enumerate", 3)):
                    yield (n, SearchConstraints(min_rest, max_gpd, max_rdi), mode, limit,
                           symmetry)


class TestBudgetedSplit:
    @pytest.fixture(scope="class")
    def sequential(self):
        return [(case, search(*case[:4], symmetry_breaking=case[4]))
                for case in _split_grid()]

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_outcomes_equal_a_sequential_walk(self, split, sequential, budget, jobs):
        set_budget, started = split
        set_budget(budget)
        for case, expected in sequential:
            outcome = search(*case[:4], symmetry_breaking=case[4], jobs=jobs)
            assert outcome == expected, case
        assert started  # the grid did reach the pool
        assert all(pool.exited for pool in started)

    # 84,159 nodes, of which about 14,000 are placed: the rest are reused
    # from twins, and do not count against the budget, so the default one
    # leaves no task.  The count keeps no table, so it may start a pool.
    @pytest.mark.parametrize("budget, pools", [(search_module._SPLIT_BUDGET, 0), (5000, 1)])
    def test_reused_nodes_leave_the_budget_alone(self, split, budget, pools):
        set_budget, started = split
        set_budget(budget)
        outcome = search(6, SearchConstraints(min_rest=1, max_rdi=2), mode="count", jobs=2)
        assert (outcome.count, outcome.nodes_explored) == (8384, 84159)
        assert len(started) == pools

    def test_worker_count_is_capped_at_the_cpu_count(self, split, monkeypatch):
        set_budget, started = split
        set_budget(1)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        outcome = search(5, SearchConstraints(min_rest=1), mode="count",
                         symmetry_breaking=False, jobs=1000)
        assert outcome.count == search(5, SearchConstraints(min_rest=1), mode="count",
                                       symmetry_breaking=False).count
        assert [pool.processes for pool in started] == [3]

    def test_one_cpu_walks_in_this_process(self, split, monkeypatch):
        set_budget, started = split
        set_budget(1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        search(5, SearchConstraints(min_rest=1), mode="count", jobs=8)
        assert started == []

    # A pool shares neither a walk's table of states nor the schedules it
    # has emitted, so an "enumerate" run, with or without a limit and with
    # or without a table, and a count that keeps a table make one walk here.
    # A count without a table and a "first" run hand out tasks.
    @pytest.mark.parametrize("n, constraints, mode, limit, pools", [
        pytest.param(6, SearchConstraints(min_rest=1), "enumerate", 5, 0,
                     id="enumerate-limit"),
        pytest.param(5, SearchConstraints(min_rest=1), "enumerate", None, 0, id="enumerate"),
        pytest.param(5, SearchConstraints(max_rdi=1), "enumerate", None, 0,
                     id="enumerate-table"),
        pytest.param(6, SearchConstraints(min_rest=1), "count", None, 0, id="count-table"),
        pytest.param(5, SearchConstraints(min_rest=1), "count", None, 1, id="count"),
        pytest.param(6, SearchConstraints(min_rest=1), "first", None, 1, id="first"),
    ])
    def test_only_first_runs_and_counts_without_a_table_start_a_pool(
            self, split, n, constraints, mode, limit, pools):
        set_budget, started = split
        set_budget(1)
        outcome = search(n, constraints, mode, limit, jobs=2)
        assert outcome == search(n, constraints, mode, limit)
        assert len(started) == pools

    def test_first_mode_stops_handing_out_tasks(self, split, monkeypatch):
        set_budget, started = split
        set_budget(1)
        constraints = SearchConstraints(max_rdi=1)
        # Without its table the count hands out every task of the tree.
        monkeypatch.setattr(search_module, "_TABLE_MIN_FREE", 7)
        search(6, constraints, mode="count", jobs=2)
        everything = len(started[0].results)
        found = search(6, constraints, mode="first", jobs=2)
        assert found == search(6, constraints, mode="first")
        ran = started[1].results
        witness = next(i for i, walked in enumerate(ran) if walked.found)
        # The merge asked for no result after the witness's, and left the
        # ``with`` block, which terminates a real pool's workers.
        assert len(ran) == witness + 1 < everything
        assert started[1].exited

    @pytest.mark.parametrize("n, constraints, mode", [
        (6, SearchConstraints(min_rest=1, max_rdi=2), "count"),
        (8, SearchConstraints(min_rest=2, max_gpd=1, max_rdi=2), "first"),
    ])
    def test_twin_images_of_a_task_are_walked_once(self, split, monkeypatch, n,
                                                   constraints, mode):
        # A count run, or one that stops at its first schedule, lists a task
        # again for each twin image of it: the pool walks the task once and
        # the merge takes its result at every place.
        set_budget, started = split
        set_budget(100)
        expected = search(n, constraints, mode)
        listed, ran = [], []

        def walk(walk, prefix, budget=None, tasks=None):
            # The budgeted walk lists the entries; the stand-in pool walks tasks.
            if budget is None:
                ran.append(prefix)
            else:
                listed.append(tasks)
            return _walk_here(walk, prefix, budget, tasks)

        monkeypatch.setattr(search_module, "_walk", walk)
        outcome = search(n, constraints, mode, jobs=2)
        assert outcome == expected
        assert len(started) == 1
        [entries] = listed
        # A first run stops at the task that holds its witness, the last one run.
        stop = entries.index(ran[-1]) + 1 if outcome.found else len(entries)
        merged = [entry for entry in entries[:stop]
                  if not isinstance(entry, search_module._Walked)]
        assert sorted(ran) == sorted(set(merged))
        assert len(merged) > len(ran)

    def test_real_pool_matches_a_sequential_walk(self, monkeypatch):
        pools = []
        pool = multiprocessing.Pool

        def counted_pool(processes):
            pools.append(processes)
            return pool(processes)

        monkeypatch.setattr(multiprocessing, "Pool", counted_pool)
        monkeypatch.setattr(search_module, "_SPLIT_BUDGET", 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # The first runs merge a schedule that a worker found; the counts
        # keep no table.
        cases = [(5, SearchConstraints(min_rest=1), "first", None, False),
                 (5, SearchConstraints(min_rest=1, max_gpd=2), "count", None, False),
                 (6, SearchConstraints(max_rdi=1), "first", None, True),
                 (6, SearchConstraints(min_rest=1, max_rdi=2), "count", None, True)]
        for case in cases:
            expected = search(*case[:4], symmetry_breaking=case[4])
            assert search(*case[:4], symmetry_breaking=case[4], jobs=2) == expected, case
        assert pools == [2] * len(cases)

    # macOS starts pool workers by spawn and Python 3.14 by forkserver, not
    # fork: each worker imports the package afresh and gets its task pickled.
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_methods_match_a_sequential_walk(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        proc = subprocess.run([sys.executable, "-X", "dev", "-c", _START_METHOD_RUN, method],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "count 84159\nfirst 217\n"

    # A "first" run that has merged the schedule a worker found must end the
    # walks still running, not wait for them.
    def test_first_run_ends_its_workers_when_it_stops(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        proc = subprocess.run([sys.executable, "-X", "dev", "-c", _STOPPED_POOL_RUN],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "first 217\n"

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(search_module, "_SPLIT_BUDGET", 3)
        monkeypatch.setattr(search_module, "_walk", _fail_in_workers)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with _deadline(60), pytest.raises(RuntimeError, match="failed in a worker"):
            search(5, SearchConstraints(min_rest=1), mode="count",
                   symmetry_breaking=False, jobs=2)


def _catalogue_searches():
    cases = json.loads(CATALOGUE.read_text(encoding="utf-8"))["cases"]
    return [pytest.param(case, id=case["id"]) for case in cases if case["kind"] == "search"]


def _run_case(case, jobs=1):
    outcome = search(case["n"], SearchConstraints(**case["constraints"]), mode=case["mode"],
                     limit=case.get("limit"), jobs=jobs,
                     allow_large=case.get("allow_large", False))
    if outcome.mode == "count":
        return {"count": outcome.count, "nodes": outcome.nodes_explored}
    if outcome.mode == "first":
        found = None if outcome.found is None else [list(g) for g in outcome.found.games]
        return {"found": found, "nodes": outcome.nodes_explored}
    # The catalogue's digest: one line of a-b games per schedule, in order.
    digest = hashlib.sha256()
    for s in outcome.schedules:
        digest.update(" ".join(f"{a}-{b}" for a, b in s.games).encode() + b"\n")
    return {"schedules": len(outcome.schedules), "digest": digest.hexdigest()[:16],
            "nodes": outcome.nodes_explored}


class TestCatalogue:
    """Every search case of ``bench/catalogue.json``, recorded before the walk
    reused twin-swapped subtrees: a reuse that is wrong shows as a count, a
    schedule or a node count that differs."""

    @pytest.mark.parametrize("case", _catalogue_searches())
    def test_sequential_walk(self, case):
        assert _run_case(case) == case["expect"]

    # Budget 1 hands out the tree from its root; 500 leaves tasks below
    # siblings that the walk has partly walked, and their twin images.  A
    # case that search()'s rule keeps in one process at any jobs makes, at
    # jobs 2, the one unbudgeted walk it makes at jobs 1, which
    # test_sequential_walk follows to its end: the test stops it there.
    @pytest.mark.parametrize("budget", [1, 500])
    @pytest.mark.parametrize("case", _catalogue_searches())
    def test_split_walk(self, split, monkeypatch, case, budget):
        set_budget, started = split
        set_budget(budget)
        constraints = SearchConstraints(**case["constraints"])
        if search_module._run_plan(case["n"], constraints, case["mode"], case.get("limit"))[3]:
            assert _run_case(case, jobs=2) == case["expect"]
            return
        walks = []

        def first_walk(*args):
            walks.append(args)
            raise _Stopped

        monkeypatch.setattr(search_module, "_walk", first_walk)
        for jobs in (1, 2):
            with pytest.raises(_Stopped):
                _run_case(case, jobs)
        assert walks[0] == walks[1] and walks[1][2] is None
        assert started == []


class _Stopped(Exception):
    pass


# Runs the catalogue count n6-rest1-rdi2 and its first run at jobs=2 under
# the start method argv[1], and prints each run's nodes once it equals the
# run at jobs=1.  Twin reuse keeps the count's placed nodes under the
# default split budget, and the first run finds its schedule at node 217,
# so this process walks with a budget of 50 nodes: each budgeted walk must
# leave tasks for the pool, and the first run's schedule must come from a
# worker.  The workers import the package afresh and walk their tasks
# without a budget.  Neither run keeps a table.
_START_METHOD_RUN = """
import multiprocessing, os, sys
from rrsched import SearchConstraints, search
from rrsched.search import _walk, _Walked

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    os.cpu_count = lambda: 2  # a pool of two workers on any machine
    module = sys.modules["rrsched.search"]
    module._SPLIT_BUDGET = 50
    constraints = SearchConstraints(min_rest=1, max_rdi=2)
    for mode, quota in (("count", None), ("first", 1)):
        tasks = []
        walked = _walk((6, constraints, True, mode == "first", quota, False), (), 50, tasks)
        assert any(not isinstance(task, _Walked) for task in tasks), mode
        assert not walked.emissions, mode
        solo = search(6, constraints, mode)
        assert search(6, constraints, mode, jobs=2) == solo, mode
        print(mode, solo.nodes_explored)
"""

# Runs the six-team min_rest=1, max_rdi=2 first run at jobs=2 under fork,
# with a budget of 50 nodes that leaves 12 tasks: the fourth holds the
# witness.  Each worker walk of a later task first sleeps for 20 s, so the
# run returns within 10 s only if stopping the merge ends the workers.
_STOPPED_POOL_RUN = """
import multiprocessing, os, sys, time
from rrsched import SearchConstraints, search
from rrsched.search import _walk, _Walked

if __name__ == "__main__":
    multiprocessing.set_start_method("fork")
    os.cpu_count = lambda: 2
    module = sys.modules["rrsched.search"]
    module._SPLIT_BUDGET = 50
    constraints = SearchConstraints(min_rest=1, max_rdi=2)
    walk = (6, constraints, True, True, 1, False)
    entries = []
    _walk(walk, (), 50, entries)
    tasks = list(dict.fromkeys(e for e in entries if not isinstance(e, _Walked)))
    witness = next(i for i, task in enumerate(tasks) if _walk(walk, task).found)
    later = set(tasks[witness + 1:])
    assert later

    def slow_walk(walk, prefix, budget=None, tasks=None):
        if prefix in later:
            time.sleep(20)
        return _walk(walk, prefix, budget, tasks)

    solo = search(6, constraints, "first")
    module._walk = slow_walk
    start = time.monotonic()
    outcome = search(6, constraints, "first", jobs=2)
    elapsed = time.monotonic() - start
    assert outcome == solo, outcome
    assert elapsed < 10, elapsed
    assert not multiprocessing.active_children()
    print("first", outcome.nodes_explored)
"""

_walk_here = search_module._walk


def _fail_in_workers(walk, prefix, budget=None, tasks=None):
    # This process walks with a budget; the workers walk without one.
    if budget is None:
        raise RuntimeError("failed in a worker")
    return _walk_here(walk, prefix, budget, tasks)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the main thread if the block outlasts ``seconds``."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestArgumentValidation:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            search(2, SearchConstraints(min_rest=0))

    def test_rejects_large_n_without_flag(self):
        with pytest.raises(ValueError, match="allow_large"):
            search(9, SearchConstraints(min_rest=4))

    def test_allow_large_lifts_ceiling(self):
        # Rest 4 at nine teams is impossible (ten slots, nine teams), so this
        # exhausts quickly even above the default ceiling.
        outcome = search(9, SearchConstraints(min_rest=4), mode="first", allow_large=True)
        assert outcome.found is None

    def test_refuses_expensive_unconstrained_run(self):
        with pytest.raises(ValueError, match="unconstrained"):
            search(6, mode="count")

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            search(4, SearchConstraints(min_rest=1), mode="enumerate", limit=0)

    # Both modes once ran as if no limit were given.
    @pytest.mark.parametrize("mode", ["first", "count"])
    def test_rejects_limit_outside_enumerate(self, mode):
        with pytest.raises(ValueError, match="only to mode 'enumerate'"):
            search(5, SearchConstraints(min_rest=1), mode=mode, limit=1)

    def test_rejects_bad_mode_and_jobs(self):
        with pytest.raises(ValueError):
            search(4, SearchConstraints(min_rest=1), mode="all")
        with pytest.raises(ValueError):
            search(4, SearchConstraints(min_rest=1), jobs=0)

    # 5.0 and limit 1.5 raised a bare TypeError; limit True ran as 1, and
    # jobs 2.5 and True were accepted.
    @pytest.mark.parametrize("args,kwargs", [
        ((5.0,), {}),
        ((5,), {"mode": "enumerate", "limit": 1.5}),
        ((5,), {"mode": "enumerate", "limit": True}),
        ((5,), {"jobs": 2.5}),
        ((5,), {"jobs": True}),
    ], ids=["n=5.0", "limit=1.5", "limit=True", "jobs=2.5", "jobs=True"])
    def test_rejects_non_integer_argument(self, args, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            search(*args, SearchConstraints(min_rest=1), **kwargs)

    def test_rejects_negative_constraint(self):
        with pytest.raises(ValueError):
            SearchConstraints(min_rest=-1)

    # 1.5 once counted nothing, True ran as 1 and "1" raised a bare TypeError.
    @pytest.mark.parametrize("bound", [1.5, True, "1"])
    @pytest.mark.parametrize("name", ["min_rest", "max_gpd", "max_rdi"])
    def test_rejects_non_integer_constraint(self, name, bound):
        with pytest.raises(ValueError, match="must be an integer"):
            SearchConstraints(**{name: bound})


class TestCanonicalize:
    def test_already_canonical_unchanged(self):
        s = make_schedule(5, 1, FIVE_TEAM_OPTIMAL)
        assert canonicalize(s) == s

    def test_relabeling_inverse(self):
        swapped = make_schedule(5, 1, [
            (5 if a == 1 else 1 if a == 5 else a, 5 if b == 1 else 1 if b == 5 else b)
            for a, b in FIVE_TEAM_OPTIMAL])
        assert canonicalize(swapped) == make_schedule(5, 1, FIVE_TEAM_OPTIMAL)

    def test_seven_team_references_are_distinct(self):
        first = canonicalize(make_schedule(7, 1, SEVEN_TEAM_OPTIMAL))
        second = canonicalize(make_schedule(7, 1, SEVEN_TEAM_OPTIMAL_ALTERNATE))
        assert first != second

    @given(st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, n, data):
        games = data.draw(st.permutations(all_pairs(n)))
        s = make_schedule(n, 1, games)
        once = canonicalize(s)
        assert canonicalize(once) == once
