"""Search: pruned enumeration, symmetry breaking, canonicalization."""

import contextlib
import functools
import importlib
import itertools
import os
import signal
from concurrent.futures import Executor, Future

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
    # order or the pruning of the walk moves these numbers.
    @pytest.mark.parametrize("n, bounds, mode, limit, count, nodes, solutions", [
        (5, dict(max_gpd=1), "count", None, 640, 1882, 640),
        (6, dict(max_rdi=1), "count", None, 8128, 319235, 8128),
        (6, dict(min_rest=1, max_rdi=2), "count", None, 8384, 84159, 8384),
        (7, dict(min_rest=2), "count", None, 16, 1361, 16),
        (8, dict(min_rest=2, max_gpd=2, max_rdi=1), "first", None, None, 2508, 0),
        (8, dict(min_rest=2, max_gpd=1, max_rdi=2), "first", None, None, 953, 1),
        (6, dict(min_rest=1), "enumerate", 2000, None, 23653, 2000),
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pinned_counts(self, n, bounds, mode, limit, count, nodes, solutions, jobs):
        outcome = search(n, SearchConstraints(**bounds), mode=mode, limit=limit, jobs=jobs)
        assert (outcome.count, outcome.nodes_explored) == (count, nodes)
        if mode == "first":
            assert (outcome.found is not None) == solutions
        elif mode == "enumerate":
            assert len(outcome.schedules) == solutions


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
        # 92 nodes: the run ends within the split budget, so it never
        # reaches the point where it would start a pool.
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        seq = search(5, SearchConstraints(min_rest=1), mode="enumerate")
        par = search(5, SearchConstraints(min_rest=1), mode="enumerate", jobs=2)
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


class _RunOnResult(Future):
    """A future whose call runs when its result is first asked for."""

    def __init__(self, call):
        super().__init__()
        self._call = call

    def result(self, timeout=None):
        if not self.done():
            self.set_running_or_notify_cancel()
            try:
                self.set_result(self._call())
            except Exception as exc:  # delivered through the future, as a pool does
                self.set_exception(exc)
        return super().result(timeout)


class InProcessExecutor(Executor):
    """Stands in for ProcessPoolExecutor: runs each task in this process when
    its result is asked for, so the inherited ``map`` runs no task ahead of
    the merge.  Records the worker count, the results in the order they ran
    and the ``cancel_futures`` that ``shutdown`` got (None before it)."""

    def __init__(self, started, max_workers):
        self.max_workers = max_workers
        self.results = []
        self.cancel_futures = None
        started.append(self)

    def submit(self, fn, /, *args):
        def call():
            result = fn(*args)
            self.results.append(result)
            return result
        return _RunOnResult(call)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.cancel_futures = cancel_futures


@pytest.fixture
def split(monkeypatch):
    """Run jobs > 1 searches in this process with a tiny split budget; yields
    the setter of the budget and the list of executors the runs started."""
    import concurrent.futures

    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(InProcessExecutor, started))
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
        assert all(pool.cancel_futures is True for pool in started)

    def test_worker_count_is_capped_at_the_cpu_count(self, split, monkeypatch):
        set_budget, started = split
        set_budget(1)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        outcome = search(5, SearchConstraints(min_rest=1), mode="count",
                         symmetry_breaking=False, jobs=1000)
        assert outcome.count == search(5, SearchConstraints(min_rest=1), mode="count",
                                       symmetry_breaking=False).count
        assert [pool.max_workers for pool in started] == [3]

    def test_one_cpu_walks_in_this_process(self, split, monkeypatch):
        set_budget, started = split
        set_budget(1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        search(5, SearchConstraints(min_rest=1), mode="count", jobs=8)
        assert started == []

    def test_first_mode_stops_handing_out_tasks(self, split):
        set_budget, started = split
        set_budget(1)
        constraints = SearchConstraints(max_rdi=1)
        search(6, constraints, mode="count", jobs=2)
        everything = len(started[0].results)
        found = search(6, constraints, mode="first", jobs=2)
        assert found == search(6, constraints, mode="first")
        ran = started[1].results
        witness = next(i for i, walked in enumerate(ran) if walked.found)
        # No task after the one that held the witness ran, and shutting the
        # pool down cancels those a real pool has not fed to a worker yet.
        assert len(ran) == witness + 1 < everything
        assert started[1].cancel_futures is True

    def test_real_pool_matches_a_sequential_walk(self, monkeypatch):
        import concurrent.futures

        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                pools.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(search_module, "_SPLIT_BUDGET", 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cases = [(6, SearchConstraints(min_rest=1), "enumerate", 5, True),
                 (4, SearchConstraints(max_rdi=2), "count", None, False),
                 (6, SearchConstraints(max_rdi=1), "first", None, True),
                 (5, SearchConstraints(min_rest=1, max_gpd=2), "enumerate", 3, False)]
        for case in cases:
            expected = search(*case[:4], symmetry_breaking=case[4])
            assert search(*case[:4], symmetry_breaking=case[4], jobs=2) == expected, case
        assert pools == [2] * len(cases)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(search_module, "_SPLIT_BUDGET", 3)
        monkeypatch.setattr(search_module, "_walk", _fail_in_workers)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with _deadline(60), pytest.raises(RuntimeError, match="failed in a worker"):
            search(5, SearchConstraints(min_rest=1), mode="count",
                   symmetry_breaking=False, jobs=2)


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
