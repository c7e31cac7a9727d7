"""Exhaustive enumeration of single round-robin game orders, with pruning.

The enumerator builds the game sequence position by position, trying unused
pairs in ascending lexicographic order.  Each of the three optional bounds is
prefix-monotone - once a prefix violates it, no extension can repair it - so
pruning never loses a satisfying schedule and a "none found" answer is a
proof of emptiness over the searched space.

Symmetry breaking (on by default) admits only schedules whose team labels
first appear in ascending order.  Every schedule is a relabeling of such a
schedule, and all measures are invariant under relabeling, so existence and
emptiness answers are unaffected; counts are counts of these canonical
labelings (schedules whose opening game introduces two teams at once still
have interchangeable labels and are not quotiented further).

One function, ``_walk``, is the sequential run, the in-process start of a
parallel run, each split and each pool task.  It places one game per
recursion level and undoes it on return; it passes the shrinking list of
unused pairs down the recursion and keeps each team's latest position and,
under ``max_gpd``, a histogram of games played, so each bound is an O(1)
test per candidate pair.  It collects the complete schedules it meets and
stops at a quota, which serves mode "first" and the ``limit`` of mode
"enumerate", and returns them with its counts.

A run with ``jobs > 1`` walks in this process until it has spent a node
budget; a run that ends sooner starts no process.  Past the budget the walk
records each subtree it would have entered next as a task, a prefix of
games, in walk order.  The shallowest tasks are split until every worker
has several, a process pool's ``map`` walks the tasks, and their results
are merged in walk order, so the outcome and ``nodes_explored`` equal those
of one walk.
"""

from __future__ import annotations

import os
from itertools import repeat
from typing import NamedTuple

from .model import Schedule, _Record, _set_field, expected_length

DEFAULT_TEAM_CEILING = 8
# Unconstrained runs visit every ordering of the n(n-1)/2 games: 15! already
# at six teams.  Refuse those without an explicit override.
_UNCONSTRAINED_REFUSAL = 6

MODES = ("first", "count", "enumerate")

# Nodes a run with jobs > 1 walks in this process before it starts a process
# pool: about 35 ms of walking, near twice what starting a two-worker pool
# takes on Linux, so a run that ends sooner never waits for a pool.
_SPLIT_BUDGET = 30_000
# Subtrees per worker to split the rest of the tree into.
_TASKS_PER_WORKER = 16


class SearchConstraints(_Record):
    """Optional bounds: rest at least ``min_rest`` between a team's games,
    prefix games-played spread at most ``max_gpd``, per-game rest difference
    at most ``max_rdi``."""

    __slots__ = ("min_rest", "max_gpd", "max_rdi")

    def __init__(self, min_rest: int | None = None, max_gpd: int | None = None,
                 max_rdi: int | None = None):
        for name, value in (("min_rest", min_rest), ("max_gpd", max_gpd),
                            ("max_rdi", max_rdi)):
            if value is None:
                continue
            # type() rather than isinstance(), as in make_schedule: True is
            # not a bound.
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        _set_field(self, "min_rest", min_rest)
        _set_field(self, "max_gpd", max_gpd)
        _set_field(self, "max_rdi", max_rdi)

    @property
    def unconstrained(self) -> bool:
        return self.min_rest is None and self.max_gpd is None and self.max_rdi is None


class SearchOutcome(_Record):
    """Result of one search run.

    ``found`` is set in mode "first" (None when nothing satisfies the
    constraints), ``count`` in mode "count", ``schedules`` in mode
    "enumerate".  ``nodes_explored`` counts accepted placements and is
    independent of the worker count.
    """

    __slots__ = ("mode", "nodes_explored", "found", "count", "schedules")

    def __init__(self, mode: str, nodes_explored: int, found: Schedule | None = None,
                 count: int | None = None, schedules: tuple[Schedule, ...] = ()):
        _set_field(self, "mode", mode)
        _set_field(self, "nodes_explored", nodes_explored)
        _set_field(self, "found", found)
        _set_field(self, "count", count)
        _set_field(self, "schedules", schedules)


class _Walked(NamedTuple):
    """What one walk found: ``emissions[i]`` was emitted when its node
    counter read ``emission_nodes[i]`` (both empty in count mode), and it
    counted ``found`` schedules and ``nodes`` nodes in all."""

    emissions: list[tuple[tuple[int, int], ...]]
    emission_nodes: list[int]
    found: int
    nodes: int


def _walk(walk, prefix: tuple[tuple[int, int], ...], budget: int | None = None,
          tasks: list | None = None) -> _Walked:
    """Depth-first walk below the forced ``prefix``, in this process or in a
    worker; ``walk`` is ``(n, constraints, symmetry, keep, quota)``.

    Each recursion level places one game, trying the unused pairs in
    ascending order.  The first ``len(prefix)`` levels try only the game of
    ``prefix``, and of those only the last counts as a node, so the node
    counts of the walks below the children of a node add up, with that
    node, to the count of the walk below it.  Complete schedules are kept
    when ``keep`` is true, and the walk stops at the ``quota``-th.  Once
    ``budget`` nodes are counted the walk places no more games: it appends
    each later candidate that passes every test to ``tasks``, as the tuple
    of games that ends with it, in walk order.
    """
    n, constraints, symmetry, keep, quota = walk
    total = expected_length(n)
    rest = constraints.min_rest or 0
    # A rest difference is below the game count, so this bound never prunes.
    rdi = total if constraints.max_rdi is None else constraints.max_rdi
    gpd = constraints.max_gpd
    last = [0] * (n + 1)    # position of each team's latest game, 0 before its first
    counts = [0] * (n + 1)  # games played per team (kept only under max_gpd)
    hist = [0] * n          # hist[c]: teams that have played c games
    hist[0] = n
    games: list[tuple[int, int]] = []
    emissions: list[tuple[tuple[int, int], ...]] = []
    emission_nodes: list[int] = []
    found = 0
    forced = len(prefix)
    nodes = 1 - forced if forced else 0
    # The count never falls below 1 - forced, so without a budget no count
    # equals ``spent``.
    spent = -1 - forced if budget is None else budget

    def extend(depth, remaining, cut, cap, low, high):
        # cut: a team whose latest game lies after this position rests less
        #   than min_rest before the game at ``depth``.
        # cap: the lowest unseen label under symmetry breaking (n + 1 without):
        #   a pair may introduce cap, or cap and cap + 1, but no higher label.
        # low, high: the fewest and most games played by any team so far.
        nonlocal nodes, found
        # The prefix game is the last unused pair at its level.
        for i, pair in (enumerate(remaining) if depth > forced
                        else enumerate(remaining[-1:], len(remaining) - 1)):
            a, b = pair
            if b > cap and (b > cap + 1 or a != cap):
                continue
            last_a = last[a]
            last_b = last[b]
            # Rests before this game differ by exactly last_b - last_a.
            if (last_a > cut or last_b > cut
                    or last_a - last_b > rdi or last_b - last_a > rdi):
                continue
            if gpd is None:
                lo, hi = low, high
            else:
                count_a = counts[a]
                count_b = counts[b]
                hi = high + 1 if count_a == high or count_b == high else high
                # The minimum rises only when the last teams at it leave it.
                lo = low + 1 if hist[low] == (count_a == low) + (count_b == low) else low
                if hi - lo > gpd:
                    continue
            if nodes == spent:
                tasks.append((*games, pair))
                continue
            nodes += 1
            if depth == total:
                found += 1
                if keep:
                    emissions.append((*games, pair))
                    emission_nodes.append(nodes)
                if found == quota:
                    return True
                continue
            if gpd is not None:
                counts[a] = count_a + 1
                counts[b] = count_b + 1
                hist[count_a] -= 1
                hist[count_a + 1] += 1
                hist[count_b] -= 1
                hist[count_b + 1] += 1
            last[a] = last[b] = depth
            games.append(pair)
            child = remaining.copy()
            del child[i]
            if extend(depth + 1, child, depth - rest if depth > rest else 0,
                      b + 1 if b >= cap else cap, lo, hi):
                return True
            games.pop()
            last[a] = last_a
            last[b] = last_b
            if gpd is not None:
                counts[a] = count_a
                counts[b] = count_b
                hist[count_a] += 1
                hist[count_a + 1] -= 1
                hist[count_b] += 1
                hist[count_b + 1] -= 1
        return False

    # The prefix games go last, in reverse, so that each is the last pair at
    # its level: no sibling follows it, and below the prefix the unused pairs
    # are in ascending order again.
    pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
             if (a, b) not in prefix]
    pairs.extend(reversed(prefix))
    extend(1, pairs, 0, 1 if symmetry else n + 1, 0, 0)
    return _Walked(emissions, emission_nodes, found, nodes)


def _validate_search_args(n, constraints, mode, limit, jobs, allow_large):
    checked = [("n", n), ("jobs", jobs)]
    if limit is not None:
        checked.append(("limit", limit))
    for name, value in checked:
        # type() rather than isinstance(), as in make_schedule: True is not a
        # count.
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < 3:
        raise ValueError(f"search needs at least 3 teams, got {n}")
    if n > DEFAULT_TEAM_CEILING and not allow_large:
        raise ValueError(
            f"search above {DEFAULT_TEAM_CEILING} teams is refused without allow_large"
        )
    if constraints.unconstrained and n >= _UNCONSTRAINED_REFUSAL and not allow_large:
        raise ValueError(
            f"unconstrained search at {n} teams would visit up to "
            f"{expected_length(n)}! orderings; pass allow_large to force it"
        )
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def search(n: int, constraints: SearchConstraints | None = None, mode: str = "first",
           limit: int | None = None, *, symmetry_breaking: bool = True, jobs: int = 1,
           allow_large: bool = False) -> SearchOutcome:
    """Run the enumerator over all single round robins on ``n`` teams.

    Modes: "first" returns the lexicographically first satisfying schedule
    (or None), "count" counts all of them, "enumerate" collects up to
    ``limit`` of them in lexicographic order.  Results, ``nodes_explored``
    included, do not depend on ``jobs``.  With ``jobs > 1`` the walk starts
    in this process; a run that ends within a fixed node budget starts no
    worker process.  Otherwise the subtrees left unwalked go to a pool of at
    most ``min(jobs, os.cpu_count())`` worker processes, and their results
    are merged in walk order.
    """
    constraints = constraints if constraints is not None else SearchConstraints()
    _validate_search_args(n, constraints, mode, limit, jobs, allow_large)
    # A walk stops after ``quota`` schedules; count mode keeps none and walks
    # the whole tree.
    keep = mode != "count"
    quota = 1 if mode == "first" else limit if keep else None
    walk = (n, constraints, symmetry_breaking, keep, quota)
    collected: list[tuple[tuple[int, int], ...]] = []
    count = nodes = 0

    def merge(walked: _Walked) -> bool:
        # Walks arrive in walk order; stop where a sequential run would have.
        nonlocal count, nodes
        if quota is not None and len(collected) + walked.found >= quota:
            take = quota - len(collected)
            collected.extend(walked.emissions[:take])
            nodes += walked.emission_nodes[take - 1]
            return True
        count += walked.found
        collected.extend(walked.emissions)
        nodes += walked.nodes
        return False

    workers = min(jobs, os.cpu_count() or 1) if jobs > 1 else 1
    if workers > 1:
        _search_parallel(walk, workers, merge)
    else:
        merge(_walk(walk, ()))

    if not keep:
        return SearchOutcome(mode=mode, nodes_explored=nodes, count=count)
    # Walked sequences are complete and valid by construction, so they skip
    # make_schedule.
    schedules = tuple(Schedule(team_count=n, multiplicity=1, games=g) for g in collected)
    if mode == "first":
        return SearchOutcome(mode=mode, nodes_explored=nodes,
                             found=schedules[0] if schedules else None)
    return SearchOutcome(mode=mode, nodes_explored=nodes, schedules=schedules)


def _search_parallel(walk, workers: int, merge) -> None:
    """Walk in this process until the budget is spent, then the rest in a pool.

    The subtrees the budgeted walk leaves are split, shallowest first, until
    there are ``_TASKS_PER_WORKER`` per worker, so that one big subtree does
    not leave the other workers idle.  The pool's ``map`` runs them and their
    results are merged in walk order.  The pool feeds its workers only about
    one task each ahead of the merge, and shutting it down cancels the tasks
    it has not fed, so a run that stops at its quota leaves little work
    behind.
    """
    tasks: list[tuple[tuple[int, int], ...]] = []
    if merge(_walk(walk, (), _SPLIT_BUDGET, tasks)) or not tasks:
        return
    # Splitting a task walks its root node here and leaves the root's
    # result in its place, followed by its children as new tasks.
    entries: list = list(tasks)
    while tasks and len(tasks) < _TASKS_PER_WORKER * workers:
        at = min((i for i, entry in enumerate(entries) if not isinstance(entry, _Walked)),
                 key=lambda i: len(entries[i]))
        children: list[tuple[tuple[int, int], ...]] = []
        entries[at:at + 1] = [_walk(walk, entries[at], 1, children), *children]
        tasks = [entry for entry in entries if not isinstance(entry, _Walked)]
    if not tasks:
        # The splits walked the rest of the tree.
        for entry in entries:
            if merge(entry):
                return
        return

    # Imported here: the pool modules cost more than the rest of the package
    # to import, and only runs that outlast the budget need them.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
    try:
        results = pool.map(_walk, repeat(walk), tasks)
        for entry in entries:
            if merge(entry if isinstance(entry, _Walked) else next(results)):
                return
    finally:
        pool.shutdown(cancel_futures=True)


def canonicalize(s: Schedule) -> Schedule:
    """Relabel teams in order of first appearance.

    The first-listed team of the first game becomes 1, its opponent 2, the
    next unseen team 3, and so on; a game that introduces two unseen teams
    takes the next two labels.  Every relabeled game is emitted in ascending
    order, as the enumerator emits them, since schedule equality depends on
    orientation.  Idempotent.
    """
    mapping: dict[int, int] = {}
    games = []
    for a, b in s.games:
        for team in (a, b):
            if team not in mapping:
                mapping[team] = len(mapping) + 1
        x, y = mapping[a], mapping[b]
        games.append((x, y) if x < y else (y, x))
    return Schedule(team_count=s.team_count, multiplicity=s.multiplicity, games=tuple(games))
