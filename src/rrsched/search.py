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
parallel run and each pool task.  It is one loop over a stack with an
entry per placed game, popped when the game is undone.  Each level has its
own list of unused pairs, and the walk keeps each team's latest position
and, under ``max_gpd``, a histogram of games played, so each bound is an
O(1) test per candidate pair.  It collects the complete schedules it meets
and stops at a quota, which serves mode "first" and the ``limit`` of mode
"enumerate", and returns them with its counts.

Two teams that have just met each other, had met the same opponents before
and have not played since are twins: swapping them changes no bound's test
below that node.  So a candidate pair that an earlier sibling maps to by
twin swaps has a subtree with that sibling's schedule and node counts, and
the walk adds those counts instead of walking it.  Where the schedules
themselves are kept, it reuses a sibling that found schedules only in a
walk without a state table (below): it relabels the sibling's schedules by
the twin swaps and sorts them, which gives the image's own walk order.
Each sibling leaves one record of its counts, where its schedules begin
and the tasks it left past the budget (below), and the image picks one of
these reuses, or walks, where it reads the record.
``nodes_explored`` therefore counts every node of the pruned tree, the
nodes of reused subtrees included, exactly as a walk without reuse would.

Every run that does not stop at its first schedule (a count, or an
"enumerate" run whose limit, if any, is above 1) also keeps, for the length
of one walk, a table from walk state to the counts of the subtree below it.
The nodes below a node depend only on its state: the set of used pairs and,
without ``max_rdi``, the order of the last ``min_rest`` games, or, under
``max_rdi``, the latest position of each team that has games left.  So any
later node that reaches a state already walked in full (by another order of
the same games, say) adds those counts instead of walking it again, and an
"enumerate" run copies the subtree's schedules, each with its own games in
front, unless its limit falls inside the subtree.  It does so only where
more than three teams are free to play at each position; with three or
fewer the order is nearly forced and states seldom repeat.  Under
``max_rdi`` it does so only without ``min_rest``: with both bounds a lookup
seldom saves what it costs.

With ``jobs > 1`` a "first" run, or a count without a table, walks in this
process until it has walked a node budget (reused nodes do not count); a
run that ends sooner starts no process.  Past the budget the walk records
each subtree it would have entered next as a task, a prefix of games, in
walk order.  A process pool walks the tasks, and their results are merged
whole in walk order, so the outcome and ``nodes_explored`` equal those of
one walk; a run that stops, at its schedule or on an error, ends the
workers.  A pool shares neither a walk's table nor its emitted schedules
and made the runs that keep either slower, so they walk in this process.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import repeat
from typing import NamedTuple, Sequence

from .model import Schedule, _check_count, _Record, _valid_schedule, expected_length

DEFAULT_TEAM_CEILING = 8
# Unconstrained runs range over every ordering of the n(n-1)/2 games, 15!
# already at six teams: too many to enumerate, and the count takes seconds
# from seven teams.  Refuse those runs without an explicit override.
_UNCONSTRAINED_REFUSAL = 6

MODES = ("first", "count", "enumerate")

# Nodes a run with jobs > 1 walks in this process before it starts a process
# pool: about 35 ms of walking, twice what starting and stopping a two-worker
# pool takes under the ``fork`` start method (15-19 ms; 74-106 ms under
# ``spawn`` and ``forkserver``), so a run that ends sooner never waits for one.
_SPLIT_BUDGET = 30_000

# A count or "enumerate" run looks up subtree counts by walk state when at
# least this many teams are free to play at each position, n - 2 * min_rest.
# With three, as for odd n at the largest rest, the order of the games is
# nearly forced and states seldom repeat: 9 of about 79,000 lookups hit in
# the 13-team max-rest count, and a table made it 1.2-1.3x as long.  Under
# max_rdi the table's key holds every team's latest position, and a run that
# also sets min_rest keeps no table: there a lookup saved 0-1.2 placements,
# against 0.9-5.4 without min_rest in runs of 20,000 nodes or more.  With a
# table, 11 of 17 such runs measured took 1.06-1.67x as long (the 9-team
# min_rest=2, max_rdi=1 enumeration of 1,000 schedules 8.8 -> 14.7 s), and
# the other 6 took 0.70-0.95x.
_TABLE_MIN_FREE = 4
# Entries the table keeps at most: a 10-team count that filled it held
# 171 MB resident.  Past them the table is still read but no longer grows,
# so a long count keeps bounded memory.
_TABLE_LIMIT = 1 << 20


class SearchConstraints(_Record):
    """Optional bounds: rest at least ``min_rest`` between a team's games,
    prefix games-played spread at most ``max_gpd``, per-game rest difference
    at most ``max_rdi``."""

    __slots__ = ("min_rest", "max_gpd", "max_rdi")

    def __new__(cls, min_rest: int | None = None, max_gpd: int | None = None,
                max_rdi: int | None = None):
        for name, value in (("min_rest", min_rest), ("max_gpd", max_gpd),
                            ("max_rdi", max_rdi)):
            if value is not None:
                _check_count(name, value, 0)
        return cls._build(min_rest, max_gpd, max_rdi)

    @property
    def unconstrained(self) -> bool:
        return self.min_rest is None and self.max_gpd is None and self.max_rdi is None


class SearchOutcome(_Record):
    """Result of one search run.

    ``found`` is set in mode "first" (None when nothing satisfies the
    constraints), ``count`` in mode "count", ``schedules`` in mode
    "enumerate".  ``nodes_explored`` counts accepted placements: the size of
    the pruned tree up to where the run stopped, subtrees that were reused
    rather than walked included.  It is independent of the worker count.
    """

    __slots__ = ("mode", "nodes_explored", "found", "count", "schedules")

    def __new__(cls, mode: str, nodes_explored: int, found: Schedule | None = None,
                count: int | None = None, schedules: tuple[Schedule, ...] = ()):
        return cls._build(mode, nodes_explored, found, count, schedules)


class _Walked(NamedTuple):
    """What one walk found: the schedules it emitted (none in count mode, and
    none where a budgeted walk lists a twin sibling's counts among its
    tasks), and the ``found`` schedules and ``nodes`` nodes it counted.
    Pool results, of counts and "first" runs, are merged whole."""

    emissions: Sequence[tuple[tuple[int, int], ...]]
    found: int
    nodes: int


def _walk(walk, prefix: tuple[tuple[int, int], ...], budget: int | None = None,
          tasks: list | None = None) -> _Walked:
    """Depth-first walk below the forced ``prefix``, in this process or in a
    worker; ``walk`` is ``(n, constraints, symmetry, keep, quota, tabled)``.

    Each level of the walk places one game, trying the unused pairs in
    ascending order.  The first ``len(prefix)`` levels try only the game of
    ``prefix``, and of those only the last counts as a node, so the node
    counts of the walks below the children of a node add up, with that
    node, to the count of the walk below it.  Complete schedules are kept
    when ``keep`` is true, and the walk stops at the ``quota``-th.

    A candidate that an earlier sibling maps to by swapping twins (see
    ``twins`` below) has a subtree with the same schedule and node counts.
    Every sibling, walked, served by the table or listed as a task, leaves
    one record, ``(found, nodes, start, *tasks)`` (see ``reusable``), and
    the image picks its reuse where it reads the record: past the budget it
    lists the sibling's counts and tasks; in count mode, or if the sibling
    found no schedule, it adds the counts; in a walk without a table,
    unless the quota would fall inside the image, it relabels the sibling's
    schedules; otherwise it walks the image.
    A walk that is ``tabled`` also adds the counts of an earlier node with
    the same state (see ``table`` below), and when ``keep`` is true copies
    that subtree's schedules after its own games; it walks the subtree
    instead where the quota would fall inside it.

    Once ``budget`` nodes are walked (reused ones do not count) the walk
    places no more games: it appends each later candidate that passes every
    test to ``tasks``, in walk order, as the tuple of games that ends with
    it; a twin image appends a ``_Walked`` of the sibling's walked counts,
    if it walked any, and the same task objects the sibling left.  Only a
    count or a "first" run without a table has a budget, so a sibling
    whose subtree left tasks found no schedule it keeps.
    """
    n, constraints, symmetry, keep, quota, tabled = walk
    if tasks is None:
        tasks = []
    total = expected_length(n)
    rest = constraints.min_rest or 0
    # A rest difference is below the game count, so this bound never prunes.
    rdi = total if constraints.max_rdi is None else constraints.max_rdi
    gpd = constraints.max_gpd
    last = [0] * (n + 1)    # position of each team's latest game, 0 before its first
    counts = [0] * (n + 1)  # games played per team (kept only under max_gpd)
    hist = [0] * n          # hist[c]: teams that have played c games
    hist[0] = n
    played = [0] * (n + 1)  # bit t is set once the team has met team t
    # twins[p] is a + b if the teams a, b of the game at position p had met
    # the same opponents before it, else 0.  Those two are twins while
    # neither has played since: swapping them maps every latest position,
    # count and unused pair, and the lowest unseen label, to itself, so it
    # changes no prune test (notes/decisions.md has the argument).
    twins = [0] * (total + 1)
    games: list[tuple[int, int]] = []
    emissions: list[tuple[tuple[int, int], ...]] = []
    found = 0
    forced = len(prefix)
    nodes = 1 - forced if forced else 0
    # The count never falls below 1 - forced, so without a budget no count
    # equals ``spent``; a reused twin's subtree raises both by its node count.
    spent = -1 - forced if budget is None else budget

    table = None
    if tabled:
        # state -> (found, nodes) below a node walked in full, and in keep
        # mode ``start``, where its schedules begin in ``emissions``.
        # Below a node only its state counts (notes/decisions.md): the used
        # pairs, and without max_rdi the last ``rest`` games in order, since
        # a latest position then matters only through ``last > cut``.  One
        # int holds it: bit ``tail_bits + code`` per used pair above the
        # last games' codes.  Under max_rdi (and so without min_rest) the
        # state is the used pairs, bit ``code`` each, and the latest
        # position of each team with games left, in a field at ``shift[t]``
        # above them; a team that has met every other team holds 0 there,
        # since no test reads it again.
        table = {}
        n1 = n + 1
        if constraints.max_rdi is None:
            shift = None
            width = (n1 * n1).bit_length()
            tail_bits = width * rest
            tail_mask = (1 << tail_bits) - 1
        else:
            field = total.bit_length()
            shift = [n1 * n1 + field * t for t in range(n1)]
            # done[t]: ``played[t]`` once team t has met every other team
            done = [(1 << n1) - 2 - (1 << t) for t in range(n1)]
    # The prefix games go last, in reverse, so that each is the last pair at
    # its level: no sibling follows it, and below the prefix the unused pairs
    # are in ascending order again.
    remaining = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
                 if (a, b) not in prefix]
    remaining.extend(reversed(prefix))
    depth = 1  # the position of the next game
    # cut: a team whose latest game lies after this position rests less
    #   than min_rest before the game at ``depth``.
    cut = 0
    # cap: the lowest unseen label under symmetry breaking (n + 1 without):
    #   a pair may introduce cap, or cap and cap + 1, but no higher label.
    cap = 1 if symmetry else n + 1
    low = high = 0  # the fewest and most games played by any team so far
    # orbit key -> (found, nodes, start, *tasks) of an earlier twin sibling:
    # its counts, its own node included; ``start``, the ``found`` before it,
    # so that in keep mode its schedules are emissions[start:start + found];
    # and the tasks it left past the budget.  A sibling that is a task holds
    # (0, 0, 0, task).  Made at the first key.
    reusable = None
    state = next_state = 0  # the table's keys here and after the candidate
    # The prefix game is the last unused pair at its level.
    candidates = (enumerate(remaining) if depth > forced
                  else enumerate(remaining[-1:], len(remaining) - 1))
    stack = []  # one entry per placed game, made just before it is placed
    count_a = count_b = 0  # games played by a and b, read only under max_gpd
    while True:
        for i, pair in candidates:
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
            # key: the bits of the lower team of each twin pair, and of each
            # team without a twin, so pairs equal up to twin swaps share it;
            # 0 when neither team has a twin.
            key = 0
            if twins[last_a] or twins[last_b]:
                # A team's mate is its opponent in its latest game; they are
                # twins if that game set ``twins`` and the mate has not
                # played since.
                mate_a = twins[last_a] - a
                mate_b = twins[last_b] - b
                twin_a = mate_a > 0 and last[mate_a] == last_a
                twin_b = mate_b > 0 and last[mate_b] == last_b
                if twin_a or twin_b:
                    key = (1 << (mate_a if twin_a and mate_a < a else a)
                           | 1 << (mate_b if twin_b and mate_b < b else b))
                    if reusable is None:
                        reusable = {}
                    twin = reusable.get(key)
                    if twin is not None:
                        # Past the budget the image lists the sibling's
                        # counts and the tasks it left.
                        if nodes == spent:
                            if twin[1]:
                                tasks.append(_Walked((), twin[0], twin[1]))
                            tasks.extend(twin[3:])
                            continue
                        if not keep or not twin[0]:
                            found += twin[0]
                            nodes += twin[1]
                            spent += twin[1]
                            continue
                        # The sibling found schedules.  Where a table serves
                        # the image's states, or the quota falls inside the
                        # image, the image is walked instead.
                        if table is None and (quota is None or found + twin[0] < quota):
                            # sigma swaps each team of this pair that is not in
                            # the sibling's with its mate, so it maps the
                            # sibling's subtree onto this one.  The walk emits
                            # the schedules below a node in ascending order of
                            # their games, so sorting the relabeled suffixes
                            # gives this subtree's own order.
                            start = twin[2]
                            sibling = emissions[start][depth - 1]
                            sigma = list(range(n + 1))
                            for team, mate in (a, mate_a), (b, mate_b):
                                if team not in sibling:
                                    sigma[team], sigma[mate] = mate, team
                            images = []
                            for e in emissions[start:start + twin[0]]:
                                image = []
                                for x, y in e[depth:]:
                                    x, y = sigma[x], sigma[y]
                                    image.append((x, y) if x < y else (y, x))
                                images.append(tuple(image))
                            images.sort()
                            head = (*games, pair)
                            emissions.extend([head + image for image in images])
                            found += twin[0]
                            nodes += twin[1]
                            continue
            if nodes == spent:
                task = (*games, pair)
                tasks.append(task)
                if key:
                    reusable[key] = (0, 0, 0, task)
                continue
            nodes += 1
            if depth == total:
                found += 1
                if keep:
                    emissions.append((*games, pair))
                if found == quota:
                    return _Walked(emissions, found, nodes)
                continue
            played_a = played[a]
            played_b = played[b]
            if table is not None:
                code = a * n1 + b
                if shift is None:
                    tail = state & tail_mask
                    next_state = (state ^ tail | 1 << tail_bits + code
                                  | (tail << width | code) & tail_mask)
                else:
                    next_state = (
                        state + (1 << code)
                        + (((0 if played_a | 1 << b == done[a] else depth) - last_a)
                           << shift[a])
                        + (((0 if played_b | 1 << a == done[b] else depth) - last_b)
                           << shift[b]))
                below = table.get(next_state)
                # A subtree that would reach the quota is walked: where the
                # walk stops inside it is not stored.
                if below is not None and (quota is None or found + below[0] < quota):
                    if keep and below[0]:
                        # Below one state the schedules' games after it, and
                        # their order, are fixed: copy them after this node's.
                        head = (*games, pair)
                        start = below[2]
                        emissions.extend([head + e[depth:]
                                          for e in emissions[start:start + below[0]]])
                    if key:
                        reusable[key] = (below[0], below[1] + 1, found)
                    found += below[0]
                    nodes += below[1]
                    continue
            # What this level goes on with, what undoes the game, and the
            # counts (this node's included) and tasks before its subtree.
            stack.append((candidates, remaining, cut, cap, low, high, reusable, state,
                          key, last_a, last_b, played_a, played_b, count_a, count_b,
                          found, nodes, key and len(tasks)))
            if gpd is not None:
                counts[a] = count_a + 1
                counts[b] = count_b + 1
                hist[count_a] -= 1
                hist[count_a + 1] += 1
                hist[count_b] -= 1
                hist[count_b + 1] += 1
            last[a] = last[b] = depth
            twins[depth] = a + b if played_a == played_b else 0
            played[a] = played_a | 1 << b
            played[b] = played_b | 1 << a
            games.append(pair)
            remaining = remaining.copy()
            del remaining[i]
            cut = depth - rest if depth > rest else 0
            if b >= cap:
                cap = b + 1
            low, high = lo, hi
            reusable = None
            state = next_state
            depth += 1
            candidates = (enumerate(remaining) if depth > forced
                          else enumerate(remaining[-1:], len(remaining) - 1))
            break
        else:
            # Every candidate at this level is done: undo the game above it.
            if not stack:
                return _Walked(emissions, found, nodes)
            walked = state
            (candidates, remaining, cut, cap, low, high, reusable, state,
             key, last_a, last_b, played_a, played_b, count_a, count_b,
             found_before, nodes_before, tasks_before) = stack.pop()
            depth -= 1
            if table is not None and len(table) < _TABLE_LIMIT:
                # In keep mode ``found`` counts ``emissions``, so the
                # subtree's schedules start at ``found_before``.
                table[walked] = ((found - found_before, nodes - nodes_before, found_before)
                                 if keep else (found - found_before, nodes - nodes_before))
            if key:
                reusable[key] = (found - found_before, nodes - nodes_before + 1,
                                 found_before, *tasks[tasks_before:])
            a, b = games.pop()
            played[a] = played_a
            played[b] = played_b
            last[a] = last_a
            last[b] = last_b
            if gpd is not None:
                counts[a] = count_a
                counts[b] = count_b
                hist[count_a] += 1
                hist[count_a + 1] -= 1
                hist[count_b] += 1
                hist[count_b + 1] -= 1


def _validate_search_args(n, constraints, mode, limit, jobs, allow_large):
    _check_count("n", n, 3)
    _check_count("jobs", jobs, 1)
    if limit is not None:
        _check_count("limit", limit, 1)
    if n > DEFAULT_TEAM_CEILING and not allow_large:
        raise ValueError(
            f"search above {DEFAULT_TEAM_CEILING} teams is refused without allow_large"
        )
    if constraints.unconstrained and n >= _UNCONSTRAINED_REFUSAL and not allow_large:
        raise ValueError(
            f"unconstrained search at {n} teams ranges over all {expected_length(n)}! "
            f"orderings of its games: too many to enumerate, and a count takes "
            f"seconds from 7 teams; pass allow_large to force it"
        )
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if limit is not None and mode != "enumerate":
        raise ValueError(f"limit applies only to mode 'enumerate', got mode {mode!r}")


def _run_plan(n: int, constraints: SearchConstraints, mode: str, limit: int | None):
    """``(keep, quota, tabled, poolable)``: a run keeps its schedules unless
    it counts, and stops after ``quota`` of them (count mode walks the whole
    tree).  Past its first schedule it keeps a table where that pays (see
    ``_TABLE_MIN_FREE``).  Only a "first" run or a count without a table may
    walk with the split budget and start a pool, so a budgeted walk keeps
    no table and emits at most one schedule."""
    keep = mode != "count"
    quota = 1 if mode == "first" else limit if keep else None
    rest = constraints.min_rest or 0
    tabled = (quota != 1 and n - 2 * rest >= _TABLE_MIN_FREE
              and (constraints.max_rdi is None or not rest))
    return keep, quota, tabled, mode != "enumerate" and not tabled


def search(n: int, constraints: SearchConstraints | None = None, mode: str = "first",
           limit: int | None = None, *, symmetry_breaking: bool = True, jobs: int = 1,
           allow_large: bool = False) -> SearchOutcome:
    """Run the enumerator over all single round robins on ``n`` teams.

    Modes: "first" returns the lexicographically first satisfying schedule
    (or None), "count" counts all of them, "enumerate" collects up to
    ``limit`` of them in lexicographic order; another mode with a ``limit``
    raises ``ValueError``.  ``nodes_explored`` is the size of the pruned
    tree the run covered, including the subtrees it reused from a
    twin-swapped sibling, or, in modes "count" and "enumerate" (except
    under both ``max_rdi`` and ``min_rest``), from an earlier node with the
    same state, rather than walked.  Results, ``nodes_explored`` included,
    do not depend on ``jobs``.  With ``jobs > 1`` a "first" run, or a count
    that keeps no table of states, starts its walk in this process; a run
    that ends within a fixed budget of walked nodes starts no worker
    process.  Otherwise the subtrees left unwalked go to a pool of at most
    ``min(jobs, os.cpu_count())`` worker processes, their results are
    merged whole, in walk order, and the workers end when the merge stops.
    Every other run walks in this process alone: a pool shares neither the
    table nor the schedules a walk has emitted, and it made those runs slower.

    A script that calls ``search`` with ``jobs > 1`` needs the call under
    ``if __name__ == "__main__":``.  Under the ``spawn`` and ``forkserver``
    start methods (the default on macOS, and on Linux from Python 3.14)
    each worker imports the script again and fails in its bootstrapping
    phase, and the pool replaces the dead workers without end, so the run
    never returns.  Under ``fork`` a worker that dies, killed for memory
    say, leaves the run waiting for its result forever.
    """
    constraints = constraints if constraints is not None else SearchConstraints()
    _validate_search_args(n, constraints, mode, limit, jobs, allow_large)
    keep, quota, tabled, poolable = _run_plan(n, constraints, mode, limit)
    walk = (n, constraints, symmetry_breaking, keep, quota, tabled)
    collected: list[tuple[tuple[int, int], ...]] = []
    count = nodes = 0

    def merge(walked: _Walked) -> bool:
        # Walks arrive in walk order.  Each stops at its quota, so only a
        # "first" run stops, after the result that holds its schedule.
        nonlocal count, nodes
        count += walked.found
        collected.extend(walked.emissions)
        nodes += walked.nodes
        return count == quota

    workers = min(jobs, os.cpu_count() or 1) if poolable else 1
    entries: list = []
    if not merge(_walk(walk, (), _SPLIT_BUDGET if workers > 1 else None, entries)) and entries:
        _search_parallel(walk, workers, entries, merge)

    if not keep:
        return SearchOutcome(mode=mode, nodes_explored=nodes, count=count)
    schedules = tuple(map(_valid_schedule, repeat(n), repeat(1), collected))
    if mode == "first":
        return SearchOutcome(mode=mode, nodes_explored=nodes,
                             found=schedules[0] if schedules else None)
    return SearchOutcome(mode=mode, nodes_explored=nodes, schedules=schedules)


def _search_parallel(walk, workers: int, entries: list, merge) -> None:
    """Walk in a pool the tasks the budgeted walk left, and merge in walk order.

    ``entries`` holds the tasks, and the reused results of twin siblings
    that follow them, in walk order.  A task listed more than once (as its
    twin images) is walked once and its result merged at each place.  The
    pool's ``imap`` yields the results in task order, and leaving the
    ``with`` block terminates the workers, so a "first" run that stops, or
    a merge that raises, ends every walk still running.
    """
    tasks = list(dict.fromkeys(entry for entry in entries
                               if not isinstance(entry, _Walked)))
    if not tasks:
        any(map(merge, entries))  # up to the first that stops the run
        return
    # Imported here: only runs that outlast the budget pay for the pool modules.
    from multiprocessing import Pool

    walked: dict = {}
    with Pool(min(workers, len(tasks))) as pool:
        results = pool.imap(partial(_walk, walk), tasks)
        for entry in entries:
            if not isinstance(entry, _Walked):
                if entry not in walked:
                    walked[entry] = next(results)
                entry = walked[entry]
            if merge(entry):
                return


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
    return _valid_schedule(s.team_count, s.multiplicity, tuple(games))
