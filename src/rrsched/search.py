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

One kernel, ``_walk``, serves sequential runs and every worker of a parallel
run.  It is a recursive closure that places one game per level and undoes it
on return; it passes the shrinking list of unused pairs down the recursion
and keeps each team's latest position and, under ``max_gpd``, a histogram of
games played, so each bound is an O(1) test per candidate pair.  Complete
schedules go to an ``emit`` callback whose true return ends the walk, which
serves mode "first" and the ``limit`` of mode "enumerate".
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Schedule, expected_length

DEFAULT_TEAM_CEILING = 8
# Unconstrained runs visit every ordering of the n(n-1)/2 games: 15! already
# at six teams.  Refuse those without an explicit override.
_UNCONSTRAINED_REFUSAL = 6

MODES = ("first", "count", "enumerate")


@dataclass(frozen=True)
class SearchConstraints:
    """Optional bounds: rest at least ``min_rest`` between a team's games,
    prefix games-played spread at most ``max_gpd``, per-game rest difference
    at most ``max_rdi``."""

    min_rest: int | None = None
    max_gpd: int | None = None
    max_rdi: int | None = None

    def __post_init__(self):
        for name in ("min_rest", "max_gpd", "max_rdi"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def unconstrained(self) -> bool:
        return self.min_rest is None and self.max_gpd is None and self.max_rdi is None


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search run.

    ``found`` is set in mode "first" (None when nothing satisfies the
    constraints), ``count`` in mode "count", ``schedules`` in mode
    "enumerate".  ``nodes_explored`` counts accepted placements and is
    independent of the worker count.
    """

    mode: str
    nodes_explored: int
    found: Schedule | None = None
    count: int | None = None
    schedules: tuple[Schedule, ...] = ()


def _walk(n: int, constraints: SearchConstraints, symmetry: bool,
          first_pair: tuple[int, int] | None, emit) -> int:
    """Depth-first walk over the game orders; returns the node count.

    Each recursion level places one game, trying the unused pairs in
    ascending order (only ``first_pair`` at the first position, when given).
    ``emit(games, nodes)`` is called at each complete schedule with the live
    list of placed pairs (copy it to keep it) and the node count so far; a
    true return stops the walk.
    """
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
    nodes = 0

    def extend(depth, remaining, cut, cap, low, high):
        # cut: a team whose latest game lies after this position rests less
        #   than min_rest before the game at ``depth``.
        # cap: the lowest unseen label under symmetry breaking (n + 1 without):
        #   a pair may introduce cap, or cap and cap + 1, but no higher label.
        # low, high: the fewest and most games played by any team so far.
        nonlocal nodes
        for i, pair in enumerate(remaining):
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
            if depth == 1 and first_pair is not None and pair != first_pair:
                continue
            nodes += 1
            games.append(pair)
            if depth == total:
                if emit(games, nodes):
                    return True
                games.pop()
                continue
            if gpd is not None:
                counts[a] = count_a + 1
                counts[b] = count_b + 1
                hist[count_a] -= 1
                hist[count_a + 1] += 1
                hist[count_b] -= 1
                hist[count_b + 1] += 1
            last[a] = last[b] = depth
            child = remaining.copy()
            del child[i]
            if extend(depth + 1, child, depth - rest if depth > rest else 0,
                      b + 1 if b >= cap else cap, lo, hi):
                return True
            last[a] = last_a
            last[b] = last_b
            if gpd is not None:
                counts[a] = count_a
                counts[b] = count_b
                hist[count_a] += 1
                hist[count_a + 1] -= 1
                hist[count_b] += 1
                hist[count_b + 1] -= 1
            games.pop()
        return False

    pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
    extend(1, pairs, 0, 1 if symmetry else n + 1, 0, 0)
    return nodes


def _to_schedule(n: int, games: tuple[tuple[int, int], ...]) -> Schedule:
    # Sequences coming out of the walk are complete and valid by
    # construction; build the Schedule directly.
    return Schedule(team_count=n, multiplicity=1, games=games)


def _validate_search_args(n, constraints, mode, limit, jobs, allow_large):
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
    ``limit`` of them in lexicographic order.  Results do not depend on
    ``jobs``: with ``jobs > 1`` and symmetry breaking off, each first-game
    subtree is walked in a worker process and the results are merged in
    branch order.  Under symmetry breaking (the default) the only first game
    is (1, 2), so there is nothing to split: the walk runs in this process
    whatever ``jobs`` is, and no worker process is started.
    """
    constraints = constraints if constraints is not None else SearchConstraints()
    _validate_search_args(n, constraints, mode, limit, jobs, allow_large)
    # A walk stops after ``cap`` schedules; count mode keeps none and walks
    # the whole tree.
    keep = mode != "count"
    cap = 1 if mode == "first" else limit if keep else None
    if jobs > 1 and not symmetry_breaking:
        results = _search_parallel(n, constraints, keep, cap, jobs)
    else:
        results = [_run_branch((n, constraints, symmetry_breaking, keep, cap, None))]

    if not keep:
        count = sum(found for _, _, found, _ in results)
        nodes = sum(total for _, _, _, total in results)
        return SearchOutcome(mode=mode, nodes_explored=nodes, count=count)

    # Take the branches in order and stop where a sequential run would have.
    collected: list[Schedule] = []
    nodes = 0
    for emissions, emission_nodes, _found, total in results:
        if cap is not None and len(collected) + len(emissions) >= cap:
            take = cap - len(collected)
            collected.extend(_to_schedule(n, g) for g in emissions[:take])
            nodes += emission_nodes[take - 1]
            break
        collected.extend(_to_schedule(n, g) for g in emissions)
        nodes += total
    if mode == "first":
        return SearchOutcome(mode=mode, nodes_explored=nodes,
                             found=collected[0] if collected else None)
    return SearchOutcome(mode=mode, nodes_explored=nodes, schedules=tuple(collected))


def _run_branch(task):
    """Walk the subtree below one first game, or the whole tree for None.

    Returns (emissions, emission_nodes, found, total_nodes) where
    emissions[i] was emitted when the node counter read emission_nodes[i]
    (without ``keep`` only the tally is kept).  The caller uses the
    checkpoints to report the same node count a sequential run would.
    """
    n, constraints, symmetry, keep, cap, first_pair = task
    emissions: list[tuple[tuple[int, int], ...]] = []
    emission_nodes: list[int] = []
    found = 0

    def emit(games, nodes):
        nonlocal found
        found += 1
        if keep:
            emissions.append(tuple(games))
            emission_nodes.append(nodes)
        return found == cap

    total = _walk(n, constraints, symmetry, first_pair, emit)
    return emissions, emission_nodes, found, total


def _search_parallel(n, constraints, keep, cap, jobs) -> list:
    """Walk each first-game subtree of the unbroken search in a worker process."""
    # Imported here: the pool modules cost more than the rest of the package
    # to import, and only runs with jobs > 1 need them.
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(n, constraints, False, keep, cap, (a, b))
             for a in range(1, n) for b in range(a + 1, n + 1)]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_run_branch, tasks))


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
