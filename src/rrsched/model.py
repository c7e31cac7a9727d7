"""Core schedule model: games, round structure, validation, and I/O.

An asynchronous round-robin schedule is a total order on games: game i is the
i-th game played, and no two games overlap.  Teams are 1-based integers; a
schedule for ``n`` teams with multiplicity ``m`` contains every unordered pair
of distinct teams exactly ``m`` times.

A game is a plain ``(a, b)`` tuple of ints in its stored orientation, which
serialization keeps.  Validation counts ``(a, b)`` and ``(b, a)`` as the same
pair, but tuple and :class:`Schedule` equality are orientation-exact: two
schedules that differ only in the orientation of a game are not equal.
"""

from __future__ import annotations

import reprlib
from collections.abc import Sequence


class ScheduleValidationError(ValueError):
    """A game sequence violates the round-robin invariants.

    ``index`` is the 1-based position of the first offending game, when one
    can be pinned down (None for aggregate errors such as a wrong length).
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ParseError(ValueError):
    """Schedule input is malformed; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


# Stores a field in a _Record's __init__, past its raising __setattr__.
_set_field = object.__setattr__


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields, in order, in ``__slots__`` and stores each
    in its ``__init__`` with ``_set_field``.  Equality (same class and field
    values), hashing and ``repr`` follow the fields, and an instance pickles
    as its class called with its field values.  Assigning or deleting an
    attribute raises ``AttributeError``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickle's default restores slots through the raising __setattr__.
        return (self.__class__, self._values())


class Schedule(_Record):
    """A validated total order on the games of an m-fold round robin.

    Construct through :func:`make_schedule` (or the parsers), which enforce
    the invariants; instances are immutable after construction.
    """

    __slots__ = ("team_count", "multiplicity", "games")

    def __init__(self, team_count: int, multiplicity: int,
                 games: tuple[tuple[int, int], ...]):
        _set_field(self, "team_count", team_count)
        _set_field(self, "multiplicity", multiplicity)
        _set_field(self, "games", games)

    def __len__(self) -> int:
        return len(self.games)

    @property
    def teams(self) -> range:
        return range(1, self.team_count + 1)


class RoundStructure(_Record):
    """Derived per-``n`` quantities: g games per round over r rounds."""

    __slots__ = ("n", "g", "r")

    def __init__(self, n: int, g: int, r: int):
        _set_field(self, "n", n)
        _set_field(self, "g", g)
        _set_field(self, "r", r)


def expected_length(n: int, m: int = 1) -> int:
    """Number of games in an m-fold round robin on n teams."""
    return m * n * (n - 1) // 2


def round_structure(n: int) -> RoundStructure:
    """Games-per-round and round count for ``n`` teams.

    g = floor(n/2) and r = 2*ceil(n/2) - 1, so r*g = n(n-1)/2: rounds are
    consecutive blocks of g games and a single round robin fills r of them.
    The game at 1-based position i is in round (i - 1) // g + 1, counting
    past r when m > 1.  ``n`` must be an ``int`` (not ``bool`` or ``float``),
    else ``ValueError``.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need at least 2 teams, got {n}")
    g = n // 2
    r = 2 * ((n + 1) // 2) - 1
    return RoundStructure(n=n, g=g, r=r)


def make_schedule(n: int, m: int, games: Sequence[Sequence[int]]) -> Schedule:
    """Validate a sequence of ``(a, b)`` games and return the Schedule.

    The text and JSON parsers and the generators all meet this one check.
    ``n`` and ``m`` must be ints with n >= 2 and m >= 1, else ``ValueError``.
    :class:`ScheduleValidationError` reports a wrong game count (no index), or
    by 1-based ``index`` the first game that is not two ``int`` teams
    (``bool``, ``float`` and ``str`` are rejected), is a self-pair, has a team
    outside 1..n, or repeats a pair more than ``m`` times.  ``(a, b)`` and
    ``(b, a)`` count as the same pair; games are stored as tuples in the given
    orientation.
    """
    # type() rather than isinstance(): bool is a subclass of int, and True
    # is not a team number.
    if type(n) is not int or type(m) is not int:
        raise ValueError(f"n and m must be integers, got {type(n).__name__} "
                         f"and {type(m).__name__}")
    if n < 2:
        raise ValueError(f"need at least 2 teams, got {n}")
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    if not games:
        raise ScheduleValidationError("empty game sequence")

    want = expected_length(n, m)
    if len(games) != want:
        raise ScheduleValidationError(
            f"wrong number of games: expected {want} for n={n}, m={m}, got {len(games)}"
        )

    # Pair (a, b) with a < b is counted at a * (n + 1) + b.  Allocated only
    # now: the length check bounds it by the size of the input.
    stride = n + 1
    counts = [0] * (n * stride)
    normalized: list[tuple[int, int]] = []
    for idx, game in enumerate(games, start=1):
        try:
            a, b = game
        except (TypeError, ValueError):
            a = b = None
        if type(a) is not int or type(b) is not int:
            raise ScheduleValidationError(
                f"game {idx} must be a pair of integer teams, got {reprlib.repr(game)}",
                index=idx)
        if a == b:
            raise ScheduleValidationError(f"self-pair ({a}, {b}) at game {idx}", index=idx)
        if not (1 <= a <= n and 1 <= b <= n):
            team = b if 1 <= a <= n else a
            raise ScheduleValidationError(
                f"team {team} out of range 1..{n} at game {idx}", index=idx
            )
        key = a * stride + b if a < b else b * stride + a
        count = counts[key] + 1
        if count > m:
            missing = _first_missing_pair(n, counts, m)
            extra = f"; pair {missing} never occurs" if missing else ""
            raise ScheduleValidationError(
                f"pair {(min(a, b), max(a, b))} occurs more than {m} time(s) "
                f"at game {idx}{extra}", index=idx)
        counts[key] = count
        normalized.append((a, b))

    # Length and per-pair caps together force every pair to appear exactly m times.
    return Schedule(team_count=n, multiplicity=m, games=tuple(normalized))


def _first_missing_pair(n: int, counts: list[int], m: int) -> tuple[int, int] | None:
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            if counts[a * (n + 1) + b] < m:
                return (a, b)
    return None


def serialize_schedule(s: Schedule) -> str:
    """Text form: header line ``n <teams>``, ``m <mult>`` when m > 1, one game per line."""
    lines = [f"n {s.team_count}"]
    if s.multiplicity != 1:
        lines.append(f"m {s.multiplicity}")
    lines.extend(f"{a} {b}" for a, b in s.games)
    return "\n".join(lines) + "\n"


def parse_schedule(data: str | bytes) -> Schedule:
    """Parse the text form; inverse of :func:`serialize_schedule`.

    Comment lines start with ``#`` and blank lines are ignored.  Teams and
    header values are unsigned ASCII decimal integers.  Raises
    :class:`ParseError` with the 1-based line number on malformed input, and
    maps schedule-validation failures back to the offending game line.
    """
    data = _decode(data)

    n: int | None = None
    m = 1
    saw_m = False
    games: list[tuple[int, int]] = []
    game_lines: list[int] = []

    for lineno, line in enumerate(_lines(data), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "n":
            if n is not None:
                raise ParseError(f"duplicate 'n' header at line {lineno}", line=lineno)
            if games:
                raise ParseError(f"'n' header after games at line {lineno}", line=lineno)
            n = _parse_header_value(tokens, "n", lineno, minimum=2)
            continue
        if tokens[0] == "m":
            if n is None or saw_m or games:
                raise ParseError(f"misplaced 'm' header at line {lineno}", line=lineno)
            m = _parse_header_value(tokens, "m", lineno, minimum=1)
            saw_m = True
            continue
        if n is None:
            raise ParseError(
                f"expected header 'n <team_count>' before games at line {lineno}", line=lineno
            )
        if len(tokens) != 2:
            raise ParseError(
                f"expected two team numbers at line {lineno}, got {line.strip()!r}", line=lineno
            )
        a, b = tokens
        # int() alone would also read "1_0" as 10 and non-ASCII digits.
        if not (a.isdigit() and b.isdigit() and line.isascii()):
            raise ParseError(f"non-integer team at line {lineno}: {line.strip()!r}",
                             line=lineno)
        try:
            games.append((int(a), int(b)))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(f"team number too long at line {lineno}", line=lineno) from None
        game_lines.append(lineno)

    if n is None:
        raise ParseError("missing 'n <team_count>' header")
    try:
        return make_schedule(n, m, games)
    except ScheduleValidationError as exc:
        if exc.index is not None:
            raise ParseError(f"{exc} (line {game_lines[exc.index - 1]})",
                             line=game_lines[exc.index - 1]) from exc
        raise ParseError(str(exc)) from exc


def _parse_header_value(tokens: list[str], name: str, lineno: int, minimum: int) -> int:
    if len(tokens) != 2:
        raise ParseError(f"malformed '{name}' header at line {lineno}", line=lineno)
    value = tokens[1]
    try:
        number = int(value) if value.isdigit() and value.isascii() else -1
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        number = -1
    if number < minimum:
        raise ParseError(f"'{name}' must be a decimal integer of at least {minimum} "
                         f"at line {lineno}, got {value!r}", line=lineno)
    return number


def schedule_to_json(s: Schedule, indent: int | None = None) -> str:
    """Structured form: one document with fields n, m, and games."""
    import json  # only the structured format loads the json modules

    doc = {
        "n": s.team_count,
        "m": s.multiplicity,
        "games": s.games,
    }
    return json.dumps(doc, indent=indent) + "\n"


def _decode(data: str | bytes) -> str:
    """UTF-8 text of ``data``; undecodable bytes raise :class:`ParseError` with their line."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode, so their lines can be counted.
        line = len(_lines(data[:exc.start].decode("utf-8")))
        raise ParseError(f"invalid UTF-8 at line {line}: {exc.reason}", line=line) from None


def _lines(text: str) -> list[str]:
    """``text`` cut at "\\n", "\\r\\n" and a lone "\\r" only, as a text-mode file
    reads it; ``str.splitlines`` also cuts at form feed, "\\x85", "\\u2028" and
    other separators, which editors do not count as line breaks."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _load_json(data: str | bytes):
    """``json.loads`` with every decoding failure raised as :class:`ParseError`."""
    import json  # only the structured format loads the json modules

    text = _decode(data)
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer past sys.get_int_max_str_digits().
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        # The decoder recurses once per nesting level.
        raise ParseError("invalid JSON: nested too deeply") from None


def schedule_from_json(data: str | bytes) -> Schedule:
    """Parse the structured form; inverse of :func:`schedule_to_json`.

    Every type and range check on ``n``, ``m`` and the games is
    :func:`make_schedule`'s; its errors are raised as :class:`ParseError`.
    """
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise ParseError("structured schedule must be a JSON object")
    for field in ("n", "games"):
        if field not in doc:
            raise ParseError(f"structured schedule missing field {field!r}")
    if not isinstance(doc["games"], list):
        raise ParseError("field 'games' must be an array of [a, b] pairs")
    try:
        return make_schedule(doc["n"], doc.get("m", 1), doc["games"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_schedule(data: str | bytes) -> Schedule:
    """Parse either accepted format, sniffing JSON by a leading ``{``."""
    text = _decode(data)
    if text.lstrip().startswith("{"):
        return schedule_from_json(text)
    return parse_schedule(text)
