"""Core schedule model: games, round structure, validation, and I/O.

An asynchronous round-robin schedule is a total order on games: game i is the
i-th game played, and no two games overlap.  Teams are 1-based integers; a
schedule for ``n`` teams with multiplicity ``m`` contains every unordered pair
of distinct teams exactly ``m`` times.  Constructing a :class:`Schedule`
checks this, so every Schedule is valid.

A game is a plain ``(a, b)`` tuple of ints in its stored orientation, which
serialization keeps.  Validation counts ``(a, b)`` and ``(b, a)`` as the same
pair, but tuple and :class:`Schedule` equality are orientation-exact: two
schedules that differ only in the orientation of a game are not equal.
"""

from __future__ import annotations

import reprlib
from collections.abc import Sequence
from itertools import chain


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
    """A total order on the games of an m-fold round robin, valid by construction.

    The text and JSON parsers and the generators all meet this one check,
    and so does unpickling.  ``team_count`` and ``multiplicity`` are the
    counts ``n`` and ``m``, of at least 2 and 1 (see :func:`_check_count`).
    :class:`ScheduleValidationError` reports a wrong game count (no index), or
    by 1-based ``index`` the first game that is not two ``int`` teams
    (``bool``, ``float`` and ``str`` are rejected), is a self-pair, has a team
    outside 1..n, or repeats a pair more than ``m`` times.  ``(a, b)`` and
    ``(b, a)`` count as the same pair; games are stored as tuples in the given
    orientation, and a game that already is a plain ``tuple`` is stored as is.
    """

    __slots__ = ("team_count", "multiplicity", "games")

    def __init__(self, team_count: int, multiplicity: int, games: Sequence[Sequence[int]]):
        n, m = team_count, multiplicity
        _check_count("n", n, 2)
        _check_count("m", m, 1)
        if not games:
            raise ScheduleValidationError("empty game sequence")

        want = expected_length(n, m)
        if len(games) != want:
            raise ScheduleValidationError(
                f"wrong number of games: expected {want} for n={n}, m={m}, got {len(games)}")

        # The pair of teams low < high is counted at low * (n + 1) + high.
        # Allocated only now: the length check bounds it by the size of the input.
        stride = n + 1
        counts = [0] * (n * stride)
        normalized: list[tuple[int, int]] = []
        for game in games:
            try:
                a, b = game
            except (TypeError, ValueError):
                a = b = None
            # An error's index is len(normalized) + 1: no counter runs per game.
            if type(a) is not int or type(b) is not int:
                idx = len(normalized) + 1
                raise ScheduleValidationError(
                    f"game {idx} must be a pair of integer teams, got {reprlib.repr(game)}",
                    index=idx)
            if a < b:
                low, high = a, b
            elif b < a:
                low, high = b, a
            else:
                idx = len(normalized) + 1
                raise ScheduleValidationError(f"self-pair ({a}, {b}) at game {idx}", index=idx)
            if low < 1 or high > n:
                idx, team = len(normalized) + 1, b if 1 <= a <= n else a
                raise ScheduleValidationError(f"team {team} out of range 1..{n} at game {idx}",
                                              index=idx)
            key = low * stride + high
            count = counts[key] + 1
            if count > m:
                idx = len(normalized) + 1
                raise ScheduleValidationError(
                    f"pair {(low, high)} occurs more than {m} time(s) at game {idx}", index=idx)
            counts[key] = count
            # A tuple subclass (a namedtuple) is rebuilt, so games are plain tuples.
            normalized.append(game if type(game) is tuple else (a, b))

        # Length and per-pair caps together force every pair to appear exactly m times.
        _set_field(self, "team_count", n)
        _set_field(self, "multiplicity", m)
        _set_field(self, "games", tuple(normalized))

    def __len__(self) -> int:
        return len(self.games)

    @property
    def teams(self) -> range:
        return range(1, self.team_count + 1)


def _valid_schedule(n: int, m: int, games: tuple[tuple[int, int], ...]) -> Schedule:
    """A Schedule of plain-tuple games valid by construction; nothing is checked."""
    s = object.__new__(Schedule)
    _set_field(s, "team_count", n)
    _set_field(s, "multiplicity", m)
    _set_field(s, "games", games)
    return s


class RoundStructure(_Record):
    """Derived per-``n`` quantities: g games per round over r rounds."""

    __slots__ = ("n", "g", "r")

    def __init__(self, n: int, g: int, r: int):
        _set_field(self, "n", n)
        _set_field(self, "g", g)
        _set_field(self, "r", r)


def _check_count(name: str, value: int, minimum: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` of at least ``minimum``."""
    # type() rather than isinstance(): bool is a subclass of int, and True
    # is not a count.
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def expected_length(n: int, m: int = 1) -> int:
    """Number of games in an m-fold round robin on n teams."""
    return m * n * (n - 1) // 2


def round_structure(n: int) -> RoundStructure:
    """Games-per-round and round count for ``n`` teams.

    g = floor(n/2) and r = 2*ceil(n/2) - 1, so r*g = n(n-1)/2: rounds are
    consecutive blocks of g games and a single round robin fills r of them.
    The game at 1-based position i is in round (i - 1) // g + 1, counting
    past r when m > 1.  ``n`` is a count of at least 2 (see
    :func:`_check_count`).
    """
    _check_count("n", n, 2)
    g = n // 2
    r = 2 * ((n + 1) // 2) - 1
    return RoundStructure(n=n, g=g, r=r)


def make_schedule(n: int, m: int, games: Sequence[Sequence[int]]) -> Schedule:
    """``Schedule(n, m, games)``: validate ``(a, b)`` games and return the Schedule."""
    return Schedule(n, m, games)


def serialize_schedule(s: Schedule) -> str:
    """Text form: header line ``n <teams>``, ``m <mult>`` when m > 1, one game per line."""
    header = f"n {s.team_count}\n"
    if s.multiplicity != 1:
        header += f"m {s.multiplicity}\n"
    # One format over every team number builds no string per game.
    return header + ("%d %d\n" * len(s.games)) % tuple(chain.from_iterable(s.games))


def parse_schedule(data: str | bytes) -> Schedule:
    """Parse the text form; inverse of :func:`serialize_schedule`.

    Comment lines start with ``#`` and blank lines are ignored, anywhere.
    Teams and header values are unsigned ASCII decimal integers.  Raises
    :class:`ParseError` with the 1-based line number on malformed input, and
    maps schedule-validation failures back to the offending game line.
    """
    data = _decode(data)
    lines = _lines(data)

    n: int | None = None
    m = 1
    saw_m = False
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "n":
            if n is not None:
                raise ParseError(f"duplicate 'n' header at line {lineno}", line=lineno)
            n = _parse_header_value(tokens, "n", lineno, minimum=2)
        elif tokens[0] == "m":
            if n is None or saw_m:
                raise ParseError(f"misplaced 'm' header at line {lineno}", line=lineno)
            m = _parse_header_value(tokens, "m", lineno, minimum=1)
            saw_m = True
        elif n is None:
            raise ParseError(
                f"expected header 'n <team_count>' before games at line {lineno}", line=lineno
            )
        else:
            break  # the first game line
    else:
        lineno = len(lines) + 1  # no game line: the body is empty
    if n is None:
        raise ParseError("missing 'n <team_count>' header")
    body = lines[lineno - 1:]

    # The body in one pass, which looks each token up among the decimal names
    # of teams 1..n.  _game_rows reads any body this pass cannot, and one with
    # fewer lines than games: no header, however large, builds the table.
    games = None
    if expected_length(n, m) <= len(body):
        team = {str(t): t for t in range(1, n + 1)}
        rows = filter(None, map(str.split, body))
        try:
            if "#" in data:  # a comment test on every row costs plain bodies ~10%
                games = [(team[a], team[b]) for row in rows if row[0][0] != "#"
                         for a, b in (row,)]
            else:
                games = [(team[a], team[b]) for a, b in rows]
        except (KeyError, ValueError):  # a header, another token or token count
            pass
    if games is None:
        games = [game for _, game in _game_rows(body, lineno)]
    try:
        return Schedule(n, m, games)
    except ScheduleValidationError as exc:
        if exc.index is None:
            raise ParseError(str(exc)) from exc
        line = [line for line, _ in _game_rows(body, lineno)][exc.index - 1]
        raise ParseError(f"{exc} (line {line})", line=line) from exc


def _game_rows(body: list[str], first: int):
    """Yield ``(line number, game)`` for each game line of ``body``, whose
    first line is line ``first``; raise :class:`ParseError` at the first
    line that is neither a game, a comment nor blank."""
    for lineno, line in enumerate(body, start=first):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "n":
            raise ParseError(f"duplicate 'n' header at line {lineno}", line=lineno)
        if tokens[0] == "m":
            raise ParseError(f"misplaced 'm' header at line {lineno}", line=lineno)
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
            game = int(a), int(b)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(f"team number too long at line {lineno}", line=lineno) from None
        yield lineno, game


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
    # The document holds only the package's own tuples and ints: no cycle to look for.
    return json.dumps(doc, indent=indent, check_circular=False) + "\n"


def _decode(data: str | bytes) -> str:
    """UTF-8 text of ``data`` without one leading byte-order mark (U+FEFF);
    undecodable bytes raise :class:`ParseError` with their line."""
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The bytes before the bad one decode, so their lines can be counted.
            line = len(_lines(data[:exc.start].decode("utf-8")))
            raise ParseError(f"invalid UTF-8 at line {line}: {exc.reason}",
                             line=line) from None
    return data[1:] if data.startswith("\ufeff") else data


def _lines(text: str) -> list[str]:
    """``text`` cut at "\\n", "\\r\\n" and a lone "\\r" only, as a text-mode file
    reads it; ``str.splitlines`` also cuts at form feed, "\\x85", "\\u2028" and
    other separators, which editors do not count as line breaks."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def schedule_from_json(data: str | bytes) -> Schedule:
    """Parse the structured form; inverse of :func:`schedule_to_json`.

    Every type and range check on ``n``, ``m`` and the games is
    :class:`Schedule`'s; its errors are raised as :class:`ParseError`.
    """
    import json  # only the structured format loads the json modules

    text = _decode(data)  # outside the try: its ParseError is a ValueError
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer past sys.get_int_max_str_digits().
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        # The decoder recurses once per nesting level.
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("structured schedule must be a JSON object")
    for field in ("n", "games"):
        if field not in doc:
            raise ParseError(f"structured schedule missing field {field!r}")
    if not isinstance(doc["games"], list):
        raise ParseError("field 'games' must be an array of [a, b] pairs")
    try:
        return Schedule(doc["n"], doc.get("m", 1), doc["games"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_schedule(data: str | bytes) -> Schedule:
    """Parse either accepted format, sniffing JSON by a leading ``{`` or ``[``."""
    # Each parser decodes ``data`` itself, so one byte-order mark is dropped.
    if _decode(data).lstrip().startswith(("{", "[")):
        return schedule_from_json(data)
    return parse_schedule(data)
