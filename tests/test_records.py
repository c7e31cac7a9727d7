"""The five record classes: construction, equality, hashing, repr, immutability
and pickling, as frozen dataclasses gave them."""

import copy
import pickle

import pytest

from rrsched import (
    ClaimReport,
    MetricsReport,
    Schedule,
    SearchConstraints,
    SearchOutcome,
)

GAMES = ((1, 2), (1, 3), (2, 3))
SCHEDULE = Schedule(3, 1, GAMES)

# (class, field names in order, field values, repr); the repr strings are
# those the dataclasses printed.
CASES = [
    (Schedule, ("team_count", "multiplicity", "games"), (3, 1, GAMES),
     "Schedule(team_count=3, multiplicity=1, games=((1, 2), (1, 3), (2, 3)))"),
    (MetricsReport,
     ("team_count", "multiplicity", "guaranteed_rest_time",
      "games_played_difference_index", "rest_difference_index", "rest_profiles",
      "always_longer_rest_teams"),
     (3, 1, 0, 1, 1, {1: (0,), 2: (1,), 3: (0,)}, frozenset({2})),
     "MetricsReport(team_count=3, multiplicity=1, guaranteed_rest_time=0, "
     "games_played_difference_index=1, rest_difference_index=1, "
     "rest_profiles={1: (0,), 2: (1,), 3: (0,)}, always_longer_rest_teams=frozenset({2}))"),
    (SearchConstraints, ("min_rest", "max_gpd", "max_rdi"), (1, None, 2),
     "SearchConstraints(min_rest=1, max_gpd=None, max_rdi=2)"),
    (SearchOutcome, ("mode", "nodes_explored", "found", "count", "schedules"),
     ("first", 3, SCHEDULE, None, ()),
     "SearchOutcome(mode='first', nodes_explored=3, found=Schedule(team_count=3, "
     "multiplicity=1, games=((1, 2), (1, 3), (2, 3))), count=None, schedules=())"),
    (ClaimReport, ("claim", "teams", "passed", "details", "nodes_explored", "witness"),
     ("c", None, False, "d", 7, SCHEDULE),
     "ClaimReport(claim='c', teams=None, passed=False, details='d', nodes_explored=7, "
     "witness=Schedule(team_count=3, multiplicity=1, games=((1, 2), (1, 3), (2, 3))))"),
]
IDS = [case[0].__name__ for case in CASES]


def _others(cls, values):
    """Field values of records of ``cls`` that differ from ``values``."""
    if cls is Schedule:
        # A Schedule is valid by construction, so each of these differs from
        # SCHEDULE in one field and as much else as validity needs.
        return [(2, 1, ((1, 2),)), (3, 2, GAMES * 2), (3, 1, GAMES[::-1])]
    return [(*values[:i], value + 1 if type(value) is int else 0 if value is None else None,
             *values[i + 1:]) for i, value in enumerate(values)]


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, names, values, text):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert by_position == by_keyword
        assert tuple(getattr(by_keyword, name) for name in names) == values

    def test_repr(self, cls, names, values, text):
        assert repr(cls(*values)) == text

    def test_equality(self, cls, names, values, text):
        record = cls(*values)
        assert record == cls(*values) and not record != cls(*values)
        assert record != values
        for other in _others(cls, values):
            assert record != cls(*other)

    def test_hash_is_the_hash_of_the_fields(self, cls, names, values, text):
        record = cls(*values)
        if cls is MetricsReport:  # the rest profiles are a dict
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == hash(cls(*values)) == hash(values)

    def test_fields_are_read_only(self, cls, names, values, text):
        record = cls(*values)
        for name in names:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 0
        assert tuple(getattr(record, name) for name in names) == values

    def test_init_again_changes_nothing(self, cls, names, values, text):
        # A record is built once, in __new__, as a tuple is.
        record = cls(*values)
        for other in _others(cls, values):
            record.__init__(*other)
            record.__init__(**dict(zip(names, other)))
        assert tuple(getattr(record, name) for name in names) == values

    def test_pickle_and_copy_round_trip(self, cls, names, values, text):
        record = cls(*values)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol))
            assert type(clone) is cls and clone == record
        assert copy.copy(record) == record == copy.deepcopy(record)


def test_different_classes_with_equal_fields_differ():
    class Bounds(SearchConstraints):
        __slots__ = ()

    assert Bounds(1, 2, 3) != SearchConstraints(1, 2, 3)
    assert Bounds(1, 2, 3) == Bounds(1, 2, 3)


def test_a_schedule_stays_found_as_a_dict_key_after_init_again():
    s = Schedule(3, 1, GAMES)
    table = {s: 1}
    s.__init__(2, 1, ((1, 2),))
    assert s in table and table[s] == 1
    assert s == Schedule(3, 1, GAMES)


def test_defaults():
    assert SearchConstraints() == SearchConstraints(None, None, None)
    assert SearchOutcome("count", 5) == SearchOutcome("count", 5, None, None, ())
    assert ClaimReport("c", 3, True, "d") == ClaimReport("c", 3, True, "d", None, None)


def test_search_constraints_unconstrained():
    assert SearchConstraints().unconstrained
    for name in ("min_rest", "max_gpd", "max_rdi"):
        assert not SearchConstraints(**{name: 0}).unconstrained


def test_schedule_length_and_teams():
    assert len(SCHEDULE) == 3
    assert SCHEDULE.teams == range(1, 4)
