"""Mutation fuzzing of schedule input: every rejection is a ParseError and exit 2."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsched import (
    ParseError,
    circle_schedule,
    duplicate_rounds,
    load_schedule,
    odd_optimal_schedule,
    schedule_to_json,
    serialize_schedule,
)
from rrsched.cli import main

_SCHEDULES = [odd_optimal_schedule(5), circle_schedule(4),
              duplicate_rounds(circle_schedule(3), 2)]
_SEEDS = ([serialize_schedule(s).encode() for s in _SCHEDULES]
          + [schedule_to_json(s).encode() for s in _SCHEDULES]
          + [schedule_to_json(_SCHEDULES[0], indent=2).encode(),
             b"# comment\n\nn 3\n 1  2 \n1 3\n2 3\n"])

# Fragments that reach the parsers' error paths: headers, JSON syntax and
# literals, signs, separators, non-ASCII digits, bytes that are not UTF-8,
# and a number longer than int() accepts by default.
_TOKENS = [b"n ", b"m ", b"n 3\n", b"m 2\n", b"#", b"\n", b"\r\n", b" ", b"\t", b"0", b"1",
           b"-1", b"9", b"1_0", b"3.0", b"1e400", b"true", b"null", b'"', b"[", b"]", b"{",
           b"}", b",", b":", b'"games"', b'"n"', b'"m"', "\u0663".encode(), b"\xff",
           b"\xc3", b"\x00", b"1" * 4400]


@st.composite
def mutated_inputs(draw):
    data = bytearray(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["truncate", "delete", "insert", "replace", "repeat"]))
        at = draw(st.integers(min_value=0, max_value=len(data)))
        width = draw(st.integers(min_value=1, max_value=8))
        if kind == "truncate":
            del data[at:]
        elif kind == "delete":
            del data[at:at + width]
        elif kind == "repeat":
            data[at:at] = data[at:at + width]
        else:
            piece = draw(st.sampled_from(_TOKENS) | st.binary(min_size=1, max_size=4))
            if kind == "replace":
                del data[at:at + len(piece)]
            data[at:at] = piece
    return bytes(data)


inputs = mutated_inputs() | st.binary(max_size=64)


@given(inputs)
@settings(max_examples=400, deadline=None)
def test_load_schedule_raises_only_parse_error(data):
    try:
        load_schedule(data)
    except ParseError:
        pass


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@given(inputs)
@settings(max_examples=150, deadline=None)
def test_evaluate_exits_0_or_2_without_traceback(target, data):
    target.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", str(target)])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
