import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rrsched import Schedule


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]


def random_schedule(rng: random.Random, n: int, m: int = 1) -> Schedule:
    """Uniform random ordering of the m-fold pair multiset, random orientations."""
    games = all_pairs(n) * m
    rng.shuffle(games)
    games = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in games]
    return Schedule(n, m, games)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
