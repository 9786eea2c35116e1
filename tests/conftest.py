import json

import numpy as np
import pytest

from specgrad.core import FeatureMatrix, SymPsdMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_spd(d: int, rng: np.random.Generator, jitter: float = 0.5) -> SymPsdMatrix:
    a = rng.normal(size=(d, d))
    return SymPsdMatrix(a @ a.T + jitter * np.eye(d))


def random_features(d: int, n: int, rng: np.random.Generator) -> FeatureMatrix:
    return FeatureMatrix(rng.normal(size=(d, n)))


def same_bits(got, want) -> bool:
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse_json(text: str, lines: bool = False):
    """A JSON document, or with ``lines`` the list of JSON lines, parsed strictly.

    NaN, Infinity and -Infinity are Python extensions, not JSON: meeting one
    fails the test.
    """
    if lines:
        return [parse_json(line) for line in text.splitlines() if line.strip()]
    return json.loads(text, parse_constant=_reject_constant)
