import numpy as np
import pytest

from duelbench import PreferenceMatrix, RateVector, builtin_dataset
from duelbench.constraints import pair_count


@pytest.fixture(scope="session")
def cyclic():
    return builtin_dataset("cyclic")


@pytest.fixture(scope="session")
def gap():
    return builtin_dataset("gap")


@pytest.fixture(scope="session")
def multisol():
    return builtin_dataset("multisol")


@pytest.fixture(scope="session")
def two_arm():
    return PreferenceMatrix([[0.5, 0.6], [0.4, 0.5]])


def random_matrix(rng: np.random.Generator, k: int, min_gap: float = 0.02) -> PreferenceMatrix:
    """Random strict-gap matrix: every pair has |mu - 1/2| >= min_gap."""
    vals = np.full((k, k), 0.5)
    for i in range(1, k):
        for j in range(i):
            g = rng.uniform(min_gap, 0.45)
            if rng.random() < 0.5:
                g = -g
            vals[i, j] = 0.5 + g
            vals[j, i] = 0.5 - g
    return PreferenceMatrix(vals)


def random_tied_winner_matrix(rng: np.random.Generator, k: int) -> PreferenceMatrix:
    """Random strict-gap matrix with at least two Copeland winners."""
    from duelbench.core import _copeland_sets

    while True:
        m = random_matrix(rng, k)
        _, _, losses, _ = _copeland_sets(m.values)
        low = min(losses)
        if sum(1 for li in losses if li == low) >= 2:
            return m


def random_rates(rng: np.random.Generator, k: int, scale: float = 60.0) -> RateVector:
    return RateVector(k, rng.uniform(0.0, scale, pair_count(k)))
