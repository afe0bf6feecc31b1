"""Shared brute-force helpers, deliberately independent of the library internals."""

from __future__ import annotations

import itertools

import pytest

from icmod import MonomialIdeal, enumerate_complete, normalize


def brute_colength(ideal: MonomialIdeal, pad: int = 2) -> int:
    """Count lattice points outside the ideal by raw membership tests."""
    bound_a = ideal.a0 + pad
    bound_b = ideal.br + pad
    return sum(
        1
        for u in range(bound_a)
        for v in range(bound_b)
        if not ideal.member((u, v))
    )


def brute_ideals(amax: int, bmax: int) -> list[MonomialIdeal]:
    """Every m-primary monomial ideal with a_0 <= amax and b_r <= bmax.

    An ideal is the data of its column heights h_0 >= h_1 >= ... >= h_{a0-1} >= 1
    with h_0 = b_r, plus the free column at a_0.
    """
    out = []
    for a0 in range(1, amax + 1):
        for heights in itertools.product(range(1, bmax + 1), repeat=a0):
            if any(heights[i] < heights[i + 1] for i in range(a0 - 1)):
                continue
            gens = [(a0, 0)]
            for u in range(a0 - 1, -1, -1):
                gens.append((u, heights[u]))
            out.append(normalize(gens))
    return out


@pytest.fixture(scope="session")
def small_complete():
    return list(enumerate_complete(4, 5))


@pytest.fixture(scope="session")
def full_enumeration():
    return list(enumerate_complete(6, 8))


@pytest.fixture(scope="session")
def enumeration_10_12():
    return list(enumerate_complete(10, 12))
