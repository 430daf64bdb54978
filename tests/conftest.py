import math

import pytest

from besselsum import identity, summation

PI = math.pi


def per_block_fsum(m0: float, vals) -> float:
    """The plain reference for the blocked sum: math.fsum within each
    4096-block, then across m0 and the block sums (m0 alone when there are
    no terms, as fsum([m0]) would turn -0.0 into 0.0)."""
    blocks = [vals[lo : lo + summation.BLOCK] for lo in range(0, len(vals), summation.BLOCK)]
    if not blocks:
        return m0
    return math.fsum([m0] + [math.fsum(block) for block in blocks])


def corpus_specs():
    """Valid specs spanning N = 1..4, both convergence classes, integer,
    half-integer and negative-integer orders.  Sum of scales <= 1.8*pi
    throughout so every entry also feeds the correction-term and
    band-limit checks."""
    return [
        identity.make_spec(0, [0.5, 1.5], [PI / 16, 1.0]),
        identity.make_spec(0, [0.5, 1.5], [5 * PI / 16, 3.0]),
        identity.make_spec(2, [0.0, 1.0, 2.0], [3 * PI / 16, 3 * PI / 16, 0.4]),
        identity.make_spec(2, [0.0, 1.0, 2.0], [3 * PI / 16, 3 * PI / 16, 2.0]),
        identity.make_spec(-1, [-1.5, -1.0, 0.5, 0.0], [PI / 16, PI / 16, PI / 16, 1.0]),
        identity.make_spec(0, [0.5, 0.5], [1.0, 1.0]),
        identity.make_spec(1, [1.5, 1.5], [1.0, 0.5]),
        identity.make_spec(0, [0.0], [1.0]),
        identity.make_spec(0, [0.5], [3.0]),
        identity.make_spec(0, [2.5, 2.5], [1.0, 0.8]),
    ]


@pytest.fixture(scope="session")
def corpus():
    return corpus_specs()


@pytest.fixture(scope="session")
def conditional_corpus():
    return [
        s
        for s in corpus_specs()
        if identity.check_validity(s).convergence_class
        is identity.ConvergenceClass.CONDITIONAL
    ]
