"""Fixtures shared across test modules."""

import pytest

from testspaces.generators import binary_tree
from testspaces.l2_distortion import min_distortion_l2
from testspaces.metric_core import apsp


@pytest.fixture(scope="session")
def tree_l2_optimum():
    """tree_l2_optimum(n, tol) is min_distortion_l2(apsp(binary_tree(n)),
    tol=tol), solved once per (n, tol) in a session: T_4, T_5 and T_6 are
    each asked for by several tests.  Every test sees the same L2Result, and
    none can change it: it is frozen dataclasses all the way down, over
    tuples of floats and a read-only distance table."""
    solved = {}

    def optimum(n, tol=1e-4):
        if (n, tol) not in solved:
            solved[n, tol] = min_distortion_l2(apsp(binary_tree(n)), tol=tol)
        return solved[n, tol]

    return optimum
