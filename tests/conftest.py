import numpy as np
import pytest


@pytest.fixture
def dense_difference():
    """A function of n that returns the (n-1) x n forward-difference matrix,
    stored densely: the reference ``DifferenceMap(n)`` is checked against."""
    return lambda n: np.diff(np.eye(n), axis=0)
