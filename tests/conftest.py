import pytest

from sample_nets import mknet


@pytest.fixture
def net_a():
    # two-cell fixture in the strict (TIN-optimal) regime
    return mknet([[[0.6, 0.2], [1.0, 0.1]], [[0.3, 1.0]]])


@pytest.fixture
def net_b():
    # convex regime but not TIN-optimal (both strict branches fail in cell 1)
    return mknet([[[1.0, 0.5], [1.2, 0.4]], [[0.2, 1.0]]])


@pytest.fixture
def net_c():
    # strict regime with a nonempty not-more-noisy subset in cell 1
    return mknet([[[1.0, 0.5], [1.15, 0.2]], [[0.2, 1.2]]])


@pytest.fixture
def bc2():
    # single-cell two-user broadcast fixture
    return mknet([[[0.6], [1.0]]])
