import math
from itertools import product

import numpy as np
import pytest

from monoapprox.budget import BudgetExceededError
from monoapprox.functions import (
    boxbslash,
    level_set_function,
    random_delta,
    sample_U,
    snap_to_grid,
    step_function,
)
from monoapprox.haar_basis import MultiIndex, enumerate_indices, psi_1d
from monoapprox.metrics import (
    ErrorEstimate,
    bakhvalov_step_error,
    coefficient_tensor,
    exact_coefficient,
    fit_rate,
    l1_exact_dyadic,
    l1_mc,
    tail_mass,
)


def test_error_estimate_invariants():
    with pytest.raises(ValueError):
        ErrorEstimate(-0.1, 0.0, 10)
    with pytest.raises(ValueError):
        ErrorEstimate(0.1, 0.01, 10, exact=True)


def test_l1_exact_examples():
    same = boxbslash(2)
    assert l1_exact_dyadic(same, same, 2, 1).value == 0.0
    err = l1_exact_dyadic(boxbslash(1), lambda x: np.ones(len(x)), 1, 1)
    assert err.value == pytest.approx(1.0)
    assert err.exact and err.std_error == 0.0
    assert l1_exact_dyadic(boxbslash(2), lambda x: np.zeros(len(x)), 2, 1).value == pytest.approx(1.0)


def test_l1_exact_rejects_non_piecewise_input():
    with pytest.raises(ValueError):
        l1_exact_dyadic(lambda x: x[:, 0], boxbslash(1), 1, 2)


def test_l1_exact_budget():
    with pytest.raises(BudgetExceededError):
        l1_exact_dyadic(boxbslash(2), boxbslash(2), 2, 12, budget=1000)


def test_budget_env_var_override(monkeypatch):
    monkeypatch.setenv("MONOAPPROX_BUDGET_CELLS", "4")
    with pytest.raises(BudgetExceededError):
        l1_exact_dyadic(boxbslash(1), boxbslash(1), 1, 3)
    # An explicit argument still wins over the environment.
    assert l1_exact_dyadic(boxbslash(1), boxbslash(1), 1, 3, budget=100).value == 0.0


def test_l1_mc_examples():
    same = boxbslash(2)
    est = l1_mc(same, same, 2, 100, 0)
    assert est.value == 0.0 and est.std_error == 0.0
    flipped = l1_mc(boxbslash(2), lambda x: -boxbslash(2)(x), 2, 100, 0)
    assert flipped.value == pytest.approx(2.0)
    assert l1_mc(lambda x: np.ones(len(x)), lambda x: np.zeros(len(x)), 2, 100, 0).value == pytest.approx(1.0)
    with pytest.raises(ValueError):
        l1_mc(same, same, 2, 1, 0)


def test_exact_coefficient_examples():
    const = lambda x: np.full(len(x), 0.375)
    assert exact_coefficient(const, MultiIndex.of(0, 0), 2, 2) == pytest.approx(0.375)
    assert exact_coefficient(const, MultiIndex.of(1, 0), 2, 2) == pytest.approx(0.0, abs=1e-15)
    assert exact_coefficient(boxbslash(1), MultiIndex.of(1), 1, 2) == pytest.approx(1.0)


def test_exact_coefficient_rejects_level_at_or_above_resolution():
    with pytest.raises(ValueError):
        exact_coefficient(boxbslash(1), MultiIndex.of(4), 1, 2)


def test_coefficient_tensor_matches_pointwise_exact_coefficient():
    # The step truth is not symmetric, so a basis factor on the wrong axis
    # shows.  exact_coefficient equals, to the bit, the midpoint sum of
    # psi_d taken point by point (factors multiplied in coordinate order).
    mids = (np.arange(4) + 0.5) / 4
    for d, truth in ((2, snap_to_grid(boxbslash(2), 2, 2)), (3, step_function(3, 4, random_delta(3, 4, 2)))):
        tensor = coefficient_tensor(truth, d, 2)
        points = list(product(mids, repeat=d))
        values = truth(points)
        for index in enumerate_indices(d, d, 2):
            got = exact_coefficient(truth, index, d, 2)
            basis = [math.prod(psi_1d(alpha, x) for alpha, x in zip(index.alphas, p)) for p in points]
            assert got == math.fsum(b * v for b, v in zip(basis, values)) / len(points)
            assert tensor[index.alphas] == pytest.approx(got, abs=1e-12)


def test_tail_mass_examples():
    truth = snap_to_grid(boxbslash(2), 2, 2)
    assert tail_mass(truth, 2, 2, 2) == 0.0  # k = d leaves nothing out
    single_variable = step_function(1, 4, random_delta(1, 4, 2))
    lifted = lambda x: single_variable(x[:, :1])
    assert tail_mass(lifted, 3, 1, 2) == pytest.approx(0.0, abs=1e-15)
    assert tail_mass(truth, 2, 1, 2) <= math.sqrt(2 * 2) / 2


def test_single_variable_coefficients_of_monotone_functions_are_nonnegative():
    # The basis orientation (positive on the upper half-interval) makes every
    # single-active-coordinate coefficient of a nondecreasing function
    # nonnegative; the textbook orientation would flip these signs.
    families = [
        boxbslash(2),
        step_function(2, 2, random_delta(2, 2, 3)),
        level_set_function(3, 1, 3, sample_U(3, 1, 0.5, 9)),
    ]
    for truth in families:
        d = 2 if truth is not families[2] else 3
        snapped = snap_to_grid(truth, d, 2)
        for index in enumerate_indices(d, 1, 2):
            if index.active_count == 1:
                assert exact_coefficient(snapped, index, d, 2) >= -1e-12


def test_bakhvalov_examples():
    assert bakhvalov_step_error(1, 2, []) == pytest.approx(0.5)
    full = [(i, j) for i in range(2) for j in range(2)]
    assert bakhvalov_step_error(2, 2, full) == 0.0
    assert bakhvalov_step_error(2, 2, [(0, 1)]) == pytest.approx(0.25)
    # Duplicate cells count once.
    assert bakhvalov_step_error(2, 2, [(0, 1), (0, 1)]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        bakhvalov_step_error(2, 2, [(0, 5)])


def test_fit_rate_examples():
    ns = [10, 100, 1000, 10000]
    assert fit_rate([(n, 3.0 / n) for n in ns]) == pytest.approx(-1.0, abs=1e-9)
    assert fit_rate([(n, 2.0 / math.sqrt(n)) for n in ns]) == pytest.approx(-0.5, abs=1e-9)
    with pytest.raises(ValueError):
        fit_rate([(10, 1.0), (100, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(10, 1.0), (100, 0.0), (1000, 0.1)])
