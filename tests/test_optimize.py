import numpy as np
import pytest

from bandctl import (
    BandOne,
    ModelConfig,
    optimize_doshi,
    optimize_type_one,
    optimize_type_two,
    total_cost,
)
from bandctl.errors import NoFeasiblePoint
from bandctl.optimize import _project_one
from .conftest import make_ex1


def test_project_repairs_ordering():
    band = _project_one([3.0, 2.0, 1.0], 10.0, doshi=False)
    assert 0 <= band.y2 <= band.y3 < band.y1 < 10.0
    dosh = _project_one([-1.0, 12.0], 10.0, doshi=True)
    assert dosh.y2 == 0.0 and dosh.y3 == dosh.y2 and dosh.y1 < 10.0


def test_doshi_local_optimality(solve_cached, ex1):
    result = solve_cached("ex1", ex1)
    assert result.strategy_kind == "doshi"
    base = result.objective
    y2, y1 = result.band.y2, result.band.y1
    for dy2, dy1 in ((0.2, 0.0), (-0.2, 0.0), (0.0, 0.2), (0.0, -0.2)):
        p2 = min(max(y2 + dy2, 0.0), ex1.b - 0.01)
        p1 = min(max(y1 + dy1, p2 + 1e-6), ex1.b - 0.005)
        assert total_cost(ex1, BandOne(p2, p2, p1)).V0 >= base - 1e-9


def test_objective_reproducible_bitwise(solve_cached, ex1):
    result = solve_cached("ex1", ex1)
    band = result.band
    assert total_cost(ex1, band).V0 == result.objective


def test_type_one_collapses_on_example_one(ex1):
    doshi = optimize_doshi(ex1)
    one = optimize_type_one(ex1)
    assert one.objective <= doshi.objective + 1e-9
    assert abs(one.objective - doshi.objective) < 1e-6


def test_interior_gradient_small(ex3):
    # central differences of the objective at the type-one optimum
    res = optimize_type_one(ex3)
    y = np.array([res.band.y2, res.band.y3, res.band.y1])
    h = 1e-4

    def f(p):
        return total_cost(ex3, _project_one(p, ex3.b, doshi=False)).V0

    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad = (f(y + e) - f(y - e)) / (2 * h)
        assert abs(grad) < 1e-3, f"component {i}: {grad}"


def test_no_feasible_point():
    m = make_ex1()
    tiny = ModelConfig(**{**m.__dict__, "b": 1e-7})
    with pytest.raises(NoFeasiblePoint):
        optimize_doshi(tiny)


def test_type_two_y4_verified_and_invariant(ex3):
    res = optimize_type_two(ex3, optimize_type_one(ex3))
    assert res.verified, res.report.summary()
    assert res.band.y1 < res.band.y4 < ex3.b
    # the objective never depended on y4
    assert res.objective == pytest.approx(
        total_cost(ex3, res.band.lower()).V0, abs=1e-12
    )
