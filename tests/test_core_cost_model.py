"""Tests for the performance model (Eqs. 2–4)."""

import pytest

from repro.core import (
    CostModel,
    energy_cost,
    memory_cost_per_node,
    runtime_cost,
)
from repro.errors import PlatformError, ValidationError
from repro.platform import RbfRatios, platform_by_name


class TestClosedForms:
    def test_eq2_value(self):
        # (M·L + nnz)/P + min(M,L)·R
        assert runtime_cost(100, 50, 1000, 4, 2.0) == \
            pytest.approx((100 * 50 + 1000) / 4 + 50 * 2.0)

    def test_eq2_min_switches_at_m(self):
        small = runtime_cost(100, 50, 0, 2, 1.0)
        large = runtime_cost(100, 200, 0, 2, 1.0)
        assert small == pytest.approx(100 * 50 / 2 + 50)
        assert large == pytest.approx(100 * 200 / 2 + 100)

    def test_eq2_no_comm_single_processor(self):
        assert runtime_cost(100, 50, 1000, 1, 5.0) == \
            pytest.approx(100 * 50 + 1000)

    def test_eq3_same_form(self):
        assert energy_cost(10, 5, 7, 2, 3.0) == \
            pytest.approx(runtime_cost(10, 5, 7, 2, 3.0))

    def test_eq4_value(self):
        assert memory_cost_per_node(10, 5, 100, 200, 4) == \
            pytest.approx(50 + 300 / 4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            runtime_cost(0, 5, 1, 1, 1.0)
        with pytest.raises(ValidationError):
            runtime_cost(5, 0, 1, 1, 1.0)
        with pytest.raises(ValidationError):
            memory_cost_per_node(5, 5, -1, 10, 1)


class TestCostModel:
    @pytest.fixture()
    def model(self):
        return CostModel(platform_by_name("2x8"))

    def test_default_rbf_from_spec(self, model):
        assert model.rbf.time > 0
        assert model.p == 16

    def test_explicit_rbf(self):
        model = CostModel(platform_by_name("1x4"),
                          rbf=RbfRatios(time=10.0, energy=5.0))
        assert model.time(10, 5, 0) == pytest.approx(
            50 / 4 + 5 * 10.0)
        assert model.energy(10, 5, 0) == pytest.approx(
            50 / 4 + 5 * 5.0)

    def test_seconds_conversion(self, model):
        flops = model.time(100, 50, 1000)
        assert model.time_seconds(100, 50, 1000) == pytest.approx(
            flops / model.cluster.machine.flop_rate)

    def test_energy_joules_conversion(self, model):
        fe = model.energy(100, 50, 1000)
        assert model.energy_joules(100, 50, 1000) == pytest.approx(
            fe * model.cluster.machine.energy_per_flop)

    def test_objective_dispatch(self, model):
        assert model.objective("time", 10, 5, 7, 100) == \
            model.time(10, 5, 7)
        assert model.objective("memory", 10, 5, 7, 100) == \
            model.memory(10, 5, 7, 100)
        with pytest.raises(PlatformError):
            model.objective("latency", 10, 5, 7, 100)

    def test_memory_monotone_in_nnz(self, model):
        lo = model.memory(100, 50, 1000, 500)
        hi = model.memory(100, 50, 2000, 500)
        assert hi > lo
