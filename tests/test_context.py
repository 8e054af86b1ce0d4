"""The ScopedValue substrate and its three ambient-value wrappers."""

from __future__ import annotations

import pytest

from repro.context import ScopedValue
from repro.faults.context import current_fault_plan, use_fault_plan
from repro.faults.models import preset_plan
from repro.net.engine import default_engine, use_engine
from repro.obs.context import current_telemetry, use_telemetry
from repro.obs.instruments import NULL_TELEMETRY, Telemetry


class TestScopedValue:
    def test_default_is_lazy(self):
        calls = []
        scope = ScopedValue("lazy", default=lambda: calls.append(1) or 7)
        assert calls == []
        assert scope.current() == 7
        assert scope.current() == 7
        assert calls == [1]  # factory ran exactly once

    def test_using_nests_and_restores(self):
        scope = ScopedValue("nest", default=lambda: "base")
        with scope.using("outer") as outer:
            assert outer == "outer"
            with scope.using("inner"):
                assert scope.current() == "inner"
                assert scope.depth == 2
            assert scope.current() == "outer"
        assert scope.current() == "base"
        assert scope.depth == 0

    def test_unwinding_is_exception_safe(self):
        scope = ScopedValue("unwind", default=lambda: "base")
        with pytest.raises(RuntimeError):
            with scope.using("scoped"):
                raise RuntimeError("boom")
        assert scope.current() == "base"

    def test_set_default_outside_scopes_persists(self):
        scope = ScopedValue("default", default=lambda: "a")
        assert scope.set_default("b") == "a"
        assert scope.current() == "b"

    def test_set_default_inside_scope_dies_with_it(self):
        scope = ScopedValue("scoped-default", default=lambda: "a")
        with scope.using("b"):
            assert scope.set_default("c") == "b"
            assert scope.current() == "c"
        assert scope.current() == "a"

    def test_coerce_applies_to_every_entry(self):
        scope = ScopedValue(
            "coerced", default=lambda: "x", coerce=str.upper
        )
        assert scope.current() == "X"
        with scope.using("inner"):
            assert scope.current() == "INNER"
        scope.set_default("deflt")
        assert scope.current() == "DEFLT"

    def test_none_is_noop_yields_current(self):
        scope = ScopedValue(
            "noop", default=lambda: "base", none_is_noop=True
        )
        with scope.using(None) as value:
            assert value == "base"
            assert scope.depth == 0

    def test_none_scopes_normally_without_the_knob(self):
        scope = ScopedValue("shadow", default=lambda: "base")
        with scope.using("outer"):
            with scope.using(None):
                assert scope.current() is None
            assert scope.current() == "outer"


class TestWrappers:
    def test_engine_none_means_inherit(self):
        with use_engine("des"):
            with use_engine(None):
                assert default_engine() == "des"
            with use_engine("batch"):
                assert default_engine() == "batch"
            assert default_engine() == "des"

    def test_engine_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown engine"):
            with use_engine("warp-drive"):
                pass  # pragma: no cover

    def test_fault_plan_none_shadows_outer_plan(self):
        plan = preset_plan("crash")
        with use_fault_plan(plan):
            assert current_fault_plan() is plan
            with use_fault_plan(None):
                assert current_fault_plan() is None
            assert current_fault_plan() is plan
        assert current_fault_plan() is None

    def test_telemetry_none_scopes_the_null_registry(self):
        registry = Telemetry()
        assert current_telemetry() is NULL_TELEMETRY
        with use_telemetry(registry):
            assert current_telemetry() is registry
            with use_telemetry(None):
                assert current_telemetry() is NULL_TELEMETRY
            assert current_telemetry() is registry
        assert current_telemetry() is NULL_TELEMETRY
