"""Unit tests for the scheduler registry.

These pin the resolution rules (registry names, did-you-mean errors),
the registration guard rails, and that a scheduler's registry name is
the only name it has.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.api import ServingConfig
from repro.scheduling.registry import (
    SchedulerSpec,
    list_specs,
    register,
    registered_names,
    resolve,
    unregister,
)
from tests.conftest import BUILTIN_NAMES

THEORY_NAMES = ("srpt_oracle", "srpt_predicted", "fcfs_aging")


class TestResolution:
    def test_all_builtins_registered_in_order(self):
        names = registered_names()
        assert names[: len(BUILTIN_NAMES)] == list(BUILTIN_NAMES)
        for name in THEORY_NAMES:
            assert name in names

    def test_resolve_returns_the_named_spec(self):
        for name in BUILTIN_NAMES + THEORY_NAMES:
            assert resolve(name).name == name

    def test_registry_name_is_the_only_name(self):
        # The enum shim, its name normalizer and registry aliases are
        # gone: a scheduler is named by its registry string alone.
        for module in ("repro", "repro.types", "repro.scheduling"):
            loaded = importlib.import_module(module)
            assert not hasattr(loaded, "SchedulerKind"), module
            assert not hasattr(loaded, "scheduler_name"), module
        fields = [f.name for f in dataclasses.fields(SchedulerSpec)]
        assert fields == ["name", "build", "description", "memory_family"]

    def test_config_rejects_a_scheduler_that_is_not_a_name(self):
        with pytest.raises(TypeError, match="registry name"):
            ServingConfig(scheduler=None)

    def test_unknown_name_suggests_nearest(self):
        with pytest.raises(ValueError, match="did you mean 'sarathi_dynamic'"):
            resolve("sarathi_dyn")

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="registered: faster_transformer"):
            resolve("no_such_policy")

    def test_list_specs_matches_names(self):
        assert [spec.name for spec in list_specs()] == registered_names()


class TestRegistrationGuards:
    def _spec(self, name: str) -> SchedulerSpec:
        return SchedulerSpec(
            name=name,
            build=lambda ctx: (_ for _ in ()).throw(NotImplementedError),
            description="guard-rail test spec",
        )

    def test_duplicate_name_rejected_without_replace(self):
        register(self._spec("guard_test"))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register(self._spec("guard_test"))
            replacement = register(self._spec("guard_test"), replace=True)
            assert resolve("guard_test") is replacement
        finally:
            unregister("guard_test")
        assert "guard_test" not in registered_names()

    def test_builtin_names_are_protected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(self._spec("sarathi"))

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister("never_registered")

    def test_invalid_memory_family_rejected(self):
        with pytest.raises(ValueError, match="unknown memory family"):
            SchedulerSpec(
                name="bad_family",
                build=lambda ctx: None,
                memory_family="slab",
            )
