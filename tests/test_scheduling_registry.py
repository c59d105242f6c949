"""Unit tests for the scheduler registry and the enum compatibility shim.

``SchedulerKind`` is now a thin alias layer over the string-keyed
registry; these tests pin the resolution rules (names, aliases, enums,
did-you-mean errors), the registration guard rails, and — the load
bearing one — that building a scheduler through the enum shim and
through its registry name produces bit-identical simulations.
"""

from __future__ import annotations

import pytest

from repro.api import ServingConfig, build_vectorized_scheduler, simulate
from repro.scheduling.registry import (
    SchedulerSpec,
    list_specs,
    register,
    registered_names,
    resolve,
    scheduler_name,
    unregister,
)
from repro.types import SchedulerKind
from tests.conftest import make_request

BUILTIN_NAMES = (
    "faster_transformer",
    "orca",
    "vllm",
    "sarathi",
    "sarathi_dynamic",
    "chunked_prefills_only",
    "hybrid_batching_only",
)
THEORY_NAMES = ("srpt_oracle", "srpt_predicted", "fcfs_aging")


class TestResolution:
    def test_all_builtins_registered_in_order(self):
        names = registered_names()
        assert names[: len(BUILTIN_NAMES)] == list(BUILTIN_NAMES)
        for name in THEORY_NAMES:
            assert name in names

    def test_resolve_by_enum_and_by_string_agree(self):
        for kind in SchedulerKind:
            assert resolve(kind) is resolve(kind.value)

    def test_scheduler_name_normalizes(self):
        assert scheduler_name(SchedulerKind.SARATHI) == "sarathi"
        assert scheduler_name("srpt_oracle") == "srpt_oracle"

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
            register(self._spec("guard_test"), replace=True)
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


class TestEnumShimDifferential:
    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_enum_and_string_builds_are_bit_identical(self, tiny_deployment, kind):
        trace = [
            make_request(
                prompt_len=48 + 16 * (i % 5), output_len=6, arrival_time=0.15 * i
            )
            for i in range(12)
        ]
        by_enum, enum_metrics = simulate(
            tiny_deployment, ServingConfig(scheduler=kind, token_budget=128), trace
        )
        by_name, name_metrics = simulate(
            tiny_deployment,
            ServingConfig(scheduler=kind.value, token_budget=128),
            trace,
        )
        assert enum_metrics == name_metrics
        for a, b in zip(by_enum.requests, by_name.requests, strict=True):
            assert a.token_times == b.token_times
            assert a.finished_at == b.finished_at

    def test_enum_valued_string_normalizes_to_enum(self):
        # ServingConfig keeps `config.scheduler is SchedulerKind.X`
        # working for enum-valued strings (late-registered plug-in
        # names stay as strings until build time).
        config = ServingConfig(scheduler="sarathi")
        assert config.scheduler is SchedulerKind.SARATHI
        assert ServingConfig(scheduler="srpt_oracle").scheduler == "srpt_oracle"

    def test_same_class_from_both_paths(self, tiny_deployment):
        for kind in SchedulerKind:
            a = build_vectorized_scheduler(tiny_deployment, ServingConfig(scheduler=kind))
            b = build_vectorized_scheduler(
                tiny_deployment, ServingConfig(scheduler=kind.value)
            )
            assert type(a) is type(b)
