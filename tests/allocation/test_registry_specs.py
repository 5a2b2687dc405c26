"""Registry spec strings: parsing, coercion, error paths, CLI exit codes."""

import pytest

from repro.allocation import (
    ALLOCATOR_FACTORIES,
    ALLOCATOR_REGISTRY,
    PAPER_ALLOCATORS,
    Allocator,
    AllocatorParam,
    ContiguousAllocator,
    SimulatedAnnealingAllocator,
    allocator_catalogue,
    allocator_names,
    get_allocator,
    parse_allocator_spec,
    register_allocator,
)
from repro.cli import main


class TestParseSpec:
    def test_bare_name(self):
        assert parse_allocator_spec("greedy") == ("greedy", {})

    def test_single_param(self):
        assert parse_allocator_spec("sa:iters=500") == ("sa", {"iters": "500"})

    def test_multiple_params(self):
        name, params = parse_allocator_spec("sa:iters=10,seed=3,alpha=0.9")
        assert name == "sa"
        assert params == {"iters": "10", "seed": "3", "alpha": "0.9"}

    def test_whitespace_tolerated(self):
        assert parse_allocator_spec(" sa : iters = 5 ") == ("sa", {"iters": "5"})

    @pytest.mark.parametrize(
        "bad",
        ["", ":iters=5", "sa:", "sa:iters", "sa:iters=", "sa:=5", "sa:iters=1,iters=2"],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_allocator_spec(bad)


class TestGetAllocator:
    def test_bare_name_builds_defaults(self):
        sa = get_allocator("sa")
        assert isinstance(sa, SimulatedAnnealingAllocator)
        assert sa.iters == 120

    def test_params_are_coerced_to_declared_kinds(self):
        sa = get_allocator("sa:iters=7,alpha=0.5")
        assert sa.iters == 7 and isinstance(sa.iters, int)
        assert sa.alpha == 0.5
        mc = get_allocator("mc:span_weight=2")
        assert isinstance(mc, ContiguousAllocator)
        assert mc.span_weight == 2.0

    def test_instance_passthrough(self):
        inst = SimulatedAnnealingAllocator(iters=1)
        assert get_allocator(inst) is inst

    def test_unknown_name_is_keyerror_listing_known(self):
        with pytest.raises(KeyError, match="unknown allocator 'nope'"):
            get_allocator("nope")

    def test_unknown_param_is_valueerror_listing_tunables(self):
        with pytest.raises(ValueError, match="no parameter 'wat'.*iters"):
            get_allocator("sa:wat=1")

    def test_param_on_paramless_allocator(self):
        with pytest.raises(ValueError, match="<none>"):
            get_allocator("greedy:x=1")

    def test_bad_value_is_valueerror_naming_kind(self):
        with pytest.raises(ValueError, match="expects int, got 'abc'"):
            get_allocator("sa:iters=abc")


class TestRegistryShape:
    def test_registry_and_factories_agree(self):
        assert set(ALLOCATOR_REGISTRY) == set(ALLOCATOR_FACTORIES)
        for name, info in ALLOCATOR_REGISTRY.items():
            assert info.name == name
            assert info.factory is ALLOCATOR_FACTORIES[name]

    def test_every_entry_builds_a_working_allocator(self):
        for name in allocator_names():
            assert isinstance(get_allocator(name), Allocator)

    def test_paper_allocators_lead_the_catalogue(self):
        names = [info.name for info in allocator_catalogue()]
        assert tuple(names[: len(PAPER_ALLOCATORS)]) == PAPER_ALLOCATORS
        assert names[len(PAPER_ALLOCATORS):] == sorted(names[len(PAPER_ALLOCATORS):])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_allocator(ALLOCATOR_REGISTRY["greedy"])

    def test_param_kind_validated(self):
        with pytest.raises(ValueError, match="'int' or 'float'"):
            AllocatorParam("x", "str", 0, "bad kind")

    def test_every_declared_default_matches_the_factory(self):
        """The catalogue's documented defaults are the constructors'."""
        import inspect

        for info in ALLOCATOR_REGISTRY.values():
            if not info.params:
                continue
            sig = inspect.signature(info.factory)
            for p in info.params:
                assert sig.parameters[p.name].default == p.default, (
                    f"{info.name}.{p.name} documents {p.default!r} but the "
                    f"factory defaults to {sig.parameters[p.name].default!r}"
                )


class TestCLIExitCodes:
    """Bad specs exit 2 (usage error) on every CLI surface."""

    def test_simulate_unknown_allocator(self, capsys):
        # resolved before the fan-out, so a pool never sees the spec
        for extra in ([], ["--workers", "2"]):
            argv = ["simulate", "--jobs", "5", "--allocator", "nope"] + extra
            assert main(argv) == 2
            assert "unknown allocator" in capsys.readouterr().err

    def test_simulate_unknown_param(self, capsys):
        assert main(["simulate", "--jobs", "5", "--allocator", "sa:wat=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_simulate_malformed_param(self, capsys):
        assert main(["simulate", "--jobs", "5", "--allocator", "sa:iters=abc"]) == 2
        assert "expects int" in capsys.readouterr().err

    def test_tournament_unknown_allocator(self, capsys):
        assert main(["tournament", "--allocators", "nope", "--jobs", "5"]) == 2
        assert "unknown allocator" in capsys.readouterr().err

    def test_tournament_unknown_param(self, capsys):
        assert main(["tournament", "--allocators", "sa:wat=1", "--jobs", "5"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_parameterized_spec_accepted_end_to_end(self, capsys):
        assert main(["simulate", "--jobs", "10", "--allocator", "sa:iters=5"]) == 0
