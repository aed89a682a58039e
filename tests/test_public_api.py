"""The public API surface: everything advertised must import and work."""

import importlib
import pkgutil

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        # ``repro`` and every subpackage. Packages only: the
        # numpy-backed ``repro.disk.vectorized`` module is not imported.
        packages = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
            if info.ispkg
        ]
        for package in packages:
            module = importlib.import_module(package)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{package}.{name}"

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_docstring_quickstart_runs(self):
        # The example in the package docstring, verbatim in spirit.
        result = repro.run_scenario(
            repro.ScenarioConfig(
                stripe_size=4,
                user_rate_per_s=105,
                read_fraction=0.5,
                mode="fault-free",
                scale="tiny",
            )
        )
        assert result.response.count > 0

    def test_algorithms_are_exported(self):
        assert len(repro.ALGORITHMS) == 4
        assert repro.BASELINE in repro.ALGORITHMS

    def test_layout_and_design_round_trip(self):
        design = repro.paper_design(4)
        layout = repro.DeclusteredLayout(design)
        reports = repro.evaluate_layout(layout)
        assert sum(1 for r in reports if r.passed) >= 5
