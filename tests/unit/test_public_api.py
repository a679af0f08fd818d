"""Tests of the public package surface: exports, version, module entry point."""

import subprocess
import sys

import pytest

import repro


class TestPublicExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("name", repro.__all__)
    def test_every_advertised_name_is_importable(self, name):
        assert hasattr(repro, name), f"repro.__all__ lists {name} but it is missing"

    def test_key_classes_exported(self):
        for name in (
            "CovarianceSpec",
            "RayleighFadingGenerator",
            "RealTimeRayleighGenerator",
            "RicianFadingGenerator",
            "IDFTRayleighGenerator",
            "SumOfSinusoidsGenerator",
            "OFDMScenario",
            "MIMOArrayScenario",
        ):
            assert name in repro.__all__

    def test_exceptions_exported(self):
        assert issubclass(repro.CholeskyError, repro.ReproError)
        assert issubclass(repro.SpecificationError, repro.ReproError)

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.channels
        import repro.core
        import repro.experiments
        import repro.linalg
        import repro.random
        import repro.signal
        import repro.validation

        assert repro.core.__doc__ and repro.channels.__doc__

    def test_every_public_module_has_a_docstring(self):
        import importlib
        import pkgutil

        missing = []
        for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(module_info.name)
            if not module.__doc__:
                missing.append(module_info.name)
        assert not missing, f"modules without docstrings: {missing}"


class TestModuleEntryPoint:
    def test_python_dash_m_repro_list(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "eq22-spectral-covariance" in completed.stdout
        assert "fig4b-spatial-envelopes" in completed.stdout
