"""scipy is optional: the engine, the CLI batch mode and the shard worker run without it.

The declared dependency list is ``numpy`` alone; scipy is needed only by
the ``nakagami`` fading model, the ``scipy`` linalg backend and the
validation / closed-form helpers, each of which imports it on first use.
These tests run a fresh interpreter whose ``sys.meta_path`` refuses every
``scipy*`` import, so a stray module-level ``import scipy`` anywhere on the
engine path fails them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

_PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])

_BLOCKER = textwrap.dedent(
    """
    import sys

    class _RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError("blocked scipy")
            return None

    sys.meta_path.insert(0, _RefuseScipy())
    """
)


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_PACKAGE_ROOT)
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
    )


def test_engine_cli_and_worker_run_without_scipy():
    script = _BLOCKER + textwrap.dedent(
        """
        import numpy as np

        import repro
        import repro.shard.worker
        from repro.api import Simulator
        from repro.cli import main
        from repro.engine import DopplerSpec, FadingSpec, SimulationPlan
        from repro.exceptions import SpecificationError

        matrix = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)
        snapshot = SimulationPlan()
        snapshot.add(matrix, seed=1, label="rayleigh")
        doppler = SimulationPlan()
        doppler.add(matrix, seed=2, doppler=DopplerSpec(normalized_doppler=0.05, n_points=64))
        for plan in (snapshot, doppler):
            result = Simulator().run(plan, 96)
            assert result.blocks[0].samples.shape == (2, 96)
            assert np.all(np.isfinite(result.blocks[0].samples))

        assert main(["batch", "--batch-sizes", "1,4", "--samples", "16", "--repeats", "1"]) == 0

        nakagami = SimulationPlan()
        try:
            nakagami.add(matrix, seed=3, fading=FadingSpec(model="nakagami", shape=2.5))
            Simulator().run(nakagami, 16)
        except SpecificationError as exc:
            assert "requires scipy" in str(exc), exc
        else:
            raise AssertionError("nakagami ran without scipy")
        assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
        print("scipy-free: OK")
        """
    )
    completed = _run(script)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "scipy-free: OK" in completed.stdout


def test_worker_import_loads_no_scipy():
    completed = _run(
        "import sys\n"
        "import repro.shard.worker\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
