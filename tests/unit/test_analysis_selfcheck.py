"""Tier-1 self-check: the committed tree lints clean under every rule.

This is the standing static gate: any PR that introduces an unguarded
read of lock-protected state, an allocating constructor in the fused
execute path, a broken ``*_into`` override, or an impure cache-key
reference fails here — before the (sampled, dynamic) property suites
would ever catch it.  Deliberate exceptions are visible in the diff as
``# reprolint:`` directives (see docs/ARCHITECTURE.md, "Static
guarantees").
"""

from pathlib import Path

import repro
from repro.analysis import all_rules, run_lint

PACKAGE_DIR = Path(repro.__file__).resolve().parent

EXPECTED_RULES = {
    "lock-discipline",
    "hot-path-allocation",
    "backend-into-contract",
    "cache-key-purity",
}


def test_all_four_rule_families_are_registered():
    assert {rule.name for rule in all_rules()} >= EXPECTED_RULES


def test_source_tree_lints_clean():
    report = run_lint([PACKAGE_DIR])
    rendered = "\n".join(finding.format() for finding in report.findings)
    assert report.clean, f"reprolint findings on the committed tree:\n{rendered}"
    assert set(report.rules) >= EXPECTED_RULES
    # The whole package was actually scanned, not an empty directory.
    assert report.files > 50


def test_hot_modules_are_marked():
    """The allocation rule only bites while the hot markers stay present."""
    from repro.analysis.framework import ModuleInfo

    execute = PACKAGE_DIR / "engine" / "execute.py"
    module = ModuleInfo(
        execute, str(execute), execute.read_text(encoding="utf8")
    )
    assert module.hot_module

    idft = PACKAGE_DIR / "channels" / "idft_generator.py"
    module = ModuleInfo(idft, str(idft), idft.read_text(encoding="utf8"))
    assert module.hot_path_lines, "batched_doppler_blocks lost its hot-path marker"

    serving_core = PACKAGE_DIR / "service" / "core.py"
    module = ModuleInfo(
        serving_core, str(serving_core), serving_core.read_text(encoding="utf8")
    )
    assert module.hot_module, "the serving core lost its hot-module marker"


def test_lock_guarded_modules_produce_findings_when_unsuppressed():
    """The store's advisory lock-free read is a *suppressed* finding.

    Guards against the rule silently losing its teeth: stripping the
    suppression directives from ``engine/store.py`` must re-surface the
    documented advisory read in ``ArtifactStore.attached``.
    """
    from repro.analysis.framework import Project
    from repro.analysis.lock_discipline import LockDisciplineRule

    store = PACKAGE_DIR / "engine" / "store.py"
    source = store.read_text(encoding="utf8").replace("# reprolint:", "# stripped:")
    from repro.analysis.framework import ModuleInfo

    module = ModuleInfo(store, str(store), source)
    findings = list(LockDisciplineRule().run(Project(modules=[module])))
    assert any("_dir" in finding.message for finding in findings)


def _findings(rule, path, source):
    """``rule``'s unsuppressed findings on ``source`` read as ``path``."""
    from repro.analysis.framework import ModuleInfo, Project

    module = ModuleInfo(path, str(path), source)
    return [
        finding
        for finding in rule.run(Project(modules=[module]))
        if not module.is_suppressed(finding.rule, finding.line)
    ]


def test_execute_pool_and_blas_refcount_are_lock_guarded():
    """The execute pool and the BLAS refcount are written under their locks,
    so an unguarded access anywhere in their module is a finding."""
    from repro.analysis.lock_discipline import LockDisciplineRule

    probes = {
        PACKAGE_DIR / "engine" / "execute.py": ("_POOL",),
        PACKAGE_DIR / "engine" / "backends.py": ("_BLAS_HOLDERS", "_BLAS_CONTROLS"),
    }
    for path, names in probes.items():
        source = path.read_text(encoding="utf8")
        assert not _findings(LockDisciplineRule(), path, source)
        for name in names:
            probe = f"{source}\n\ndef _probe():\n    return {name}\n"
            findings = _findings(LockDisciplineRule(), path, probe)
            assert any(f"'{name}'" in finding.message for finding in findings), name


def test_chunk_kernels_are_hot_paths():
    """The pool tasks allocate nothing: their views come from the state."""
    from repro.analysis.hot_path import HotPathAllocationRule

    path = PACKAGE_DIR / "engine" / "execute.py"
    source = path.read_text(encoding="utf8")
    assert not _findings(HotPathAllocationRule(), path, source)
    for kernel in ("_snapshot_chunk", "_color_chunk", "_fresh_chunk"):
        header = source.index(f"def {kernel}(")
        body = source.index('"""\n', source.index('"""', header) + 3) + 4
        probe = source[:body] + "    np.empty(3)\n" + source[body:]
        findings = _findings(HotPathAllocationRule(), path, probe)
        assert any("np.empty" in finding.message for finding in findings), kernel
