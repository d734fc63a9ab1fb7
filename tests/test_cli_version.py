"""Tests for the shared ``--version`` plumbing across the CLIs."""

import ast
import importlib
from pathlib import Path

import pytest

from repro.common import version as version_mod
from repro.common.version import package_version


class TestPackageVersion:
    def test_reports_a_version_string(self):
        reported = package_version()
        assert reported
        assert reported[0].isdigit()

    def test_prefers_installed_metadata(self, monkeypatch):
        monkeypatch.setattr(
            version_mod.metadata, "version", lambda dist: "9.9.9"
        )
        assert package_version() == "9.9.9"

    def test_falls_back_to_source_tree(self, monkeypatch):
        def missing(dist):
            raise version_mod.metadata.PackageNotFoundError(dist)

        monkeypatch.setattr(version_mod.metadata, "version", missing)
        import repro

        assert package_version() == repro.__version__


SETUP_PY = Path(__file__).resolve().parent.parent / "setup.py"


def _console_scripts() -> dict[str, str]:
    """``setup.py``'s ``console_scripts``, read statically with ast."""
    tree = ast.parse(SETUP_PY.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "entry_points":
            entries = ast.literal_eval(node.value)["console_scripts"]
            return dict(entry.replace(" ", "").split("=", 1)
                        for entry in entries)
    raise AssertionError("setup.py declares no console_scripts")


def _cli_mains():
    targets = {
        **_console_scripts(),
        "service-client": "repro.service.client:main",
        "loadgen": "repro.service.loadgen:main",
    }
    mains = {}
    for name, target in targets.items():
        module, _, function = target.partition(":")
        mains[name] = getattr(importlib.import_module(module), function)
    return mains


@pytest.mark.parametrize("name", list(_cli_mains()))
def test_every_cli_answers_version(name, capsys):
    main = _cli_mains()[name]
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert package_version() in out
