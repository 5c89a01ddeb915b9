"""Packaging guards: the runtime needs nothing outside the standard library, and
every exported name resolves."""

import subprocess
import sys
from pathlib import Path

import pytest

import supercat

ROOT = Path(__file__).resolve().parent.parent

# prints the modules that importing the package and its CLI adds to sys.modules
IMPORT_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
               "import supercat, supercat.cli; print(*sorted(set(sys.modules) - before))")


def test_no_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []


def test_import_loads_only_stdlib_modules():
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_CODE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = out.stdout.split()
    assert "supercat.cli" in loaded
    foreign = [m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names
               and m.split(".")[0] != "supercat"]
    assert foreign == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # together they cost over half of the import time; the records are named tuples.
    # Only the modules the import adds count: a site hook may load inspect first
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_CODE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = out.stdout.split()
    assert "supercat.cli" in loaded
    assert [m for m in ("dataclasses", "inspect") if m in loaded] == []


def test_import_without_site_loads_no_random():
    # no module of the package draws random numbers.  Under -I alone a site
    # hook may load random first, so -S keeps the count to the import's own
    out = subprocess.run([sys.executable, "-I", "-S", "-c", IMPORT_CODE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = out.stdout.split()
    assert "supercat.cli" in loaded
    assert [m for m in ("random", "dataclasses", "inspect") if m in loaded] == []


def test_exports_resolve_once():
    assert [name for name in supercat.__all__ if not hasattr(supercat, name)] == []
    assert len(set(supercat.__all__)) == len(supercat.__all__)
