"""The package resolves its exports and submodules on first use.

A fresh interpreter pins which library modules an import loads: the matroid
search stands on the polyhedral layer alone, without complexes, cohomology or
root data, and complexes load no root data.  The command-line tool loads
neither ``dataclasses`` nor ``inspect``, and digests its inputs without
``hashlib``, which loads OpenSSL.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import ssvlib

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code):
    """stdout of ``code`` run in a new interpreter on this checkout's sources."""
    res = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return res.stdout.split()


LOADED = "print(*sorted(m for m in sys.modules if m.startswith('ssvlib.')))"


def test_import_ssvlib_loads_no_submodule():
    assert _fresh(f"import ssvlib; {LOADED}") == []


def test_the_matroid_search_loads_the_polyhedral_layer_only():
    loaded = _fresh(f"import ssvlib.matroid; {LOADED}")
    layers = ("errors", "linalg", "lattice", "polyhedral", "degeneration", "matroid")
    assert loaded == sorted(f"ssvlib.{m}" for m in layers)


def test_complexes_load_no_root_data():
    # weyl_dimension is imported inside the two functions that use it
    assert "ssvlib.rootdata" not in _fresh(f"import ssvlib.complexes; {LOADED}")


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # records are slotted classes on errors.Record; dataclasses imports inspect
    code = "import ssvlib.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh(code) == []


def test_the_cli_loads_no_openssl_hashes():
    code = "import ssvlib.cli; print(*sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    assert _fresh(code) == []


def test_input_digests_are_sha256_of_the_file_bytes():
    import hashlib

    from ssvlib.cli import _digest

    paths = sorted((SRC.parent / "fixtures").iterdir())
    assert paths
    for path in paths:
        assert _digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    # without CPython's own modules the digest falls back to hashlib's
    blocked = "sys.modules.update(_sha256=None, _sha2=None); from ssvlib.cli import _digest"
    assert _fresh(f"{blocked}; print(_digest({str(paths[0])!r}))") == [_digest(paths[0])]


def test_submodules_resolve_after_a_plain_import():
    # attribute access imports the submodule, as an eager package did
    assert _fresh("import ssvlib; print(ssvlib.complexes.__name__)") == ["ssvlib.complexes"]


def test_every_export_is_the_object_of_its_defining_module():
    assert len(ssvlib.__all__) == len(set(ssvlib.__all__)) == 56
    for name in ssvlib.__all__:
        obj = getattr(ssvlib, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(ssvlib.__all__) <= set(dir(ssvlib))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ssvlib import *", namespace)
    assert all(namespace[name] is getattr(ssvlib, name) for name in ssvlib.__all__)


@pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(ssvlib, name)
    assert not hasattr(ssvlib, name)
