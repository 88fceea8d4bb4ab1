"""Every demo script still imports against the library and exposes ``main``.

Loading a demo runs only its imports and definitions (``main`` sits behind
the ``__main__`` guard), so a renamed or removed library name fails here in
milliseconds instead of the next time someone runs the script.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_loads_and_exposes_main(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
