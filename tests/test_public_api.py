"""Public-API surface snapshot.

The surface users import against — ``repro.__all__`` plus the exact
call signatures of the three facade functions — is pinned to a
checked-in fixture.  Adding, removing, or renaming anything public
shows up here as a one-line diff, so the change is always a reviewed
decision instead of an accident.

Regenerating after an intentional change (then review the diff!)::

    REGEN_PUBLIC_API=1 PYTHONPATH=src python -m pytest tests/test_public_api.py

See docs/API.md for the stability policy.
"""

import ast
import inspect
import json
import os
import pathlib

import pytest

import repro
import repro.api

ROOT = pathlib.Path(__file__).parent.parent
SNAPSHOT = pathlib.Path(__file__).parent / "fixtures" / "public_api.json"

FACADES = ("analyze", "replay", "serve")


def describe_signature(func) -> dict:
    signature = inspect.signature(func)
    return {
        "parameters": [
            {
                "name": p.name,
                "kind": p.kind.name,
                "default": "required"
                if p.default is inspect.Parameter.empty
                else repr(p.default),
            }
            for p in signature.parameters.values()
        ]
    }


def current_surface() -> dict:
    return {
        "all": sorted(repro.__all__),
        "signatures": {
            name: describe_signature(getattr(repro.api, name))
            for name in FACADES
        },
    }


def test_surface_matches_snapshot():
    text = json.dumps(current_surface(), indent=2, sort_keys=True) + "\n"
    if os.environ.get("REGEN_PUBLIC_API"):
        SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT.write_text(text)
        pytest.skip(f"regenerated {SNAPSHOT.name}")
    assert SNAPSHOT.exists(), (
        f"missing API snapshot {SNAPSHOT}; generate it with "
        "REGEN_PUBLIC_API=1 pytest tests/test_public_api.py"
    )
    assert json.loads(text) == json.loads(SNAPSHOT.read_text()), (
        "the public API surface drifted from its snapshot; if the "
        "change is intentional, regenerate with REGEN_PUBLIC_API=1 "
        "and review the diff"
    )


def test_all_names_exist_and_are_sorted():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ lists missing name {name!r}"
    assert list(repro.__all__) == sorted(repro.__all__)


@pytest.mark.parametrize("name", FACADES)
def test_facade_options_are_keyword_only(name):
    # Positional parameters are limited to the data arguments; every
    # option must be keyword-only so new options never shift callers.
    signature = inspect.signature(getattr(repro.api, name))
    for parameter in signature.parameters.values():
        if parameter.default is not inspect.Parameter.empty:
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"{name}({parameter.name}=...) must be keyword-only"
            )


def test_facades_are_reexported_identically():
    for name in FACADES:
        assert getattr(repro, name) is getattr(repro.api, name)


def test_version_has_one_source():
    # pyproject.toml reads the version from repro.__version__ and the
    # setup.py shim passes no metadata, so the two cannot disagree.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
    setup_calls = [
        node
        for node in ast.walk(ast.parse((ROOT / "setup.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    ]
    assert [(call.args, call.keywords) for call in setup_calls] == [([], [])]
