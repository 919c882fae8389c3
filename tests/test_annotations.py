"""Every public annotation resolves at run time, as typing.get_type_hints reads it."""

from __future__ import annotations

import inspect
import typing

import pytest

import vrsp

PUBLIC = [getattr(vrsp, name) for name in vrsp.__all__]


def test_public_names_are_functions_and_classes():
    assert all(inspect.isfunction(obj) or inspect.isclass(obj) for obj in PUBLIC)


@pytest.mark.parametrize("obj", PUBLIC, ids=lambda obj: obj.__name__)
def test_type_hints_resolve(obj):
    typing.get_type_hints(obj)
    # A class's own __init__ carries the constructor's annotations.
    init = vars(obj).get("__init__") if inspect.isclass(obj) else None
    if init is not None:
        typing.get_type_hints(init)
