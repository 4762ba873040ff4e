"""The package's export list matches what the package exposes."""

from __future__ import annotations

import types

import epochsim


def test_every_exported_name_resolves():
    assert len(set(epochsim.__all__)) == len(epochsim.__all__)
    missing = [name for name in epochsim.__all__ if not hasattr(epochsim, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    # Underscored names, __version__ among them, and submodules are not exports.
    public = {name for name, value in vars(epochsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(epochsim.__all__)
