"""The package's export list matches what the package exposes."""

from __future__ import annotations

import types

import pytest

import epochsim
from epochsim import optimizer


def test_every_exported_name_resolves():
    assert len(set(epochsim.__all__)) == len(epochsim.__all__)
    missing = [name for name in epochsim.__all__ if not hasattr(epochsim, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    # Underscored names, __version__ among them, and submodules are not
    # exports. The optimizer's names are served lazily: each is in
    # vars(epochsim) only once something stored it there (monkeypatch's undo
    # does), so they are counted whether or not an earlier test did.
    public = {name for name, value in vars(epochsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public | epochsim._OPTIMIZER_NAMES == set(epochsim.__all__)


def test_lazy_names_resolve_to_the_optimizers():
    assert set(dir(epochsim)) >= set(epochsim.__all__)
    for name in epochsim._OPTIMIZER_NAMES:
        assert getattr(epochsim, name) is getattr(optimizer, name)
    from epochsim import adamw_step
    assert adamw_step is optimizer.adamw_step
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        epochsim.no_such_name
