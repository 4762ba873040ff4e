"""Fixtures shared by more than one test module."""

from __future__ import annotations

import pytest

from epochsim import optimizer


@pytest.fixture
def draw_ahead_from_16384(monkeypatch):
    """Noisy tasks of 16,384 dimensions or more draw their noise ahead.

    The helper thread's tests run it at this dimension rather than at
    optimizer._DRAW_AHEAD_MIN_DIM, so they stay small and keep testing the
    thread wherever the threshold moves.
    """
    monkeypatch.setattr(optimizer, "_DRAW_AHEAD_MIN_DIM", 16_384)
