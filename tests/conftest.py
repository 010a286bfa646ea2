"""Every test starts from the default budgets, whatever the shell sets."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    """Drop an inherited PATHCIRC_BUDGET; a test that needs a limit sets it."""
    monkeypatch.delenv("PATHCIRC_BUDGET", raising=False)
