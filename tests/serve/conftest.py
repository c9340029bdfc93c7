"""Serve fixtures: one engine over the process's shared designer."""

from __future__ import annotations

import pytest

from repro.serve import AdaptEngine


@pytest.fixture(scope="session")
def engine(config) -> AdaptEngine:
    """The default engine (designs are pure, so sharing is safe)."""
    return AdaptEngine(config)
