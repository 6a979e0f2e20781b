"""Fixtures every test module shares."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, forked or spawned."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
