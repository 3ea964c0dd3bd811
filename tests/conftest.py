"""Checks that hold for every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread running which was not there before
    it: the replication map forks, and a fork copies no other thread."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate()
            if thread not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
