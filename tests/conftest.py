"""Checks that hold for every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread running which was not there before
    it: every thread map joins its helpers before it returns."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate()
            if thread not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
