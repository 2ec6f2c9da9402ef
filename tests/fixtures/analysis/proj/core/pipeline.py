"""Fixture: a wall-clock read in a (fake) plan-capturing path (PL-TIME)."""

import time


def capture_started():
    return time.perf_counter()
