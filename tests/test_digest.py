"""The trajectory deviation that ``tools/digest.py PARENT`` prints."""

import importlib.util
import os
import sys

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "digest.py")


@pytest.fixture(scope="module")
def deviation():
    # the tool puts this checkout's src and bench first on sys.path when loaded
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("digest", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module.deviation


def test_equal_arrays_give_zero(deviation):
    run = np.arange(12.0).reshape(4, 3) - 5.0
    assert deviation(run, run.copy()) == 0.0


def test_shape_mismatch_gives_inf(deviation):
    run = np.ones((4, 3))
    assert deviation(run[:3], run) == np.inf


def test_trip_messages_compare_by_text(deviation):
    trip = np.array("state magnitude exceeded 1e+12 at t=0.1776")
    assert deviation(trip, trip.copy()) == 0.0
    assert deviation(np.array("state magnitude exceeded 1e+12 at t=0.162"), trip) == np.inf
    assert deviation(np.ones((4, 3)), trip) == np.inf


def test_column_deviation_is_diff_over_scale(deviation):
    want = np.array([[0.0, 1.0, 0.0], [2.0, -8.0, 0.0], [4.0, 3.0, 0.0]])
    got = want.copy()
    got[1, 1] += 0.5  # column scale 8
    got[2, 0] -= 0.125  # column scale 4
    assert deviation(got, want) == 0.5 / 8.0  # the larger of 0.0625 and 0.03125; the zero column counts 0
