"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro import SeriesFeatureExtractor, TimeSeries, random_walk_collection
from repro.index.kindex import KIndex
from repro.index.scan import SequentialScan


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic random generator shared by the whole session."""
    return np.random.default_rng(20260614)


@pytest.fixture()
def short_gil_turns():
    """Interleave threads finely for one test.  The interpreter lock changes
    hands every 5 ms by default — long enough for a thread to serve a request
    whole, so threads sharing a gate or a counter may never meet at it.  A
    0.1 ms turn makes them meet, the way separate processes would."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture()
def wait_until():
    """``wait_until(condition, timeout_s=30.0)``: poll until it holds, or fail."""

    def wait(condition, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while not condition():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.005)

    return wait


@pytest.fixture(scope="session")
def walk_collection() -> list[TimeSeries]:
    """A medium collection of random-walk series (length 64)."""
    return random_walk_collection(120, 64, seed=99)


@pytest.fixture(scope="session")
def polar_extractor() -> SeriesFeatureExtractor:
    """The evaluation's default feature configuration."""
    return SeriesFeatureExtractor(num_coefficients=2, representation="polar")


@pytest.fixture()
def loaded_index(walk_collection, polar_extractor) -> KIndex:
    """A k-index loaded with the shared walk collection."""
    index = KIndex(polar_extractor)
    index.extend(walk_collection)
    return index


@pytest.fixture()
def loaded_scan(walk_collection, polar_extractor) -> SequentialScan:
    """A sequential scan loaded with the shared walk collection."""
    scan = SequentialScan(polar_extractor)
    scan.extend(walk_collection)
    return scan
