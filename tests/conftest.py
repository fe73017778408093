"""Shared test fixtures and helpers."""

from __future__ import annotations

import contextlib
from typing import Optional

import numpy as np
import pytest


def make_random_walks(count: int, length: int, seed: int = 7) -> np.ndarray:
    """Z-normalized random-walk series, the paper's synthetic data model."""
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((count, length))
    walks = np.cumsum(steps, axis=1)
    means = walks.mean(axis=1, keepdims=True)
    stds = walks.std(axis=1, keepdims=True)
    stds[stds == 0.0] = 1.0
    return ((walks - means) / stds).astype(np.float32)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_dataset() -> np.ndarray:
    """200 z-normalized random walks of length 64."""
    return make_random_walks(200, 64, seed=42)


@contextlib.contextmanager
def quick_shard_timings(
    stall_timeout: Optional[float] = None, join_timeout: Optional[float] = None
):
    """Shorten the shard engine's fixed timings while the block runs: the
    build stall watchdog (``shard_worker._BUILD_STALL_TIMEOUT``) and the
    seconds closing workers get before they are terminated (the
    ``shard_worker`` join timeouts).  All are read in the coordinator,
    so the patch holds under either start method."""
    from repro.core import shard_worker

    with pytest.MonkeyPatch.context() as patch:
        if stall_timeout is not None:
            patch.setattr(shard_worker, "_BUILD_STALL_TIMEOUT", stall_timeout)
        if join_timeout is not None:
            patch.setattr(shard_worker, "_BUILD_JOIN_TIMEOUT", join_timeout)
            patch.setattr(shard_worker, "_QUERY_JOIN_TIMEOUT", join_timeout)
        yield
