"""Unit tests for :mod:`repro.retry` — deterministic backoff policy."""

import time

import pytest

from repro.retry import RetryPolicy, deterministic_jitter


class TestDeterministicJitter:
    def test_in_unit_interval(self):
        for attempt in range(1, 20):
            value = deterministic_jitter("shard-3", attempt)
            assert 0.0 <= value < 1.0

    def test_reproducible(self):
        assert deterministic_jitter("a", 1) == deterministic_jitter("a", 1)
        assert deterministic_jitter("a", 1, seed=7) == deterministic_jitter(
            "a", 1, seed=7
        )

    def test_decorrelated_across_keys_attempts_and_seeds(self):
        values = {
            deterministic_jitter("a", 1),
            deterministic_jitter("b", 1),
            deterministic_jitter("a", 2),
            deterministic_jitter("a", 1, seed=1),
        }
        assert len(values) == 4


class TestRetryPolicy:
    def test_delays_are_deterministic_and_grow(self):
        policy = RetryPolicy(attempts=5, backoff_seconds=0.1, jitter_fraction=0.0)
        delays = policy.delays("shard-0")
        assert delays == policy.delays("shard-0")
        assert len(delays) == 4
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(
            attempts=4, backoff_seconds=0.1, jitter_fraction=0.5,
            max_backoff_seconds=100.0,
        )
        for attempt in range(1, 4):
            base = 0.1 * 2 ** (attempt - 1)
            delay = policy.delay(attempt, key="k")
            assert base <= delay <= base * 1.5

    def test_max_backoff_caps_delay(self):
        policy = RetryPolicy(
            attempts=10, backoff_seconds=1.0, max_backoff_seconds=2.0
        )
        assert all(d <= 2.0 for d in policy.delays("k"))

    def test_different_keys_get_different_delays(self):
        policy = RetryPolicy(attempts=3, backoff_seconds=0.1)
        assert policy.delay(1, key="shard-0") != policy.delay(1, key="shard-1")

    def test_past_deadline(self):
        now = time.monotonic()
        assert not RetryPolicy().past_deadline(now - 1e6)
        policy = RetryPolicy(deadline=0.5)
        assert not policy.past_deadline(now)
        assert policy.past_deadline(now - 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(shard_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=-1.0)


class TestConfigBridge:
    def test_config_builds_matching_policy(self):
        from repro.core import HerculesConfig

        config = HerculesConfig(
            shard_retry_attempts=5,
            shard_retry_backoff=0.2,
            shard_retry_jitter=0.25,
            shard_timeout=1.5,
            query_deadline=10.0,
        )
        policy = config.retry_policy()
        assert policy.attempts == 5
        assert policy.backoff_seconds == 0.2
        assert policy.jitter_fraction == 0.25
        assert policy.shard_timeout == 1.5
        assert policy.deadline == 10.0

    def test_config_validates_resilience_fields(self):
        from repro.core import HerculesConfig
        from repro.errors import ConfigError

        for bad in (
            dict(max_worker_restarts=-1),
            dict(shard_retry_attempts=0),
            dict(shard_retry_jitter=2.0),
            dict(shard_timeout=0.0),
            dict(query_deadline=0.0),
            dict(build_stall_timeout=-1.0),
            dict(build_join_timeout=0.0),
            dict(query_join_timeout=0.0),
        ):
            with pytest.raises(ConfigError):
                HerculesConfig(**bad)


class TestFileReadJitter:
    def test_read_retry_delay_is_deterministic_and_positive(self):
        from repro.storage.files import _retry_delay

        d1 = _retry_delay("/tmp/a.bin", 1)
        assert d1 == _retry_delay("/tmp/a.bin", 1)
        assert d1 > 0.0
        assert _retry_delay("/tmp/a.bin", 2) > d1
        assert _retry_delay("/tmp/b.bin", 1) != d1
