"""Retry policy: deterministic backoff, validated modes."""

import pytest

from repro.runs.retry import (
    ON_ERROR_MODES,
    RetryPolicy,
    require_on_error,
)


class TestRetryPolicy:
    def test_defaults_are_single_attempt(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=3).max_attempts == 4

    def test_delay_grows_geometrically(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=100.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_delay_is_capped(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0, backoff_max=5.0)
        assert policy.delay(4) == 5.0

    def test_delay_is_deterministic(self):
        # No jitter, by design: retries may never influence results, so
        # the only nondeterminism they could add is wall-clock — and the
        # schedule itself stays reproducible.
        policy = RetryPolicy(backoff_base=0.3, backoff_factor=3.0)
        assert [policy.delay(n) for n in (1, 2, 3)] == [
            policy.delay(n) for n in (1, 2, 3)
        ]

    def test_delay_rejects_zero_failures(self):
        with pytest.raises(ValueError, match="failed_attempts"):
            RetryPolicy().delay(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max": -1.0},
            {"timeout": 0.0},
            {"timeout": -5.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestOnErrorModes:
    def test_known_modes_pass_through(self):
        for mode in ON_ERROR_MODES:
            assert require_on_error(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="on_task_error"):
            require_on_error("explode")
