"""Retry policy: deterministic backoff, budget, timeout, outcome metrics."""

import gc
import io
import weakref

import pytest

from repro.errors import (
    ConfigError,
    FrameTimeoutError,
    KernelLaunchFault,
    RetryExhaustedError,
    TransferFault,
    ValidationError,
)
from repro.obs import RunContext
from repro.resilience import FaultPlan, RetryBudget, RetryPolicy, Timeout
from repro.resilience.policy import execute


def quiet_obs():
    return RunContext.create(log_level="error", log_stream=io.StringIO())


def outcome_counts(obs):
    family = obs.metrics.get("repro_retries_total")
    if family is None:
        return {}
    return {c.labels["outcome"]: c.value for c in family.children}


class Flaky:
    """Fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures, value="ok", exc=None):
        self.failures = failures
        self.value = value
        if exc is None:
            # mark the fault retryable, as the fault plan does at injection
            exc = TransferFault("boom")
            exc.transient = True
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return self.value


class TestBackoffSchedule:
    def test_deterministic_across_instances(self):
        a = RetryPolicy(max_attempts=6, seed=13)
        b = RetryPolicy(max_attempts=6, seed=13)
        assert a.schedule() == b.schedule()
        # element-by-element: backoff(k) is a pure function of (policy, k)
        for k in range(1, 6):
            assert a.backoff(k) == b.backoff(k)

    def test_seed_changes_schedule(self):
        a = RetryPolicy(max_attempts=6, seed=1)
        b = RetryPolicy(max_attempts=6, seed=2)
        assert a.schedule() != b.schedule()

    def test_no_jitter_is_pure_exponential(self):
        p = RetryPolicy(max_attempts=5, base_delay=0.001,
                        multiplier=2.0, max_delay=1.0, jitter=0.0)
        assert p.schedule() == [0.001, 0.002, 0.004, 0.008]

    def test_capped_at_max_delay_plus_jitter(self):
        p = RetryPolicy(max_attempts=10, base_delay=0.01,
                        multiplier=10.0, max_delay=0.05, jitter=0.1)
        for delay in p.schedule():
            assert delay <= 0.05 * 1.1 + 1e-12

    def test_schedule_length_is_retries_not_attempts(self):
        assert len(RetryPolicy(max_attempts=4).schedule()) == 3
        assert RetryPolicy(max_attempts=1).schedule() == []

    def test_jitter_is_nonnegative_addition(self):
        p = RetryPolicy(max_attempts=8, base_delay=0.001, jitter=0.5,
                        max_delay=1.0)
        base = RetryPolicy(max_attempts=8, base_delay=0.001, jitter=0.0,
                           max_delay=1.0)
        for with_j, without in zip(p.schedule(), base.schedule()):
            assert without <= with_j <= without * 1.5

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -0.1},
        {"multiplier": 0.5},
        {"base_delay": 0.2, "max_delay": 0.1},
        {"jitter": 1.5},
        {"jitter": -0.1},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_backoff_index_must_be_positive(self):
        with pytest.raises(ConfigError):
            RetryPolicy().backoff(0)


class TestTimeoutAndBudget:
    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_timeout_must_be_positive(self, seconds):
        with pytest.raises(ConfigError):
            Timeout(seconds)

    def test_budget_take_until_spent(self):
        budget = RetryBudget(2)
        assert budget.take() and budget.take()
        assert not budget.take()
        assert budget.remaining == 0

    def test_budget_rejects_negative(self):
        with pytest.raises(ConfigError):
            RetryBudget(-1)


class TestExecute:
    def test_success_first_try(self):
        result, attempts = execute(lambda: 42, RetryPolicy(), sleep=lambda s: None)
        assert (result, attempts) == (42, 1)

    def test_transient_retried_to_success(self):
        obs = quiet_obs()
        fn = Flaky(failures=2)
        result, attempts = execute(fn, RetryPolicy(max_attempts=5),
                                   obs=obs, sleep=lambda s: None)
        assert (result, attempts) == ("ok", 3)
        counts = outcome_counts(obs)
        assert counts["retried"] == 2
        assert counts["success"] == 1

    def test_permanent_raises_immediately(self):
        obs = quiet_obs()
        fn = Flaky(failures=10, exc=ValidationError("bad input"))
        with pytest.raises(ValidationError):
            execute(fn, RetryPolicy(max_attempts=5), obs=obs,
                    sleep=lambda s: None)
        assert fn.calls == 1
        assert outcome_counts(obs) == {"permanent": 1}

    def test_exhausted_raises_and_chains_cause(self):
        obs = quiet_obs()
        fn = Flaky(failures=10)
        with pytest.raises(RetryExhaustedError) as exc_info:
            execute(fn, RetryPolicy(max_attempts=3), obs=obs,
                    sleep=lambda s: None)
        assert fn.calls == 3
        assert isinstance(exc_info.value.__cause__, TransferFault)
        assert outcome_counts(obs)["exhausted"] == 1

    def test_budget_stops_retries(self):
        obs = quiet_obs()
        budget = RetryBudget(1)
        fn = Flaky(failures=10)
        with pytest.raises(RetryExhaustedError):
            execute(fn, RetryPolicy(max_attempts=5), budget=budget,
                    obs=obs, sleep=lambda s: None)
        # 1 token == 1 retry == 2 calls
        assert fn.calls == 2
        counts = outcome_counts(obs)
        assert counts["budget"] == 1
        assert "exhausted" not in counts

    def test_deadline_stops_retries(self):
        obs = quiet_obs()
        now = [0.0]
        fn = Flaky(failures=10)
        with pytest.raises(FrameTimeoutError):
            execute(fn, RetryPolicy(max_attempts=5, base_delay=10.0,
                                    max_delay=10.0, jitter=0.0),
                    timeout=Timeout(1.0), obs=obs,
                    sleep=lambda s: None, clock=lambda: now[0])
        assert fn.calls == 1
        assert outcome_counts(obs)["deadline"] == 1

    def test_sleeps_follow_the_schedule(self):
        policy = RetryPolicy(max_attempts=4, seed=3)
        slept = []
        fn = Flaky(failures=3)
        execute(fn, policy, sleep=slept.append)
        assert slept == policy.schedule()


class _Buffer:
    """Stands in for the device buffers a failed call's frames hold."""


class TestFailedCallsLeaveNoCycles:
    """A failure's traceback holds the frames of the failed call; nothing
    may tie it back to them, or their buffers live until a gc pass."""

    @pytest.mark.parametrize("kind", ["permanent", "transient"])
    def test_buffers_die_with_the_error(self, kind):
        plan = FaultPlan.parse(f"kernel:rate=1.0,kind={kind}")
        refs = []

        def call():
            buf = _Buffer()
            refs.append(weakref.ref(buf))
            plan.check("kernel", detail="launch")

        enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                execute(call, RetryPolicy(max_attempts=2),
                        sleep=lambda s: None)
            except (KernelLaunchFault, RetryExhaustedError):
                pass
            assert len(refs) == (1 if kind == "permanent" else 2)
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()
