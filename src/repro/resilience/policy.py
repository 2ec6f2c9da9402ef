"""Retry policies: bounded attempts, deterministic backoff, retry budget.

:class:`RetryPolicy` is a pure description — :meth:`RetryPolicy.backoff`
maps an attempt number to a delay with *deterministic* jitter (seeded
per-attempt, so the whole schedule is a pure function of the policy; tests
assert it element by element).  :func:`execute` runs a callable under a
policy: transient failures (per :func:`~repro.errors.is_transient`) are
retried with backoff until the attempts, the optional shared
:class:`RetryBudget`, or the optional :class:`Timeout` deadline run out;
permanent failures abort immediately.

Outcome accounting lands in ``repro_retries_total{outcome}``:

* ``success`` — a call succeeded after at least one failed attempt (the
  recovery the retries bought);
* ``retried`` — one failed attempt that was re-attempted;
* ``exhausted`` — attempts ran out (raises :class:`RetryExhaustedError`);
* ``permanent`` — a non-retryable failure (re-raised as-is);
* ``budget`` / ``deadline`` — the shared budget or the per-call deadline
  stopped further attempts.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass

from ..errors import (
    ConfigError,
    FrameTimeoutError,
    RetryExhaustedError,
    is_transient,
)

RETRIES_TOTAL = "repro_retries_total"
_RETRIES_HELP = "Retry-policy attempt outcomes"


def _count(obs, outcome: str) -> None:
    if obs is not None and obs.enabled:
        obs.metrics.counter(
            RETRIES_TOTAL, _RETRIES_HELP, ("outcome",),
        ).labels(outcome=outcome).inc()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` counts *calls*, not retries: ``max_attempts=1``
    disables retrying.  The delay before attempt ``k`` (1-based retry
    index) is ``base_delay * multiplier**(k-1)``, capped at ``max_delay``,
    then jittered by up to ``jitter`` of itself using a PRNG seeded from
    ``(seed, k)`` — same policy, same schedule, every run.
    """

    max_attempts: int = 3
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.1
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise ConfigError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.multiplier < 1.0:
            raise ConfigError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay < self.base_delay:
            raise ConfigError(
                f"max_delay {self.max_delay} < base_delay {self.base_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def backoff(self, retry: int) -> float:
        """Delay in seconds before retry number ``retry`` (1-based)."""
        if retry < 1:
            raise ConfigError(f"retry index must be >= 1, got {retry}")
        delay = min(self.base_delay * self.multiplier ** (retry - 1),
                    self.max_delay)
        if self.jitter and delay:
            frac = random.Random(f"{self.seed}:{retry}").random()
            delay += delay * self.jitter * frac
        return delay

    def schedule(self) -> list[float]:
        """The full deterministic backoff schedule of this policy."""
        return [self.backoff(k) for k in range(1, self.max_attempts)]


class RetryBudget:
    """A shared, thread-safe pool of retry tokens.

    Bounds the *total* retries across many calls (e.g. all frames of a
    batch): under a persistent fault storm, per-call retries alone would
    multiply the work by ``max_attempts``; a budget caps the amplification
    and lets the caller degrade instead.
    """

    def __init__(self, total: int) -> None:
        if total < 0:
            raise ConfigError(f"retry budget must be >= 0, got {total}")
        self.total = total
        self._remaining = total
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        with self._lock:
            return self._remaining

    def take(self) -> bool:
        """Consume one token; ``False`` when the budget is spent."""
        with self._lock:
            if self._remaining <= 0:
                return False
            self._remaining -= 1
            return True


@dataclass(frozen=True)
class Timeout:
    """Per-call execution deadline in (wall-clock) seconds.

    The retry loop stops scheduling attempts once the deadline passes and
    surfaces :class:`~repro.errors.FrameTimeoutError`; an attempt already
    in flight is not interrupted (cooperative model — the simulated
    runtime has no preemption, like a real GPU queue without device
    reset).
    """

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ConfigError(
                f"timeout must be > 0 seconds, got {self.seconds}"
            )


def execute(fn, policy: RetryPolicy | None = None, *,
            timeout: Timeout | None = None,
            budget: RetryBudget | None = None,
            retryable=is_transient,
            obs=None,
            sleep=time.sleep,
            clock=time.monotonic,
            label: str = ""):
    """Run ``fn()`` under a retry policy; returns ``(result, attempts)``.

    Raises :class:`RetryExhaustedError` (chaining the last failure) when
    attempts run out, :class:`~repro.errors.FrameTimeoutError` when the
    deadline does, and re-raises permanent failures untouched.
    """
    policy = policy or RetryPolicy()
    deadline = clock() + timeout.seconds if timeout is not None else None
    # Every exit raises inside the except clause: a failure kept in a local
    # past it would form a cycle with its traceback, which holds this
    # frame, and keep the failed call's buffers alive until a gc pass.
    for attempt in itertools.count(1):
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001  # repro: ignore[PL-BROAD-EXCEPT] classified below
            if not retryable(exc):
                _count(obs, "permanent")
                raise
            if attempt >= policy.max_attempts:
                _count(obs, "exhausted")
                raise RetryExhaustedError(
                    f"{label or 'call'}: {policy.max_attempts} attempt(s) "
                    "failed"
                ) from exc
            if budget is not None and not budget.take():
                _count(obs, "budget")
                raise RetryExhaustedError(
                    f"{label or 'call'}: retry budget exhausted after "
                    f"{attempt} attempt(s)"
                ) from exc
            delay = policy.backoff(attempt)
            if deadline is not None and clock() + delay > deadline:
                _count(obs, "deadline")
                raise FrameTimeoutError(
                    f"{label or 'call'}: retry deadline exceeded after "
                    f"{attempt} attempt(s)"
                ) from exc
            _count(obs, "retried")
            if obs is not None and obs.enabled:
                obs.log.warning(
                    "retry.attempt", label=label, attempt=attempt,
                    delay_ms=delay * 1e3, error=type(exc).__name__,
                )
            if delay:
                sleep(delay)
        else:
            if attempt > 1:
                _count(obs, "success")
                if obs is not None and obs.enabled:
                    obs.log.info(
                        "retry.recovered", label=label, attempts=attempt,
                    )
            return result, attempt
