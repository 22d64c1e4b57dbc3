"""Deadline-aware retry with exponential backoff and seeded jitter.

Layers a transient/permanent taxonomy onto the typed-error family of
:mod:`repro.core.types`:

* :class:`TransientError` — worth retrying (injected faults, I/O
  hiccups, worker wobble).  ``OSError``/``TimeoutError`` are treated
  as transient by default.
* :class:`PermanentError` — retrying cannot help (bad configuration,
  logic errors); re-raised immediately, as is
  :class:`~repro.core.types.ConfigurationError`.

:class:`RetryPolicy` is a frozen value object; its backoff schedule is
derived from a *seed*, so a policy replays the same jittered delays in
every process — the property the fault-injection suites rely on.
Sleeping is injectable and deadline-aware: a retry never sleeps past a
:class:`~repro.runtime.deadline.Deadline`, and once the budget cannot
cover the next backoff the last transient error is re-raised instead
of burning wall time on a doomed attempt.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..core.types import ConfigurationError, ReproError
from .deadline import Deadline

__all__ = [
    "TransientError",
    "PermanentError",
    "RetryPolicy",
    "DEFAULT_TRANSIENT_TYPES",
]

T = TypeVar("T")


class TransientError(ReproError):
    """A failure that may succeed on retry (I/O, injected faults)."""


class PermanentError(ReproError):
    """A failure no amount of retrying can fix."""


#: Exception types retried by default.  ``PermanentError`` and
#: ``ConfigurationError`` are never retried even if a caller lists
#: them here.
DEFAULT_TRANSIENT_TYPES: Tuple[Type[BaseException], ...] = (
    TransientError, OSError, TimeoutError)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base * multiplier**attempt``, jittered.

    ``jitter`` scales a seeded ``uniform(-1, 1)`` factor onto each
    delay; ``seed`` makes the schedule deterministic.  ``max_delay_s``
    caps individual sleeps.

    >>> RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.0).delays()
    (0.01, 0.02)
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    multiplier: float = 2.0
    max_delay_s: float = 0.25
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter!r}")

    def delays(self) -> Tuple[float, ...]:
        """The deterministic sleep schedule between attempts.

        Length ``max_attempts - 1`` (no sleep after the last attempt).
        """
        rng = random.Random(self.seed)
        out = []
        for attempt in range(self.max_attempts - 1):
            delay = self.base_delay_s * (self.multiplier ** attempt)
            if self.jitter:
                delay *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
            out.append(min(delay, self.max_delay_s))
        return tuple(out)

    def call(self, fn: Callable[[], T], *,
             deadline: Optional[Deadline] = None,
             transient: Tuple[Type[BaseException], ...] =
             DEFAULT_TRANSIENT_TYPES,
             sleep: Callable[[float], None] = time.sleep,
             on_retry: Optional[Callable[[int, BaseException], None]] = None,
             ) -> T:
        """Run *fn* under this policy.

        Retries only exceptions matching *transient* (minus the
        never-retried :class:`PermanentError` /
        :class:`~repro.core.types.ConfigurationError`).  The last
        transient error is re-raised once attempts — or the deadline —
        are exhausted.  *on_retry* observes ``(attempt_index, error)``
        before each sleep.  The jitter schedule is built only once an
        attempt has failed, so a first-try success pays nothing for it.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if deadline is not None and attempt > 0 and deadline.expired:
                break  # out of budget: re-raise the last transient error
            try:
                return fn()
            except (PermanentError, ConfigurationError):
                raise
            except transient as error:
                last = error
                if attempt == self.max_attempts - 1:
                    break
                delay = self.delays()[attempt]
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0.0:
                        break
                    delay = min(delay, remaining)
                if on_retry is not None:
                    on_retry(attempt, error)
                if delay > 0.0:
                    sleep(delay)
        assert last is not None
        raise last
