"""Exponential backoff with deterministic jitter.

The paper's collection script ran for four months against an undocumented
endpoint and had to survive "instability or changes to the Jito interface".
The HTTP explorer client sleeps between its transport retries by this
policy.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.utils.rng import DeterministicRNG


class ExponentialBackoff:
    """Produces a capped, jittered exponential sequence of retry delays.

    Delay for attempt ``n`` (0-based) is ``base * multiplier**n``, capped at
    ``max_delay``, then multiplied by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]``. Jitter is sourced from a deterministic RNG
    so campaigns replay identically.
    """

    def __init__(
        self,
        base: float = 1.0,
        multiplier: float = 2.0,
        max_delay: float = 300.0,
        max_attempts: int = 8,
        jitter: float = 0.1,
        rng: DeterministicRNG | None = None,
    ) -> None:
        if base <= 0:
            raise ConfigError(f"backoff base must be positive, got {base}")
        if multiplier < 1.0:
            raise ConfigError(f"backoff multiplier must be >= 1, got {multiplier}")
        if max_delay < base:
            raise ConfigError("max_delay must be at least the base delay")
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        if not 0.0 <= jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {jitter}")
        self._base = base
        self._multiplier = multiplier
        self._max_delay = max_delay
        self._max_attempts = max_attempts
        self._jitter = jitter
        self._rng = rng or DeterministicRNG(0).child("backoff")
        self._attempt = 0

    @property
    def max_attempts(self) -> int:
        """Number of retries allowed before giving up."""
        return self._max_attempts

    @property
    def attempts_made(self) -> int:
        """How many delays have been handed out so far."""
        return self._attempt

    def exhausted(self) -> bool:
        """Whether the retry budget has been spent."""
        return self._attempt >= self._max_attempts

    def next_delay(self) -> float:
        """Return the next retry delay in seconds.

        Raises:
            ConfigError: if called after the retry budget is exhausted —
                callers are expected to check :meth:`exhausted` first.
        """
        if self.exhausted():
            raise ConfigError("backoff budget exhausted")
        raw = min(self._base * self._multiplier**self._attempt, self._max_delay)
        self._attempt += 1
        if self._jitter == 0.0:
            return raw
        factor = self._rng.uniform(1.0 - self._jitter, 1.0 + self._jitter)
        return raw * factor

    def reset(self) -> None:
        """Reset the attempt counter after a success."""
        self._attempt = 0
