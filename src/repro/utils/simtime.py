"""Deterministic simulated time.

The paper's methodology is structured around wall-clock cadences (two-minute
polls, per-day aggregation, 400 ms slots). To make a four-month campaign
reproducible in seconds, every component in this library reads time from a
:class:`SimClock` rather than the ambient system clock.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Iterable

from repro.constants import CAMPAIGN_START_ISO
from repro.errors import ConfigError

SECONDS_PER_DAY = 86_400


def iso_to_unix(iso: str) -> float:
    """Convert an ISO-8601 timestamp to unix seconds."""
    return datetime.fromisoformat(iso).timestamp()


def unix_to_iso(unix: float) -> str:
    """Convert unix seconds to an ISO-8601 UTC timestamp."""
    return datetime.fromtimestamp(unix, tz=timezone.utc).isoformat()


def unix_to_date(unix: float) -> str:
    """Convert unix seconds to a UTC calendar date string (YYYY-MM-DD)."""
    return datetime.fromtimestamp(unix, tz=timezone.utc).date().isoformat()


def count_dates(unix_times: Iterable[float]) -> dict[str, int]:
    """How many of ``unix_times`` fall on each UTC date, sorted by date.

    Equal to counting :func:`unix_to_date` of every time, for a fraction of
    its cost: a time at least one second clear of midnight is binned by
    its day number, and only the rest take the exact conversion, which
    rounds to the microsecond and so can put a time a hair before
    midnight on the next date.
    """
    by_day: dict[float, int] = {}
    counts: dict[str, int] = {}
    for unix in unix_times:
        day, offset = divmod(unix, SECONDS_PER_DAY)
        if 1.0 <= offset <= SECONDS_PER_DAY - 1.0:
            by_day[day] = by_day.get(day, 0) + 1
        else:
            date = unix_to_date(unix)
            counts[date] = counts.get(date, 0) + 1
    for day, count in by_day.items():
        date = unix_to_date(day * SECONDS_PER_DAY + SECONDS_PER_DAY / 2)
        counts[date] = counts.get(date, 0) + count
    return dict(sorted(counts.items()))


class SimClock:
    """A monotonically advancing simulated clock.

    The clock is anchored at an epoch (default: the paper's campaign start,
    2025-02-09T00:00:00Z) and only moves when :meth:`advance` or
    :meth:`advance_to` is called, making every run deterministic.
    """

    def __init__(self, epoch_iso: str = CAMPAIGN_START_ISO) -> None:
        self._epoch = iso_to_unix(epoch_iso)
        self._now = self._epoch

    @property
    def epoch(self) -> float:
        """Unix timestamp of the clock's anchor point."""
        return self._epoch

    def now(self) -> float:
        """Current simulated time as unix seconds."""
        return self._now

    def now_iso(self) -> str:
        """Current simulated time as an ISO-8601 UTC string."""
        return unix_to_iso(self._now)

    def elapsed(self) -> float:
        """Seconds elapsed since the epoch."""
        return self._now - self._epoch

    def day_index(self) -> int:
        """Zero-based day number since the epoch."""
        return int(self.elapsed() // SECONDS_PER_DAY)

    def date(self) -> str:
        """Current simulated calendar date (YYYY-MM-DD, UTC)."""
        return unix_to_date(self._now)

    def date_of_day(self, day_index: int) -> str:
        """Calendar date of day ``day_index`` of the simulation."""
        moment = datetime.fromtimestamp(self._epoch, tz=timezone.utc)
        return (moment + timedelta(days=day_index)).date().isoformat()

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time.

        Raises:
            ConfigError: if ``seconds`` is negative (time never rewinds).
        """
        if seconds < 0:
            raise ConfigError(f"cannot advance clock by negative {seconds}s")
        self._now += seconds
        return self._now

    def advance_to(self, unix: float) -> float:
        """Jump the clock forward to an absolute unix timestamp.

        Raises:
            ConfigError: if ``unix`` is in the simulated past.
        """
        if unix < self._now:
            raise ConfigError(
                f"cannot rewind clock from {self._now} to {unix}"
            )
        self._now = unix
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self.now_iso()})"
