"""Simulated clock tests."""

import pytest

from repro.constants import CAMPAIGN_START_ISO
from repro.errors import ConfigError
from repro.utils.simtime import (
    SECONDS_PER_DAY,
    SimClock,
    count_dates,
    iso_to_unix,
    unix_to_date,
    unix_to_iso,
)


class TestConversions:
    def test_iso_round_trip(self):
        unix = iso_to_unix("2025-02-09T00:00:00+00:00")
        assert unix_to_iso(unix) == "2025-02-09T00:00:00+00:00"

    def test_unix_to_date(self):
        unix = iso_to_unix("2025-02-09T13:45:00+00:00")
        assert unix_to_date(unix) == "2025-02-09"


class TestCountDates:
    MIDNIGHT = iso_to_unix("2025-02-09T00:00:00+00:00")

    def recount(self, times):
        counts = {}
        for unix in times:
            date = unix_to_date(unix)
            counts[date] = counts.get(date, 0) + 1
        return dict(sorted(counts.items()))

    def test_equals_unix_to_date_around_midnight(self):
        # 1 µs before midnight is the previous date; 0.4 µs before
        # rounds (to the microsecond) onto midnight itself.
        times = [
            self.MIDNIGHT + offset
            for offset in (0.0, -1e-6, -4e-7, -6e-7, 1e-6, -1.0, 1.0,
                           -0.999_999, 0.5, -86_400.0, 86_399.999_999)
        ]
        assert count_dates(times) == self.recount(times)
        assert count_dates([self.MIDNIGHT - 1e-6]) == {"2025-02-08": 1}
        assert count_dates([self.MIDNIGHT - 4e-7]) == {"2025-02-09": 1}

    def test_equals_unix_to_date_over_many_days(self):
        times = [
            self.MIDNIGHT + step * 1_234.567_89 for step in range(2_000)
        ]
        counts = count_dates(times)
        assert counts == self.recount(times)
        assert list(counts) == sorted(counts)

    def test_integer_seconds_and_empty_input(self):
        assert count_dates([]) == {}
        assert count_dates([int(self.MIDNIGHT), int(self.MIDNIGHT) - 1]) == {
            "2025-02-08": 1,
            "2025-02-09": 1,
        }


class TestSimClock:
    def test_starts_at_campaign_epoch(self):
        clock = SimClock()
        assert clock.now() == iso_to_unix(CAMPAIGN_START_ISO)
        assert clock.elapsed() == 0.0

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(120.0)
        assert clock.elapsed() == 120.0

    def test_advance_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ConfigError):
            clock.advance(-1.0)

    def test_advance_to_absolute(self):
        clock = SimClock()
        target = clock.epoch + 3600
        clock.advance_to(target)
        assert clock.now() == target

    def test_advance_to_past_rejected(self):
        clock = SimClock()
        clock.advance(100)
        with pytest.raises(ConfigError):
            clock.advance_to(clock.epoch + 50)

    def test_day_index(self):
        clock = SimClock()
        assert clock.day_index() == 0
        clock.advance(SECONDS_PER_DAY * 2.5)
        assert clock.day_index() == 2

    def test_date_of_day(self):
        clock = SimClock()
        assert clock.date_of_day(0) == "2025-02-09"
        assert clock.date_of_day(1) == "2025-02-10"
        assert clock.date_of_day(28) == "2025-03-09"

    def test_date_tracks_advance(self):
        clock = SimClock()
        clock.advance(SECONDS_PER_DAY)
        assert clock.date() == "2025-02-10"

    def test_custom_epoch(self):
        clock = SimClock("2024-01-01T00:00:00+00:00")
        assert clock.date() == "2024-01-01"

    def test_campaign_span_matches_paper(self):
        # 2025-02-09 .. 2025-06-09 is 120 days.
        clock = SimClock()
        assert clock.date_of_day(120) == "2025-06-09"
