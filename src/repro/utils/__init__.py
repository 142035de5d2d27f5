"""Utility layer: encoding, deterministic time and randomness, statistics,
rate limiting, backoff, and serialization helpers."""

from repro.utils.base58 import b58decode, b58encode
from repro.utils.backoff import ExponentialBackoff
from repro.utils.distributions import (
    clipped_lognormal,
    lognormal_from_median,
    pareto_from_scale,
    weighted_choice,
)
from repro.utils.ratelimit import ClientRateLimiter, TokenBucket
from repro.utils.rng import DeterministicRNG
from repro.utils.simtime import SimClock, iso_to_unix, unix_to_iso
from repro.utils.stats import Cdf, Summary, percentile, summarize

__all__ = [
    "Cdf",
    "ClientRateLimiter",
    "DeterministicRNG",
    "ExponentialBackoff",
    "SimClock",
    "Summary",
    "TokenBucket",
    "b58decode",
    "b58encode",
    "clipped_lognormal",
    "iso_to_unix",
    "lognormal_from_median",
    "pareto_from_scale",
    "percentile",
    "summarize",
    "unix_to_iso",
    "weighted_choice",
]
