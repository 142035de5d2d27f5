"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


# --- configuration ------------------------------------------------------------


class ConfigError(ReproError):
    """A scenario or component was configured with invalid parameters."""


# --- Solana ledger -------------------------------------------------------------


class TransactionError(ReproError):
    """A transaction failed to execute and was rolled back."""


class InvalidSignatureError(TransactionError):
    """A transaction carried a signature that does not verify."""


class InsufficientFundsError(TransactionError):
    """An account lacked the lamports or tokens required by an instruction."""


class AccountNotFoundError(TransactionError):
    """An instruction referenced an account unknown to the bank."""


class ProgramError(TransactionError):
    """An on-chain program rejected an instruction."""


# --- DEX ------------------------------------------------------------------------


class DexError(ProgramError):
    """Base class for DEX program failures."""


class SlippageExceededError(DexError):
    """A swap's output fell below the user's ``min_amount_out`` bound."""


class PoolNotFoundError(DexError):
    """No liquidity pool exists for the requested mint pair."""


class InsufficientLiquidityError(DexError):
    """A swap was larger than the pool can absorb."""


# --- Jito -----------------------------------------------------------------------


class BundleError(ReproError):
    """Base class for Jito bundle failures."""


class BundleTooLargeError(BundleError):
    """A bundle exceeded the five-transaction limit."""


class EmptyBundleError(BundleError):
    """A bundle must contain at least one transaction."""


class DuplicateTransactionError(BundleError):
    """The same transaction appeared twice within one bundle."""


# --- Explorer API / networking ---------------------------------------------------


class ExplorerError(ReproError):
    """Base class for Jito Explorer API failures."""


class RateLimitedError(ExplorerError):
    """The client exceeded the endpoint's rate limit (HTTP 429).

    Carries the server's optional ``Retry-After`` hint in seconds; retry
    policies that honor it back off at least that long instead of hammering
    a limiter that already told them when capacity returns.
    """

    def __init__(
        self, message: str = "", retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailableError(ExplorerError):
    """The explorer is inside an injected instability window (HTTP 503)."""


class BadRequestError(ExplorerError):
    """The request was malformed or asked for more than the endpoint allows."""


class TransportError(ExplorerError):
    """The HTTP transport failed (connection refused, timeout, bad framing)."""


class DeadlineExceededError(TransportError):
    """A request's total time budget elapsed before a response arrived."""


# --- Collector --------------------------------------------------------------------


class CollectorError(ReproError):
    """Base class for measurement-collector failures."""


class StoreError(CollectorError):
    """The bundle store could not persist or load records."""


# --- Detection ---------------------------------------------------------------------


class DetectionError(ReproError):
    """The sandwich-detection pipeline was fed malformed input."""


# --- Conformance --------------------------------------------------------------------


class ConformanceError(ReproError):
    """Two pipeline runs that must agree produced different results.

    Raised by the differential oracle (and the parity guards built on it)
    when reports that the determinism contract requires to be identical
    diverge. ``diff`` carries the structured report diff when one is
    available — callers can render it, serialize it, or inspect individual
    field differences programmatically.
    """

    def __init__(self, message: str, diff: object | None = None) -> None:
        super().__init__(message)
        self.diff = diff
