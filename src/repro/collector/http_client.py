"""A blocking HTTP/1.1 client for the explorer, built on raw sockets.

Mirrors the scraper side of the paper's methodology: plain HTTP requests to
the reverse-engineered endpoints, with connection timeouts and HTTP status
codes mapped back to the same typed errors the in-process client raises, so
the rest of the pipeline cannot tell the transports apart.

Hardening (the four-month campaign's survival kit):

- **Per-request deadline** — each request has a total time budget, enforced
  across connect and every receive; a stalled server raises
  :class:`~repro.errors.DeadlineExceededError` instead of hanging the poll
  loop.
- **Transport retry budget** — connection-level failures (refused, reset,
  timeout, torn framing) are retried up to ``max_retries`` times with
  jittered exponential backoff. Semantic statuses (400/429/503) are never
  retried here; the poller and detail fetcher own that policy.
- **Backoff resets on success** — the retry budget is per-request: one
  transient error early in a campaign must not permanently shorten the
  budget for every later request, so the shared backoff is ``reset()`` on
  every success path.
- **Retry-After hint** — a 429's hint (header or ``retryAfter`` body
  field) is attached to the raised :class:`~repro.errors.RateLimitedError`.
  The poller and detail fetcher do not wait it out: they retry at once, and
  their next slot is the wait.
"""

from __future__ import annotations

import socket
import time
from typing import Callable

from repro.errors import (
    BadRequestError,
    DeadlineExceededError,
    RateLimitedError,
    ServiceUnavailableError,
    TransportError,
)
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.explorer.wire import (
    bundle_record_from_json,
    transaction_record_from_json,
)
from repro.utils.backoff import ExponentialBackoff
from repro.utils.rng import DeterministicRNG
from repro.utils.serialization import decode_json, encode_json

_RECV_CHUNK = 65_536


class HttpExplorerClient:
    """Talks to the explorer over HTTP (:mod:`repro.explorer.http_server`)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        client_id: str = "collector",
        deadline: float | None = None,
        max_retries: int = 2,
        sleep_fn: Callable[[float], None] = time.sleep,
        monotonic_fn: Callable[[], float] = time.monotonic,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._client_id = client_id
        self._deadline = deadline if deadline is not None else timeout * 3
        self._max_retries = max_retries
        self._sleep = sleep_fn
        self._monotonic = monotonic_fn
        # One backoff shared across requests: attempts accumulate through a
        # request's transport retries and MUST be handed back on success —
        # otherwise a transient blip early in a campaign would permanently
        # shorten the budget of every later request.
        self._backoff = ExponentialBackoff(
            base=0.25,
            max_delay=5.0,
            max_attempts=max(1, max_retries + 1),
            rng=rng or DeterministicRNG(0).child("http-client"),
        )
        self.requests_sent = 0
        self.transport_retries = 0

    # --- transport -------------------------------------------------------------

    def _send_once(self, payload: bytes, deadline_at: float) -> bytes:
        """One socket round trip, honoring the request's total deadline."""

        def remaining() -> float:
            budget = deadline_at - self._monotonic()
            if budget <= 0:
                raise DeadlineExceededError(
                    f"request deadline of {self._deadline}s exceeded"
                )
            return min(budget, self._timeout)

        try:
            with socket.create_connection(
                (self._host, self._port), timeout=remaining()
            ) as conn:
                conn.sendall(payload)
                raw = bytearray()
                while True:
                    conn.settimeout(remaining())
                    chunk = conn.recv(_RECV_CHUNK)
                    if not chunk:
                        break
                    raw.extend(chunk)
        except socket.timeout as exc:
            raise DeadlineExceededError(f"request timed out: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"HTTP request failed: {exc}") from exc
        return bytes(raw)

    def _request(self, method: str, path: str, body: bytes = b"") -> dict:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"X-Client-Id: {self._client_id}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        payload = head + body
        self.requests_sent += 1
        last_error: TransportError | None = None
        while True:
            deadline_at = self._monotonic() + self._deadline
            try:
                raw = self._send_once(payload, deadline_at)
                parsed = self._parse_response(raw)
            except (BadRequestError, RateLimitedError, ServiceUnavailableError):
                # Semantic statuses parsed fine: the transport worked, so
                # hand back the retry budget before propagating.
                self._backoff.reset()
                raise
            except TransportError as exc:
                last_error = exc
                if self._backoff.exhausted():
                    self._backoff.reset()  # next request gets a full budget
                    raise TransportError(
                        f"transport retry budget exhausted after "
                        f"{self._max_retries} retries: {last_error}"
                    ) from last_error
                self.transport_retries += 1
                self._sleep(self._backoff.next_delay())
                continue
            self._backoff.reset()
            return parsed

    def _parse_response(self, raw: bytes) -> dict:
        separator = raw.find(b"\r\n\r\n")
        if separator < 0:
            raise TransportError("malformed HTTP response: no header terminator")
        head = raw[:separator].decode("latin-1")
        body = raw[separator + 4 :]
        head_lines = head.split("\r\n")
        status_line = head_lines[0].split(" ", 2)
        if len(status_line) < 2:
            raise TransportError(f"malformed status line: {head[:80]!r}")
        try:
            status = int(status_line[1])
        except ValueError as exc:
            raise TransportError(f"bad status code {status_line[1]!r}") from exc
        headers: dict[str, str] = {}
        for line in head_lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            payload = decode_json(body.decode("utf-8") or "{}")
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise TransportError(f"non-JSON response body: {exc}") from exc

        if status == 200:
            return payload
        message = (
            payload.get("error", "") if isinstance(payload, dict) else str(payload)
        )
        if status == 400:
            raise BadRequestError(message or "bad request")
        if status == 429:
            raise RateLimitedError(
                message or "rate limited",
                retry_after=_retry_after_hint(headers, payload),
            )
        if status == 503:
            raise ServiceUnavailableError(message or "service unavailable")
        raise TransportError(f"unexpected HTTP status {status}: {message}")

    # --- ExplorerClient interface ---------------------------------------------------

    def recent_bundles(self, limit: int | None = None) -> list[BundleRecord]:
        """GET the recent-bundles listing."""
        path = "/api/v1/bundles/recent"
        if limit is not None:
            path += f"?limit={int(limit)}"
        payload = self._request("GET", path)
        bundles = payload.get("bundles")
        if not isinstance(bundles, list):
            raise TransportError("response missing 'bundles' list")
        return [bundle_record_from_json(item) for item in bundles]

    def transactions(self, transaction_ids: list[str]) -> list[TransactionRecord]:
        """POST a bulk transaction-detail query."""
        body = encode_json({"ids": list(transaction_ids)}).encode("utf-8")
        payload = self._request("POST", "/api/v1/transactions", body)
        records = payload.get("transactions")
        if not isinstance(records, list):
            raise TransportError("response missing 'transactions' list")
        return [transaction_record_from_json(item) for item in records]

    def bundle(self, bundle_id: str) -> BundleRecord | None:
        """GET one bundle's detail page (None on 404)."""
        try:
            payload = self._request("GET", f"/api/v1/bundles/{bundle_id}")
        except TransportError as exc:
            if "404" in str(exc):
                return None
            raise
        record = payload.get("bundle")
        if not isinstance(record, dict):
            raise TransportError("response missing 'bundle' object")
        return bundle_record_from_json(record)

    def health(self) -> bool:
        """Probe the /healthz endpoint."""
        try:
            payload = self._request("GET", "/healthz")
        except TransportError:
            return False
        return payload.get("status") == "ok"


def _retry_after_hint(headers: dict[str, str], payload) -> float | None:
    """Extract a Retry-After hint from a 429's header or JSON body."""
    if isinstance(payload, dict) and payload.get("retryAfter") is not None:
        try:
            return float(payload["retryAfter"])
        except (TypeError, ValueError):
            pass
    header = headers.get("retry-after")
    if header:
        try:
            return float(header)
        except ValueError:
            pass
    return None
