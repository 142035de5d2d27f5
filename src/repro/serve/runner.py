"""Foreground serving loop shared by ``repro serve`` and ``repro api``.

Both CLI servers follow the same shape: start a threaded server, resolve
the bound port (port 0 means "pick one", and the announcement must show
the *resolved* port or the user cannot connect), print one announcement
line, then block until Ctrl-C and stop cleanly. That sequence lives here
once so the two commands cannot drift.
"""

from __future__ import annotations

import time
from typing import Callable, Protocol

from repro.errors import ConfigError


class ForegroundServer(Protocol):
    """What the runner needs from a threaded server."""

    @property
    def port(self) -> int:
        """The bound port (resolved, even when the request was port 0)."""
        ...

    def start(self) -> None:
        """Bind and begin serving on a background thread."""
        ...

    def stop(self) -> None:
        """Stop serving and join the background thread."""
        ...


def run_until_interrupt(
    server: ForegroundServer,
    announce: Callable[[int], None],
) -> None:
    """Start ``server``, announce its resolved port, block until Ctrl-C.

    A start that fails with an ``OSError`` (the port is taken) raises
    :class:`~repro.errors.ConfigError` instead. ``announce`` receives the
    port actually bound (meaningful when the requested port was 0) and
    runs after the socket is listening — a client that connects the
    moment the line prints will be served. The server is stopped on the
    way out even if the announcement raises.
    """
    try:
        server.start()
    except OSError as exc:
        # A taken port (or a host that cannot be bound) is an operator
        # mistake: one line and exit 2 through main(), no traceback.
        raise ConfigError(f"cannot start the server: {exc}") from exc
    try:
        announce(server.port)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
