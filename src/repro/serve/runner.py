"""Foreground serving steps shared by ``repro serve`` and ``repro api``.

Both CLI servers follow the same shape: bind the port before any slow
set-up, start the server, print one announcement line naming the bound
port (port 0 means "pick one", and the announcement must show the
*resolved* port or the user cannot connect), then block until Ctrl-C.
The two steps that are not the command's own live here once, so the two
commands cannot drift.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

from repro.errors import ConfigError
from repro.serve.httpcommon import HttpServer


def bind_server(host: str, port: int) -> HttpServer:
    """Bind ``host:port`` now, before the caller's slow set-up.

    A port that is taken or out of range, or a host that cannot be bound,
    is an operator mistake: it raises :class:`~repro.errors.ConfigError`,
    which the CLI prints as one line with exit 2.
    """
    try:
        return HttpServer(host, port)
    except (OSError, OverflowError) as exc:
        raise ConfigError(f"cannot start the server: {exc}") from exc


def wait_for_interrupt(announce: Callable[[], object]) -> None:
    """Run ``announce``, then block until Ctrl-C; a started server answers
    on its own thread.

    ``announce`` prints the line a user or a script waits for before it
    sends Ctrl-C, so it runs inside the wait: a SIGINT sent the moment
    that line is read may land before ``print`` has returned, and it
    stops the command as cleanly as a later one.

    Every later SIGINT is ignored, so the shutdown that follows (bounded
    by :attr:`HttpServer.TIMEOUT`) runs to the end. A doubled Ctrl-C would
    otherwise cut it short: ``timeout`` sends SIGINT to the command and
    again to its process group.
    """
    try:
        announce()
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
