"""The bounded background chunk reader behind pipelined analysis.

:class:`BoundedWorkQueue` is a bounded queue with an explicit shutdown
contract — a synchronous idempotent :meth:`~BoundedWorkQueue.close` that
wakes every waiter, drain-on-close for buffered items, and a hard error
(:class:`WorkQueueClosedError`) for producers that race a closed queue —
built on a :class:`threading.Condition` because the reader runs on a real
thread (SQLite loads release the GIL inside the C library, so a
background reader genuinely overlaps with numpy mask evaluation).

:class:`ChunkPrefetcher` owns that thread: it opens its *own* read-only
archive connection (sqlite3 connections are bound to their creating
thread), loads chunks in task order through a caller-supplied load
function, and feeds ``(task, payload)`` pairs through a queue bounded at
``depth`` — so at most ``depth`` loaded chunks wait in memory while the
consumer computes. A reader-side exception is stored and re-raised from
the consumer's ``get`` after the buffered items drain; a consumer that
exits early closes the queue, which unblocks (and terminates) the reader
rather than deadlocking it against a full queue.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable, Iterator

from repro.archive.database import ArchiveDatabase
from repro.errors import ConfigError, ReproError


class WorkQueueClosedError(ReproError):
    """A put raced a queue that closed (consumer-side shutdown signal)."""


class _EndOfWork:
    """Sentinel type for :data:`END_OF_WORK` (its only instance)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "END_OF_WORK"


#: Returned by :meth:`BoundedWorkQueue.get` once the queue is closed and
#: drained — the consumer's end-of-iteration signal.
END_OF_WORK = _EndOfWork()


class BoundedWorkQueue:
    """A bounded thread-safe producer/consumer queue with explicit close.

    ``put`` blocks while full and raises :class:`WorkQueueClosedError`
    once closed (including while blocked); ``get`` blocks while empty,
    drains buffered items after close, then returns :data:`END_OF_WORK`
    forever — or re-raises the failure recorded by :meth:`fail`, so a
    dead producer surfaces in the consumer instead of hanging it.
    """

    def __init__(self, maxsize: int, name: str = "prefetch") -> None:
        if maxsize < 1:
            raise ConfigError(f"queue maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.high_water = 0
        self._items: deque = deque()
        self._closed = False
        self._failure: BaseException | None = None
        self._cond = threading.Condition()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` (or :meth:`fail`) has been called."""
        return self._closed

    def put(self, item) -> None:
        """Enqueue ``item``, blocking while the queue is full.

        Raises :class:`WorkQueueClosedError` if the queue is closed —
        before, or while the put waits for capacity. The latter is the
        shutdown path: a consumer that stops iterating closes the queue
        and thereby unblocks a producer stuck against the bound.
        """
        with self._cond:
            while True:
                if self._closed:
                    raise WorkQueueClosedError(
                        f"queue {self.name!r} is closed; item refused"
                    )
                if len(self._items) < self.maxsize:
                    self._items.append(item)
                    if len(self._items) > self.high_water:
                        self.high_water = len(self._items)
                    self._cond.notify_all()
                    return
                self._cond.wait()

    def get(self):
        """Dequeue the next item, or :data:`END_OF_WORK` once drained.

        Blocks while the queue is open and empty. After close, buffered
        items are still handed out in order (drain-on-close); only then
        does a recorded failure re-raise, or every subsequent call
        return the sentinel.
        """
        with self._cond:
            while True:
                if self._items:
                    item = self._items.popleft()
                    self._cond.notify_all()
                    return item
                if self._closed:
                    if self._failure is not None:
                        raise self._failure
                    return END_OF_WORK
                self._cond.wait()

    def close(self) -> None:
        """Close the queue and wake every waiter (idempotent, reentrant)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()

    def fail(self, exc: BaseException) -> None:
        """Close the queue carrying ``exc`` for the consumer to re-raise.

        A no-op if the queue already closed — a consumer-initiated
        shutdown outranks a producer error that raced it.
        """
        with self._cond:
            if self._closed:
                return
            self._failure = exc
            self._closed = True
            self._cond.notify_all()


class ChunkPrefetcher:
    """A background reader keeping up to ``depth`` loaded chunks in flight.

    Use as a context manager and iterate ``(task, payload)`` pairs::

        prefetcher = ChunkPrefetcher(path, tasks, depth=2, load=load_task)
        with prefetcher:
            for task, payload in prefetcher:
                outcome = compute_task(task, payload)

    The reader thread opens its own read-only :class:`ArchiveDatabase`
    (sqlite3 connections cannot cross threads) and always closes it on
    the way out. Exiting the ``with`` block early — exception, break —
    closes the queue, which unblocks and terminates the reader; the exit
    joins the thread, so no state leaks past the block.
    """

    def __init__(
        self,
        archive_path: str,
        tasks: Iterable,
        depth: int,
        load: Callable[[ArchiveDatabase, object], object],
        name: str = "prefetch",
    ) -> None:
        if depth < 1:
            raise ConfigError(f"prefetch depth must be >= 1, got {depth}")
        self._archive_path = archive_path
        self._tasks = list(tasks)
        self._load = load
        self._queue = BoundedWorkQueue(depth, name=name)
        self._thread: threading.Thread | None = None

    @property
    def queue(self) -> BoundedWorkQueue:
        """The underlying queue (exposed for tests and metrics)."""
        return self._queue

    def _run(self) -> None:
        """Reader-thread body: load every task in order, then close."""
        database: ArchiveDatabase | None = None
        try:
            database = ArchiveDatabase(self._archive_path, read_only=True)
            for task in self._tasks:
                payload = self._load(database, task)
                self._queue.put((task, payload))
        except WorkQueueClosedError:
            pass  # consumer shut down first; nothing to report
        except BaseException as exc:
            self._queue.fail(exc)
        else:
            self._queue.close()
        finally:
            if database is not None:
                database.close()

    def __enter__(self) -> "ChunkPrefetcher":
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self._queue.name}", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __iter__(self) -> Iterator:
        while True:
            item = self._queue.get()
            if item is END_OF_WORK:
                return
            yield item

    def close(self) -> None:
        """Close the queue and join the reader thread (idempotent)."""
        self._queue.close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
