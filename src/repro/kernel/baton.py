"""The one host-thread handoff: the scheduler's driver and tasks, and the
sMVX leader and follower (§3.3), take turns on a :class:`Baton`."""

from __future__ import annotations

import threading
from typing import Dict, Optional


class Baton:
    """Strict alternation between two named sides, each blocking on its
    own raw ``threading.Lock``.  ``turn`` names the side that may run
    (``first`` at the start; None: neither, for good).  :meth:`give`
    passes it to the peer and releases the peer's lock, and :meth:`wait`
    blocks on the caller's.  A side gives only while it holds the turn,
    so every release meets exactly one acquire.  A timed wait is a
    watchdog, not a deadline: it gives up only when the peer can never
    give the turn back, because it is waiting too (a deadlock) or its
    thread is dead, never because the peer is slow (parked, traced)."""

    def __init__(self, first: str, second: str) -> None:
        self.turn: Optional[str] = first
        #: each side's host thread, as its timed waits record it.
        self.threads: Dict[str, threading.Thread] = {}
        self._peer = {first: second, second: first}
        self._locks = {first: threading.Lock(), second: threading.Lock()}
        for lock in self._locks.values():
            lock.acquire()
        #: sides in a timed wait no give has answered (kept on giving up).
        self._waiting = {first: False, second: False}

    def give(self, side: str) -> bool:
        """Pass the turn from ``side`` to its peer (False if it has none)."""
        if self.turn != side:
            return False
        peer = self.turn = self._peer[side]
        self._waiting[peer] = False
        self._locks[peer].release()
        return True

    def wait(self, side: str,
             timeout: Optional[float] = None) -> Optional[str]:
        """Block until ``side`` is given the turn.  A timed wait returns
        None then, or why it gave up first."""
        lock = self._locks[side]
        if timeout is None:
            lock.acquire()
            return None
        self.threads[side] = threading.current_thread()
        if lock.acquire(False):
            return None
        self._waiting[side] = True
        while not lock.acquire(True, timeout):
            peer = self._peer[side]
            if self._waiting[side] and self._waiting[peer]:
                return "protocol stall"
            thread = self.threads.get(peer)
            if thread is not None and not thread.is_alive():
                return f"{peer} thread died"
        self._waiting[side] = False
        return None
