"""epoll.

Level-triggered epoll over the kernel's file descriptions.  The paper
singles out ``epoll_wait``/``epoll_pwait`` as needing *special* emulation
in the MVX monitor because ``epoll_data`` is a union — when an application
stores a pointer there, the follower variant must see a translated value
(paper §3.3).  We therefore keep ``epoll_data`` as an opaque 64-bit integer
exactly as Linux does, so the sMVX monitor has to apply the same
"is it a pointer into the address space?" heuristic the paper describes.

Cost model: ``poll`` is O(ready), not O(interest).  Each instance keeps an
event-driven *armed list* — the deterministic analogue of Linux's epoll
ready list.  An fd is armed when added, and re-armed by its channel
(``Socket._deliver``, FIN arrival, ``Listener.enqueue``) through a watcher
callback; a poll that finds an armed fd idle with nothing in flight
disarms it, so a worker holding thousands of quiet keep-alive connections
probes only the fds that actually have traffic.  Fairness is preserved:
the scan rotates over the armed list exactly as it used to rotate over the
interest list, advancing whenever a poll saturates ``max_events``.

The instance is itself a channel: every ``arm`` fires its watchers, so
a task parked in ``epoll_wait`` declares the instance and is re-checked
by the scheduler only when one of its fds may have become ready.

Probes may return the legacy 3-tuple ``(readable, writable, hup)`` or the
richer 4-tuple with ``next_ready_at`` appended.  Only 4-tuple probes opt
in to disarming: a 3-tuple probe carries no in-flight information, so its
fds stay armed and the instance degrades to the old O(interest) scan —
which keeps direct users of :class:`EpollInstance` (tests, tools) working
unchanged without registering channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.kernel.errno_codes import Errno
from repro.kernel.net import Channel

EPOLLIN = 0x001
EPOLLOUT = 0x004
EPOLLERR = 0x008
EPOLLHUP = 0x010

EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2
EPOLL_CTL_MOD = 3


@dataclass
class _Interest:
    events: int
    data: int            # the epoll_data union, as a raw 64-bit value


class EpollInstance(Channel):
    """One epoll file descriptor's interest list + armed (ready) list."""

    def __init__(self) -> None:
        super().__init__()
        self._interest: Dict[int, _Interest] = {}
        #: scan-start rotation over the armed list, advanced whenever a
        #: poll saturates ``max_events`` — Linux's ready-list round-robin
        #: analogue, so fds early in the armed list cannot starve later
        #: ones.
        self._rotation = 0
        #: the armed list: fds that *may* be ready, in arming order
        #: (dict-as-ordered-set; values unused).
        self._armed: Dict[int, None] = {}
        #: fd -> (channel, watcher) for channels that push re-arms.
        self._channels: Dict[int, Tuple[object, Callable[[], None]]] = {}
        #: cost counters: ``probes``/``polls`` is the per-poll scan cost,
        #: which must track the number of *armed* fds, not watched ones.
        self.polls = 0
        self.probes = 0
        #: interest-list high-water mark — the O(interest) baseline the
        #: probes/polls ratio is judged against.
        self.max_interest = 0

    # -- armed list -----------------------------------------------------------

    def arm(self, fd: int) -> None:
        """Put ``fd`` on the armed list (idempotent, keeps first position)
        and fire the instance's watchers: the fd may be ready sooner."""
        if fd in self._interest:
            self._armed[fd] = None
            self._notify()

    def _disarm(self, fd: int) -> None:
        self._armed.pop(fd, None)

    def _watch(self, fd: int, channel: object) -> None:
        add = getattr(channel, "add_watcher", None)
        if add is None:
            return

        def rearm(fd=fd):
            self.arm(fd)

        add(rearm)
        self._channels[fd] = (channel, rearm)

    def _unwatch(self, fd: int) -> None:
        entry = self._channels.pop(fd, None)
        if entry is not None:
            channel, watcher = entry
            remove = getattr(channel, "remove_watcher", None)
            if remove is not None:
                remove(watcher)

    def close(self) -> None:
        """Detach every watcher (the epoll fd itself is being closed)."""
        for fd in list(self._channels):
            self._unwatch(fd)
        self._interest.clear()
        self._armed.clear()

    # -- interest list --------------------------------------------------------

    def ctl(self, op: int, fd: int, events: int = 0, data: int = 0,
            channel: object = None) -> int:
        if op == EPOLL_CTL_ADD:
            if fd in self._interest:
                return -Errno.EEXIST
            self._interest[fd] = _Interest(events, data)
            if len(self._interest) > self.max_interest:
                self.max_interest = len(self._interest)
            if channel is not None:
                self._watch(fd, channel)
            self.arm(fd)         # level-triggered: it may be ready already
            return 0
        if op == EPOLL_CTL_MOD:
            if fd not in self._interest:
                return -Errno.ENOENT
            self._interest[fd] = _Interest(events, data)
            self.arm(fd)         # the new mask may match current state
            return 0
        if op == EPOLL_CTL_DEL:
            if fd not in self._interest:
                return -Errno.ENOENT
            del self._interest[fd]
            self._unwatch(fd)
            self._disarm(fd)
            return 0
        return -Errno.EINVAL

    def forget(self, fd: int) -> None:
        """Drop interest when the fd is closed (Linux does this implicitly)."""
        self._interest.pop(fd, None)
        self._unwatch(fd)
        self._disarm(fd)

    def poll(self, now: float,
             probe: Callable[[int], Optional[Tuple]],
             max_events: int) -> List[Tuple[int, int]]:
        """Collect ready ``(events, data)`` pairs from the armed list.

        ``probe(fd)`` returns ``(readable, writable, hup)`` — optionally
        with ``next_ready_at`` appended — for a live fd, or ``None`` for a
        stale one.

        The scan starts at a rotating position: whenever a poll returns a
        full ``max_events`` batch, the next scan begins just past the last
        fd served, so a busy prefix of the armed list cannot starve later
        fds (the deterministic analogue of Linux's ready-list
        round-robin).
        """
        self.polls += 1
        items = list(self._armed)
        if not items:
            return []
        start = self._rotation % len(items)
        ready: List[Tuple[int, int]] = []
        for position in range(len(items)):
            fd = items[(start + position) % len(items)]
            interest = self._interest.get(fd)
            if interest is None:
                self._disarm(fd)
                continue
            state = probe(fd)
            self.probes += 1
            if state is None:
                # Stale: the fd was closed while armed; drop it so it is
                # never probed again.
                self._disarm(fd)
                continue
            readable, writable, hup = state[0], state[1], state[2]
            pending = state[3] if len(state) > 3 else False
            events = 0
            if readable and interest.events & EPOLLIN:
                events |= EPOLLIN
            if writable and interest.events & EPOLLOUT:
                events |= EPOLLOUT
            if hup:
                events |= EPOLLHUP
            if events:
                ready.append((events, interest.data))
                if len(ready) >= max_events:
                    self._rotation = (start + position + 1) % len(items)
                    break
            elif pending is None and not interest.events & EPOLLOUT:
                # A 4-tuple probe says: idle now, nothing in flight.  The
                # channel watcher will re-arm on the next delivery.
                # (EPOLLOUT interests stay armed — writability has no
                # delivery event.)  3-tuple probes (pending=False) never
                # disarm: legacy callers keep O(interest) semantics.
                self._disarm(fd)
        return ready

    def next_ready_at(self,
                      horizon: Callable[[int], Optional[float]]) -> Optional[float]:
        """Earliest future instant any *armed* fd could become readable.

        Disarmed fds have nothing queued and nothing in flight by
        construction, so scanning the armed list suffices — this is the
        blocking-wait horizon and must stay O(ready) too.
        """
        soonest: Optional[float] = None
        for fd in list(self._armed):
            candidate = horizon(fd)
            if candidate is not None and (soonest is None
                                          or candidate < soonest):
                soonest = candidate
        return soonest

    @property
    def watched_fds(self) -> List[int]:
        return list(self._interest)

    @property
    def armed_fds(self) -> List[int]:
        return list(self._armed)
