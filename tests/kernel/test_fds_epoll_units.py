"""Unit coverage for file descriptions and the epoll interest list."""

import pytest

from repro.kernel.epoll_impl import (
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLL_CTL_MOD,
    EPOLLIN,
    EPOLLOUT,
    EpollInstance,
)
from repro.kernel.errno_codes import Errno
from repro.kernel.fds import FileDescription, FileFD, UrandomFD
from repro.kernel.vfs import O_RDONLY, O_RDWR, O_WRONLY, RegularFile, \
    S_IFCHR, UrandomStream


# -- base description defaults ---------------------------------------------------

def test_base_description_defaults():
    fd = FileDescription()
    assert fd.read(4, 0) == -Errno.EINVAL
    assert fd.write(b"x", 0) == -Errno.EINVAL
    assert not fd.readable(0) and not fd.writable(0) and not fd.hup(0)
    assert fd.next_ready_at() is None
    assert fd.stat() == -Errno.EINVAL
    assert fd.seek_set(0) == -Errno.ESPIPE
    fd.close()                                  # no-op, never raises


# -- regular files -----------------------------------------------------------------

def test_filefd_mode_enforcement():
    node = RegularFile(bytearray(b"data"))
    rd = FileFD(node, O_RDONLY)
    assert rd.write(b"x", 0) == -Errno.EBADF
    wr = FileFD(node, O_WRONLY)
    assert wr.read(4, 0) == -Errno.EBADF
    rw = FileFD(node, O_RDWR)
    assert rw.read(4, 0) == b"data"
    assert rw.write(b"!", 0) == 1


def test_filefd_sparse_write_beyond_eof():
    node = RegularFile(bytearray(b"ab"))
    fd = FileFD(node, O_RDWR)
    assert fd.seek_set(6) == 6
    assert fd.write(b"Z", 0) == 1
    assert bytes(node.data) == b"ab\x00\x00\x00\x00Z"


def test_filefd_negative_seek_rejected():
    fd = FileFD(RegularFile(), O_RDWR)
    assert fd.seek_set(-1) == -Errno.EINVAL


def test_urandom_fd_properties():
    fd = UrandomFD(UrandomStream(b"seed"))
    assert fd.readable(0)
    first = fd.read(8, 0)
    second = fd.read(8, 0)
    assert first != second                     # stream advances
    mode, _, _ = fd.stat()
    assert mode & S_IFCHR


# -- epoll interest list --------------------------------------------------------------

def test_epoll_ctl_semantics():
    ep = EpollInstance()
    assert ep.ctl(EPOLL_CTL_ADD, 3, EPOLLIN, 0xAA) == 0
    assert ep.ctl(EPOLL_CTL_ADD, 3, EPOLLIN, 0xAA) == -Errno.EEXIST
    assert ep.ctl(EPOLL_CTL_MOD, 3, EPOLLOUT, 0xBB) == 0
    assert ep.ctl(EPOLL_CTL_MOD, 9, EPOLLIN, 0) == -Errno.ENOENT
    assert ep.ctl(EPOLL_CTL_DEL, 3) == 0
    assert ep.ctl(EPOLL_CTL_DEL, 3) == -Errno.ENOENT
    assert ep.ctl(99, 3) == -Errno.EINVAL


def test_epoll_poll_masks_and_maxevents():
    ep = EpollInstance()
    for fd in range(5):
        ep.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, fd * 10)

    ready = ep.poll(0, lambda fd: (True, False, False, 0), max_events=3)
    assert len(ready) == 3                     # capped
    assert all(events & EPOLLIN for events, _data in ready)

    # an interest in OUT only does not fire on readable-only fds
    ep2 = EpollInstance()
    ep2.ctl(EPOLL_CTL_ADD, 1, EPOLLOUT, 7)
    assert ep2.poll(0, lambda fd: (True, False, False, 0), 8) == []
    assert ep2.poll(0, lambda fd: (False, True, False, None), 8) == \
        [(EPOLLOUT, 7)]


def test_epoll_poll_skips_stale_fds():
    ep = EpollInstance()
    ep.ctl(EPOLL_CTL_ADD, 4, EPOLLIN, 1)
    assert ep.poll(0, lambda fd: None, 8) == []


def test_epoll_mod_replaces_data():
    ep = EpollInstance()
    ep.ctl(EPOLL_CTL_ADD, 2, EPOLLIN, 111)
    ep.ctl(EPOLL_CTL_MOD, 2, EPOLLIN, 222)
    ready = ep.poll(0, lambda fd: (True, False, False, 0), 8)
    assert ready == [(EPOLLIN, 222)]


def test_epoll_next_ready_horizon():
    ep = EpollInstance()
    ep.ctl(EPOLL_CTL_ADD, 1, EPOLLIN, 0)
    ep.ctl(EPOLL_CTL_ADD, 2, EPOLLIN, 0)
    horizon = {1: 500.0, 2: 100.0}
    assert ep.next_ready_at(lambda fd: horizon.get(fd)) == 100.0
    assert ep.next_ready_at(lambda fd: None) is None


def test_epoll_forget_on_close():
    ep = EpollInstance()
    ep.ctl(EPOLL_CTL_ADD, 7, EPOLLIN, 0)
    ep.forget(7)
    assert ep.watched_fds == []
    ep.forget(7)                               # idempotent


# -- O(ready) armed list: disarm, re-arm, fairness, staleness --------------------

class _FakeChannel:
    """Minimal re-arm channel (the Socket/Listener watcher protocol)."""

    def __init__(self):
        self.watchers = []

    def add_watcher(self, fn):
        if fn not in self.watchers:
            self.watchers.append(fn)

    def remove_watcher(self, fn):
        if fn in self.watchers:
            self.watchers.remove(fn)

    def fire(self):
        for fn in tuple(self.watchers):
            fn()


_IDLE = (False, False, False, None)             # idle, nothing in flight


def test_epoll_idle_four_tuple_probe_disarms():
    ep = EpollInstance()
    ch = _FakeChannel()
    ep.ctl(EPOLL_CTL_ADD, 3, EPOLLIN, 3, channel=ch)
    assert ep.armed_fds == [3]                  # ADD arms (level-triggered)
    assert ep.poll(0, lambda fd: _IDLE, 16) == []
    assert ep.armed_fds == []                   # idle + nothing in flight
    before = ep.probes
    ep.poll(0, lambda fd: _IDLE, 16)
    assert ep.probes == before                  # disarmed fds cost nothing


def test_epoll_channel_watcher_rearms_disarmed_fd():
    ep = EpollInstance()
    ch = _FakeChannel()
    ep.ctl(EPOLL_CTL_ADD, 3, EPOLLIN, 3, channel=ch)
    ep.poll(0, lambda fd: _IDLE, 16)            # disarms
    ch.fire()                                   # delivery: channel re-arms
    assert ep.armed_fds == [3]
    assert ep.poll(0, lambda fd: (True, False, False, 0), 16) == \
        [(EPOLLIN, 3)]


def test_epoll_epollout_interest_never_disarms():
    # writability has no delivery event to re-arm on, so EPOLLOUT
    # interests must stay armed even when a probe reports idle
    ep = EpollInstance()
    ep.ctl(EPOLL_CTL_ADD, 4, EPOLLIN | EPOLLOUT, 4, channel=_FakeChannel())
    ep.poll(0, lambda fd: _IDLE, 16)
    assert ep.armed_fds == [4]


def test_epoll_rotation_is_fair_over_armed_list():
    # saturated polls rotate the scan start over the *armed* list, so a
    # busy prefix cannot starve later armed fds — same guarantee the old
    # interest-list scan gave, preserved under O(ready)
    ep = EpollInstance()
    ch = _FakeChannel()
    for fd in (3, 4, 5, 6):
        ep.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, fd, channel=ch)
    probe = lambda fd: (True, False, False, 0)  # all ready, data in flight
    served = []
    for _ in range(2):
        batch = ep.poll(0, probe, 2)
        assert len(batch) == 2
        served += [data for _, data in batch]
    assert sorted(served) == [3, 4, 5, 6]       # every fd served once
    assert served == [3, 4, 5, 6]               # in deterministic order


def test_epoll_forget_detaches_watcher_and_disarms():
    ep = EpollInstance()
    ch = _FakeChannel()
    ep.ctl(EPOLL_CTL_ADD, 7, EPOLLIN, 7, channel=ch)
    assert len(ch.watchers) == 1
    ep.forget(7)
    assert ch.watchers == []                    # no leak into the channel
    assert ep.armed_fds == []
    ch.fire()                                   # stale delivery after close
    assert ep.armed_fds == []                   # cannot resurrect the fd


def test_epoll_stale_armed_fd_dropped_once():
    # an fd closed while armed: the next poll sees probe -> None, drops
    # it, and never probes it again
    ep = EpollInstance()
    ep.ctl(EPOLL_CTL_ADD, 8, EPOLLIN, 8)
    assert ep.poll(0, lambda fd: None, 16) == []
    assert ep.armed_fds == []
    before = ep.probes
    ep.poll(0, lambda fd: None, 16)
    assert ep.probes == before


def test_epoll_probe_cost_tracks_ready_not_interest():
    # the O(ready) contract: with N watched keep-alive connections and
    # only K active, a poll probes ~K fds, not N
    ep = EpollInstance()
    ch = _FakeChannel()
    for fd in range(3, 103):                    # 100 watched fds
        ep.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, fd, channel=ch)
    active = {3, 57}
    probe = lambda fd: (True, False, False, 0) if fd in active else _IDLE
    ep.poll(0, probe, 128)                      # first poll: full sweep
    assert sorted(ep.armed_fds) == [3, 57]      # 98 idle fds disarmed
    before = ep.probes
    ep.poll(0, probe, 128)
    assert ep.probes - before == 2              # O(ready), not O(100)
