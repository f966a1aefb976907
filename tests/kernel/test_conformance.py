"""POSIX-conformance coverage for this PR's kernel-fidelity fixes.

Four behaviours real kernels guarantee and the simulation now matches:

* ``O_APPEND`` seeks to EOF before *every* write (two appenders never
  overwrite each other);
* a peer's close travels the latency path as a FIN, so EOF/HUP can never
  precede causally-earlier data;
* ``epoll_wait`` rotates its scan start when a poll saturates
  ``max_events``, so fds late in the interest list cannot starve;
* ``recv(fd, buf, 0)`` returns 0, not ``-EAGAIN``.

Plus the libc retry contracts those fixes feed: EINTR restart
(SA_RESTART) and short-write completion loops, exercised under real
injected faults.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.epoll_impl import EpollInstance
from repro.kernel.errno_codes import Errno
from repro.kernel.faults import FaultSchedule
from repro.kernel.fds import FileFD
from repro.kernel.net import Socket
from repro.kernel.vfs import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_WRONLY,
    RegularFile,
)
from repro.libc import LIBC_FUNCTIONS, build_libc_image
from repro.loader import ImageBuilder
from repro.process import GuestProcess, to_signed

from tests.kernel.conftest import FakeProc


@pytest.fixture
def kernel():
    return Kernel()


# -- O_APPEND: seek to EOF before every write -----------------------------------

def test_filefd_append_follows_external_growth():
    node = RegularFile(bytearray(b"boot\n"))
    fd = FileFD(node, O_WRONLY | O_APPEND)
    node.data += b"other writer\n"              # file grew underneath us
    assert fd.write(b"mine\n", 0) == 5
    assert bytes(node.data) == b"boot\nother writer\nmine\n"


def test_two_append_fds_interleave_without_overwriting(kernel):
    proc = FakeProc(kernel)
    kernel.vfs.write_file("/var/log/app", b"boot\n")
    path = proc.put_cstring("/var/log/app")
    fd1 = kernel.syscall(proc, "open", path, O_WRONLY | O_APPEND)
    fd2 = kernel.syscall(proc, "open", path, O_WRONLY | O_APPEND)
    assert fd1 >= 3 and fd2 >= 3
    buf = proc.buffer()
    for fd, line in ((fd1, b"aa\n"), (fd2, b"bb\n"), (fd1, b"cc\n")):
        proc.space.write(buf, line, privileged=True)
        assert kernel.syscall(proc, "write", fd, buf, len(line)) == \
            len(line)
    assert kernel.vfs.read_file("/var/log/app") == b"boot\naa\nbb\ncc\n"


# -- FIN rides the latency path --------------------------------------------------

def _connected_pair(kernel, port):
    listener = kernel.network.listen(port)
    client = kernel.network.connect(port)
    kernel.clock.advance_ns(kernel.network.latency_ns)
    server_end = listener.accept()
    assert isinstance(server_end, Socket)
    return client, server_end


def test_eof_never_precedes_in_flight_data(kernel):
    client, server_end = _connected_pair(kernel, 9200)
    server_end.send(b"bye")
    server_end.close()                          # data + FIN both in flight
    assert client.recv(16) == -Errno.EAGAIN     # nothing arrived yet
    kernel.clock.advance_ns(kernel.network.latency_ns)
    assert client.recv(16) == b"bye"            # data lands first...
    assert client.recv(16) == b""               # ...EOF strictly after


def test_shutdown_write_fin_is_latent(kernel):
    client, server_end = _connected_pair(kernel, 9201)
    server_end.shutdown_write()
    # FIN still in flight
    assert not client.fin_visible(kernel.clock.monotonic_ns)
    assert client.recv(16) == -Errno.EAGAIN
    kernel.clock.advance_ns(kernel.network.latency_ns)
    assert client.fin_visible(kernel.clock.monotonic_ns)
    assert client.recv(16) == b""


def test_send_racing_the_fin_succeeds_then_epipe(kernel):
    client, server_end = _connected_pair(kernel, 9202)
    server_end.close()
    assert client.send(b"x") == 1               # FIN not yet visible
    kernel.clock.advance_ns(kernel.network.latency_ns)
    assert client.send(b"x") == -Errno.EPIPE


# -- epoll scan rotation ---------------------------------------------------------

def test_epoll_rotation_serves_every_ready_fd():
    from repro.kernel.epoll_impl import EPOLL_CTL_ADD, EPOLLIN
    ep = EpollInstance()
    for fd in (3, 4, 5, 6):
        assert ep.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, fd) == 0
    probe = lambda fd: (True, False, False, 0)  # everyone always ready
    served = set()
    for _ in range(2):                          # two saturated polls
        batch = ep.poll(0, probe, max_events=2)
        assert len(batch) == 2
        served |= {data for _, data in batch}
    assert served == {3, 4, 5, 6}               # nobody starves


def test_epoll_unsaturated_polls_keep_stable_order():
    from repro.kernel.epoll_impl import EPOLL_CTL_ADD, EPOLLIN
    ep = EpollInstance()
    for fd in (3, 4, 5):
        ep.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, fd)
    probe = lambda fd: (True, False, False, 0)
    first = ep.poll(0, probe, max_events=16)
    second = ep.poll(0, probe, max_events=16)
    assert first == second                      # rotation untouched
    assert [data for _, data in first] == [3, 4, 5]


# -- recv(0) and the errno paths -------------------------------------------------

def test_recv_zero_bytes_returns_zero_not_eagain(kernel):
    client, server_end = _connected_pair(kernel, 9203)
    assert client.recv(0) == b""                # empty pipe: still 0
    server_end.send(b"data")
    kernel.clock.advance_ns(kernel.network.latency_ns)
    assert client.recv(0) == b""                # data pending: still 0
    assert client.recv(16) == b"data"           # and nothing was consumed


def test_recv_send_on_closed_socket_is_ebadf(kernel):
    client, _ = _connected_pair(kernel, 9204)
    client.close()
    assert client.recv(0) == -Errno.EBADF       # EBADF beats the 0 path
    assert client.recv(16) == -Errno.EBADF
    assert client.send(b"x") == -Errno.EBADF


def test_backlog_overflow_under_fault_cap_is_econnrefused(kernel):
    kernel.faults.install(FaultSchedule(name="t", backlog_cap=1))
    kernel.network.listen(9205, backlog=64)
    assert isinstance(kernel.network.connect(9205), Socket)
    assert kernel.network.connect(9205) == -Errno.ECONNREFUSED
    assert isinstance(kernel.network.connect(9206), int)  # no listener


# -- libc retry contracts under injected faults ----------------------------------

@pytest.fixture
def guest():
    """A guest process plus a run(fn) helper (tests/libc convention)."""
    kernel = Kernel()
    kernel.vfs.write_file("/etc/sample", b"0123456789abcdef")
    process = GuestProcess(kernel, "conformance-test")
    process.load_image(build_libc_image(), tag="libc")

    class Guest:
        def __init__(self):
            self.kernel = kernel
            self.process = process
            self._counter = 0

        def run(self, fn, *args):
            self._counter += 1
            builder = ImageBuilder(f"probe{self._counter}")
            builder.import_libc(*LIBC_FUNCTIONS.keys())
            builder.add_hl_function("probe", fn, len(args))
            process.load_image(builder.build())
            return to_signed(process.call_function("probe", *args))
    return Guest()


def test_libc_read_restarts_across_eintr(guest):
    def probe(ctx):
        path = ctx.stack_alloc(32)
        ctx.write_cstring(path, b"/etc/sample")
        fd = to_signed(ctx.libc("open", path, O_RDONLY))
        buf = ctx.stack_alloc(32)
        n = to_signed(ctx.libc("read", fd, buf, 16))
        ctx.libc("close", fd)
        return n
    guest.kernel.faults.install(FaultSchedule(name="t", eintr_p=0.5))
    assert guest.run(probe) == 16               # EINTR absorbed by libc
    assert guest.kernel.faults.injected_by_kind.get("eintr", 0) > 0


def test_libc_write_completes_across_short_writes(guest):
    def probe(ctx):
        path = ctx.stack_alloc(32)
        ctx.write_cstring(path, b"/tmp/out")
        fd = to_signed(ctx.libc("open", path, O_WRONLY | O_CREAT))
        buf = ctx.stack_alloc(32)
        ctx.write(buf, b"0123456789abcdef")
        n = to_signed(ctx.libc("write", fd, buf, 16))
        ctx.libc("close", fd)
        return n
    guest.kernel.faults.install(FaultSchedule(name="t", short_write_p=1.0,
                                              short_write_cap=4))
    assert guest.run(probe) == 16               # completion loop resumed
    assert guest.kernel.vfs.read_file("/tmp/out") == b"0123456789abcdef"
    assert guest.kernel.faults.injected_by_kind.get("short_write", 0) >= 3


def test_libc_short_read_is_posix_legal_partial(guest):
    def probe(ctx):
        path = ctx.stack_alloc(32)
        ctx.write_cstring(path, b"/etc/sample")
        fd = to_signed(ctx.libc("open", path, O_RDONLY))
        buf = ctx.stack_alloc(32)
        total = 0
        while True:
            n = to_signed(ctx.libc("read", fd, buf, 16))
            if n <= 0:
                break
            total += n
        ctx.libc("close", fd)
        return total
    guest.kernel.faults.install(FaultSchedule(name="t", short_read_p=1.0,
                                              short_read_cap=5))
    assert guest.run(probe) == 16               # drained across partials
    assert guest.kernel.faults.injected_by_kind.get("short_read", 0) >= 2


# -- local SHUT_WR and listener teardown (serving-path fixes) --------------------

def test_send_after_local_shutdown_write_is_epipe(kernel):
    """POSIX: after shutdown(fd, SHUT_WR) *our own* sends fail with
    EPIPE immediately — no waiting for the peer's FIN to come back."""
    client, server_end = _connected_pair(kernel, 9210)
    client.shutdown_write()
    assert client.send(b"x") == -Errno.EPIPE    # local, instant
    # the read half stays open: the peer can still talk to us
    server_end.send(b"reply")
    kernel.clock.advance_ns(kernel.network.latency_ns)
    assert client.recv(16) == b"reply"


def test_listener_close_fins_queued_unaccepted_connects(kernel):
    """A client mid-connect when the listener closes (graceful reload
    racing an accept) must see a FIN, not park forever on a connection
    nobody will ever service."""
    listener = kernel.network.listen(9211)
    client = kernel.network.connect(9211)
    kernel.clock.advance_ns(kernel.network.latency_ns)
    assert listener.pending_count() == 1        # queued, never accepted
    listener.close()
    kernel.clock.advance_ns(kernel.network.latency_ns)
    assert client.fin_visible(kernel.clock.monotonic_ns)   # FIN delivered
    assert client.recv(16) == b""               # clean EOF, client retries
