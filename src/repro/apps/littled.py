"""littled — the Lighttpd stand-in (guest application).

Structure mirrors Lighttpd where the paper instruments it:

* ``server_main_loop`` — the root containing *all* sensitive functions;
  the paper protects it (70% of total cycles, §4.1) so the whole loop
  runs in one long-lived region (variant creation happens once, not per
  request — contrast with minx).
* ``littled_buffer_*`` — Lighttpd's chatty buffer API: every request does
  a flurry of ``malloc``/``memcpy``/``strlen``/``free`` calls, which is
  why its libc:syscall ratio (≈7.8) exceeds Nginx's (≈5.4) in Figure 7.
* responses go out with ``writev`` (header + body from a heap buffer)
  rather than ``sendfile``.
"""

from __future__ import annotations

from typing import Optional

from repro.apps import httputil
from repro.kernel.clock import TmStruct
from repro.kernel.epoll_impl import EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLLIN
from repro.kernel.kernel import Kernel
from repro.kernel.vfs import O_APPEND, O_CREAT, O_RDONLY, O_WRONLY
from repro.loader.image import ImageBuilder, ProgramImage
from repro.process.context import GuestContext, to_signed
from repro.process.process import GuestProcess

_MASK64 = (1 << 64) - 1

REQ_BUF_SIZE = 2048

CONN_FD = 0
CONN_REQBUF = 8
CONN_REQLEN = 16
CONN_URIBUF = 24          # littled copies the URI into its own buffer
CONN_STATUS = 32
CONN_KEEPALIVE = 40
CONN_SIZE = 64

G_LISTEN_FD = 0
G_EPFD = 8
G_LOG_FD = 16
G_SERVED = 24
G_DRAIN = 32              # set by the control plane: finish + exit
G_NCONN = 40              # open connections (admission control / drain)
G_CONN_CAP = 48           # admission cap (0 = unlimited)
G_GATED = 56              # listener currently removed from the epoll set

PROTECTABLE = (
    "server_main_loop",
    "littled_connection_handle",
    "littled_http_request_parse",
    "littled_http_response_prepare",
)

TAINTED_FUNCTIONS = (
    "littled_http_request_parse",
    "littled_http_response_prepare",
    "littled_http_response_write",
    "littled_buffer_copy_token",
)


def _globals(ctx: GuestContext) -> int:
    return ctx.symbol("littled_globals")


def _maybe_protect(ctx: GuestContext, name: str, *args: int) -> int:
    config = getattr(ctx.process, "app_config", None) or {}
    if config.get("protect") == name:
        name_ptr = ctx.symbol(f"lname_{name}")
        ctx.libc("mvx_start", name_ptr, len(args), *args)
        try:
            result = ctx.call(name, *args)
        finally:
            ctx.libc("mvx_end")
        return result
    return ctx.call(name, *args)


# ---------------------------------------------------------------------------
# the buffer API (lighttpd's chunk/buffer machinery, libc-call heavy)
# ---------------------------------------------------------------------------

def littled_buffer_copy_token(ctx: GuestContext, src: int,
                              length: int) -> int:
    """Allocate a buffer and copy ``length`` bytes + NUL into it."""
    buf = ctx.libc("malloc", length + 1)
    ctx.libc("memcpy", buf, src, length)
    ctx.write_byte(buf + length, 0)
    ctx.libc("strlen", buf)          # lighttpd re-measures constantly
    return buf


def littled_buffer_release(ctx: GuestContext, buf: int) -> int:
    if buf:
        ctx.libc("free", buf)
    return 0


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def littled_main(ctx: GuestContext, port: int) -> int:
    ctx.libc("mvx_init")
    g = _globals(ctx)

    path = ctx.stack_alloc(32)
    ctx.write_cstring(path, b"/var/log/littled.log")
    log_fd = to_signed(ctx.libc("open", path, O_WRONLY | O_CREAT | O_APPEND))
    ctx.write_word(g + G_LOG_FD, log_fd & _MASK64)

    # backlog 511, the production convention (nginx/redis): at C=1000
    # the accept queue must absorb a connect stampede without refusing
    # half the fleet into SYN-retransmit storms
    listen_fd = to_signed(ctx.libc("listen_on", port, 511))
    if listen_fd < 0:
        return -1
    ctx.write_word(g + G_LISTEN_FD, listen_fd)

    epfd = to_signed(ctx.libc("epoll_create1", 0))
    ctx.write_word(g + G_EPFD, epfd)
    event = ctx.stack_alloc(16)
    ctx.write_words(event, [EPOLLIN, listen_fd])
    ctx.libc("epoll_ctl", epfd, EPOLL_CTL_ADD, listen_fd, event)
    config = getattr(ctx.process, "app_config", None) or {}
    ctx.write_word(g + G_CONN_CAP, int(config.get("conn_cap") or 0))
    ctx.charge(1_800_000)              # config parse + plugin init (once)
    return 0


def littled_worker_main(ctx: GuestContext, port: int,
                        listen_fd: int) -> int:
    """Pre-forked worker bring-up: the listening socket is inherited from
    the master (fd passed in, not re-bound), so N workers share one
    listener and the kernel's accept queue distributes connections.
    Config parsing already happened in the master; the worker only
    re-opens its log and builds its own epoll set."""
    ctx.libc("mvx_init")
    g = _globals(ctx)

    path = ctx.stack_alloc(32)
    ctx.write_cstring(path, b"/var/log/littled.log")
    log_fd = to_signed(ctx.libc("open", path, O_WRONLY | O_CREAT | O_APPEND))
    ctx.write_word(g + G_LOG_FD, log_fd & _MASK64)

    if listen_fd < 0:
        return -1
    ctx.write_word(g + G_LISTEN_FD, listen_fd)

    epfd = to_signed(ctx.libc("epoll_create1", 0))
    ctx.write_word(g + G_EPFD, epfd)
    event = ctx.stack_alloc(16)
    ctx.write_words(event, [EPOLLIN, listen_fd])
    ctx.libc("epoll_ctl", epfd, EPOLL_CTL_ADD, listen_fd, event)
    config = getattr(ctx.process, "app_config", None) or {}
    ctx.write_word(g + G_CONN_CAP, int(config.get("conn_cap") or 0))
    ctx.charge(250_000)               # post-fork re-init (config inherited)
    return 0


def littled_pump(ctx: GuestContext) -> int:
    return _maybe_protect(ctx, "server_main_loop")


def server_main_loop(ctx: GuestContext) -> int:
    """The protected root: drain all ready events."""
    g = _globals(ctx)
    epfd = to_signed(ctx.read_word(g + G_EPFD))
    listen_fd = to_signed(ctx.read_word(g + G_LISTEN_FD))
    served = 0
    # one events array for the function's lifetime: a worker lives inside
    # a single main-loop invocation, so allocating per wake would walk the
    # stack pointer into the guard page under sustained load
    events = ctx.stack_alloc(16 * 16)
    while True:
        if ctx.read_word(g + G_DRAIN):
            # graceful drain: stop accepting (once), keep serving the
            # connections we already own, exit when the last one closes
            if not ctx.read_word(g + G_GATED):
                ctx.libc("epoll_ctl", epfd, EPOLL_CTL_DEL, listen_fd, 0)
                ctx.write_word(g + G_GATED, 1)
            if to_signed(ctx.read_word(g + G_NCONN)) <= 0:
                break
        n = to_signed(ctx.libc("epoll_wait", epfd, events, 16, -1))
        if n <= 0:
            break
        for index in range(n):
            data = ctx.read_word(events + 16 * index + 8)
            if data == listen_fd:
                ctx.call("littled_connection_accept")
            else:
                served += to_signed(
                    ctx.call("littled_connection_handle", data))
    return served


def littled_connection_accept(ctx: GuestContext) -> int:
    g = _globals(ctx)
    listen_fd = to_signed(ctx.read_word(g + G_LISTEN_FD))
    epfd = to_signed(ctx.read_word(g + G_EPFD))
    fd = to_signed(ctx.libc("accept4", listen_fd, 0))
    if fd < 0:
        return -1
    one = ctx.stack_alloc(8)
    ctx.write_word(one, 1)
    ctx.libc("setsockopt", fd, 6, 1, one, 8)
    conn = ctx.libc("calloc", 1, CONN_SIZE)
    reqbuf = ctx.libc("malloc", REQ_BUF_SIZE)
    ctx.write_word(conn + CONN_FD, fd)
    ctx.write_word(conn + CONN_REQBUF, reqbuf)
    event = ctx.stack_alloc(16)
    ctx.write_words(event, [EPOLLIN, conn])
    ctx.libc("epoll_ctl", epfd, EPOLL_CTL_ADD, fd, event)
    nconn = to_signed(ctx.read_word(g + G_NCONN)) + 1
    ctx.write_word(g + G_NCONN, nconn)
    cap = to_signed(ctx.read_word(g + G_CONN_CAP))
    if cap and nconn >= cap and not ctx.read_word(g + G_GATED):
        # admission control: at the cap, stop accepting until a
        # connection closes (backpressure lands on the shared listener
        # backlog, and from there on connecting clients)
        ctx.libc("epoll_ctl", epfd, EPOLL_CTL_DEL, listen_fd, 0)
        ctx.write_word(g + G_GATED, 1)
    return fd


def littled_connection_handle(ctx: GuestContext, conn: int) -> int:
    """Serve every complete request currently buffered on ``conn``.

    Pipelining-correct: each iteration consumes exactly one request —
    head plus ``Content-Length`` body — and shifts the remainder to the
    front of the buffer, so back-to-back requests in one segment are each
    parsed against their own bytes (and a POST body is never re-scanned
    as if it were headers)."""
    fd = to_signed(ctx.read_word(conn + CONN_FD))
    reqbuf = ctx.read_word(conn + CONN_REQBUF)
    reqlen = to_signed(ctx.read_word(conn + CONN_REQLEN))
    n = to_signed(ctx.libc("recv", fd, reqbuf + reqlen,
                           REQ_BUF_SIZE - reqlen, 0))
    if n == 0:
        return ctx.call("littled_connection_close", conn) and 0
    if n < 0:
        return 0
    reqlen += n
    ctx.write_word(conn + CONN_REQLEN, reqlen)
    served = 0
    while True:
        head_end = httputil.find_bytes(ctx, reqbuf, reqlen, b"\r\n\r\n")
        if head_end < 0:
            break                      # head still incomplete
        clen = httputil.header_value(ctx, reqbuf, reqlen, b"Content-Length")
        body_len = httputil.parse_decimal(ctx, clen) if clen else 0
        total = head_end + 4 + max(body_len, 0)
        if total > reqlen:
            break                      # body still in flight
        ctx.charge(70_000)             # fdevent + connection state machine
        # parse against exactly this request's bytes
        ctx.write_word(conn + CONN_REQLEN, total)
        status = to_signed(ctx.call("littled_http_request_parse", conn))
        ctx.call("littled_http_response_prepare", conn, status)
        ctx.call("littled_accesslog_write", conn)
        g = _globals(ctx)
        ctx.write_word(g + G_SERVED, ctx.read_word(g + G_SERVED) + 1)
        served += 1
        remaining = reqlen - total
        if remaining:
            tail = ctx.read(reqbuf + total, remaining)
            ctx.write(reqbuf, tail)
            ctx.charge(remaining)
        reqlen = remaining
        ctx.write_word(conn + CONN_REQLEN, reqlen)
        if not ctx.read_word(conn + CONN_KEEPALIVE):
            ctx.call("littled_connection_close", conn)
            return served
    return served


def littled_http_request_parse(ctx: GuestContext, conn: int) -> int:
    """Parse request line + headers, lighttpd-style (token buffers)."""
    reqbuf = ctx.read_word(conn + CONN_REQBUF)
    reqlen = to_signed(ctx.read_word(conn + CONN_REQLEN))
    line, _ = httputil.read_line(ctx, reqbuf, reqlen, 0)
    if line is None:
        return 400
    parts = line.split(b" ")
    ctx.charge(120_000 + len(line) * 8)  # lighttpd's request parse
    if len(parts) != 3 or parts[0] not in (b"GET", b"HEAD", b"POST"):
        return 400

    # copy the URI into its own buffer (buffer API churn)
    uri_offset = line.find(parts[1])
    old = ctx.read_word(conn + CONN_URIBUF)
    if old:
        ctx.call("littled_buffer_release", old)
    uri_buf = ctx.call("littled_buffer_copy_token",
                       reqbuf + uri_offset, len(parts[1]))
    ctx.write_word(conn + CONN_URIBUF, uri_buf)

    keepalive = 1
    connection = httputil.header_value(ctx, reqbuf, reqlen, b"Connection")
    if connection is not None and connection.lower() == b"close":
        keepalive = 0
    if ctx.read_word(_globals(ctx) + G_DRAIN):
        keepalive = 0                  # draining: answer, then close
    ctx.write_word(conn + CONN_KEEPALIVE, keepalive)

    # lighttpd tokenizes every common header into buffers
    for header in (b"Host", b"User-Agent", b"Accept", b"Connection",
                   b"Accept-Encoding", b"Accept-Language", b"Referer",
                   b"Cookie", b"If-Modified-Since"):
        value = httputil.header_value(ctx, reqbuf, reqlen, header)
        probe = ctx.stack_alloc(256)
        ctx.write_cstring(probe, (value or header)[:255])
        ctx.libc("strlen", probe)
        token = ctx.call("littled_buffer_copy_token", probe,
                         min(len(value or header), 255))
        ctx.libc("memcmp", token, probe, 4)
        ctx.call("littled_buffer_release", token)
    return 200


def littled_http_response_prepare(ctx: GuestContext, conn: int,
                                  status: int) -> int:
    """stat + open + read the file into a heap buffer, then write it out."""
    if status != 200:
        return ctx.call("littled_http_response_write", conn, status, 0, 0)

    uri_buf = ctx.read_word(conn + CONN_URIBUF)
    uri = ctx.read_cstring(uri_buf) if uri_buf else b"/"
    if uri == b"/":
        uri = b"/index.html"
    path = ctx.stack_alloc(512)
    ctx.write_cstring(path, b"/var/www" + uri[:255])
    ctx.libc("strlen", path)

    statbuf = ctx.stack_alloc(24)
    if to_signed(ctx.libc("stat", path, statbuf)) < 0:
        ctx.write_word(conn + CONN_STATUS, 404)
        return ctx.call("littled_http_response_write", conn, 404, 0, 0)

    file_fd = to_signed(ctx.libc("open", path, O_RDONLY))
    ctx.libc("fstat", file_fd, statbuf)
    size = to_signed(ctx.read_word(statbuf + 8))

    body = ctx.libc("malloc", max(size, 1))
    got = 0
    while got < size:
        n = to_signed(ctx.libc("read", file_fd, body + got, size - got))
        if n <= 0:
            break
        got += n
    ctx.libc("close", file_fd)
    ctx.write_word(conn + CONN_STATUS, 200)
    ctx.charge(110_000)                # etag/mime/stat-cache work
    result = ctx.call("littled_http_response_write", conn, 200, body, got)
    ctx.libc("free", body)
    return result


def littled_http_response_write(ctx: GuestContext, conn: int, status: int,
                                body: int, body_len: int) -> int:
    fd = to_signed(ctx.read_word(conn + CONN_FD))
    timep = ctx.stack_alloc(8)
    ctx.write_word(timep, ctx.libc("time", 0))
    tm_buf = ctx.stack_alloc(72)
    ctx.libc("localtime_r", timep, tm_buf)
    tm = TmStruct.unpack(ctx.read(tm_buf, 72))

    status_text = {200: b"200 OK", 404: b"404 Not Found"}.get(
        status, b"400 Bad Request")
    if status != 200:
        body_bytes = (b"<html><body><h1>" + status_text +
                      b"</h1></body></html>")
        body = ctx.libc("malloc", len(body_bytes) + 1)
        ctx.write_cstring(body, body_bytes)
        body_len = len(body_bytes)
        owns_body = True
    else:
        owns_body = False

    header = (b"HTTP/1.1 " + status_text + b"\r\n"
              b"Server: littled/1.4\r\n"
              b"Date: " + httputil.http_date(ctx, tm) + b"\r\n"
              b"Content-Length: " + httputil.itoa(body_len) + b"\r\n"
              b"Connection: " +
              (b"keep-alive" if ctx.read_word(conn + CONN_KEEPALIVE)
               else b"close") + b"\r\n\r\n")
    head_buf = ctx.libc("malloc", len(header) + 1)
    ctx.write(head_buf, header)
    ctx.libc("strlen", head_buf)

    iov = ctx.stack_alloc(32)
    ctx.write_words(iov, [head_buf, len(header), body, body_len])
    ctx.libc("writev", fd, iov, 2 if body_len else 1)
    ctx.libc("free", head_buf)
    ctx.charge(90_000)                 # response assembly
    if owns_body:
        ctx.libc("free", body)
    ctx.write_word(conn + CONN_STATUS, status)
    return status


def littled_accesslog_write(ctx: GuestContext, conn: int) -> int:
    g = _globals(ctx)
    log_fd = to_signed(ctx.read_word(g + G_LOG_FD))
    now = ctx.libc("time", 0)
    status = to_signed(ctx.read_word(conn + CONN_STATUS))
    line = b"littled [%d] %d\r\n" % (now, status)
    msg = ctx.stack_alloc(64)
    ctx.write(msg, line)
    ctx.libc("write", log_fd, msg, len(line))
    return 0


def littled_connection_close(ctx: GuestContext, conn: int) -> int:
    g = _globals(ctx)
    epfd = to_signed(ctx.read_word(g + G_EPFD))
    fd = to_signed(ctx.read_word(conn + CONN_FD))
    ctx.libc("epoll_ctl", epfd, EPOLL_CTL_DEL, fd, 0)
    ctx.libc("close", fd)
    uri_buf = ctx.read_word(conn + CONN_URIBUF)
    if uri_buf:
        ctx.libc("free", uri_buf)
    ctx.libc("free", ctx.read_word(conn + CONN_REQBUF))
    ctx.libc("free", conn)
    nconn = to_signed(ctx.read_word(g + G_NCONN)) - 1
    if nconn < 0:
        nconn = 0
    ctx.write_word(g + G_NCONN, nconn)
    if ctx.read_word(g + G_GATED) and not ctx.read_word(g + G_DRAIN):
        cap = to_signed(ctx.read_word(g + G_CONN_CAP))
        if not cap or nconn < cap:
            # back below the admission cap: resume accepting
            listen_fd = to_signed(ctx.read_word(g + G_LISTEN_FD))
            event = ctx.stack_alloc(16)
            ctx.write_words(event, [EPOLLIN, listen_fd])
            ctx.libc("epoll_ctl", epfd, EPOLL_CTL_ADD, listen_fd, event)
            ctx.write_word(g + G_GATED, 0)
    return 0


def littled_served_count(ctx: GuestContext) -> int:
    return ctx.read_word(_globals(ctx) + G_SERVED)


# ---------------------------------------------------------------------------
# image construction
# ---------------------------------------------------------------------------

_LIBC_IMPORTS = (
    "mvx_init", "mvx_start", "mvx_end",
    "open", "close", "read", "write", "writev", "stat", "fstat",
    "listen_on", "accept4", "recv", "send", "setsockopt",
    "epoll_create1", "epoll_ctl", "epoll_wait", "ioctl",
    "gettimeofday", "time", "localtime_r", "getpid",
    "malloc", "calloc", "realloc", "free",
    "memcpy", "memcmp", "memset", "strlen", "strcmp", "strncmp", "strchr",
    "atoi",
)

_FUNCTIONS = [
    ("littled_main", littled_main, 1, 6144,
     ("mvx_init", "open", "listen_on", "epoll_create1", "epoll_ctl")),
    ("littled_worker_main", littled_worker_main, 2, 4096,
     ("mvx_init", "open", "epoll_create1", "epoll_ctl")),
    ("littled_pump", littled_pump, 0, 1024,
     ("server_main_loop", "mvx_start", "mvx_end")),
    ("server_main_loop", server_main_loop, 0, 8192,
     ("epoll_wait", "littled_connection_accept",
      "littled_connection_handle")),
    ("littled_connection_accept", littled_connection_accept, 0, 4096,
     ("accept4", "setsockopt", "calloc", "malloc", "epoll_ctl")),
    ("littled_connection_handle", littled_connection_handle, 1, 6144,
     ("recv", "littled_http_request_parse", "littled_http_response_prepare",
      "littled_accesslog_write", "littled_connection_close")),
    ("littled_http_request_parse", littled_http_request_parse, 1, 10240,
     ("littled_buffer_copy_token", "littled_buffer_release")),
    ("littled_http_response_prepare", littled_http_response_prepare, 2,
     8192,
     ("stat", "open", "fstat", "read", "close", "malloc", "free",
      "strlen", "littled_http_response_write")),
    ("littled_http_response_write", littled_http_response_write, 4, 8192,
     ("time", "localtime_r", "malloc", "strlen", "writev", "free")),
    ("littled_buffer_copy_token", littled_buffer_copy_token, 2, 2048,
     ("malloc", "memcpy", "strlen")),
    ("littled_buffer_release", littled_buffer_release, 1, 1024, ("free",)),
    ("littled_accesslog_write", littled_accesslog_write, 1, 4096,
     ("time", "write")),
    ("littled_connection_close", littled_connection_close, 1, 2048,
     ("epoll_ctl", "close", "free")),
    ("littled_served_count", littled_served_count, 0, 1024, ()),
]


def build_littled_image() -> ProgramImage:
    builder = ImageBuilder("littled")
    builder.import_libc(*_LIBC_IMPORTS)
    for name, fn, arity, size, calls in _FUNCTIONS:
        builder.add_hl_function(name, fn, arity, size=size, calls=calls)
    builder.add_rodata("littled_version", b"littled/1.4\x00")
    for name in PROTECTABLE:
        builder.add_rodata(f"lname_{name}", name.encode() + b"\x00")
    builder.add_data("littled_config",
                     b"server.document-root=/var/www;" + b"\x00" * 34)
    builder.add_pointer_table("littled_plugin_handlers", [
        "littled_http_request_parse",
        "littled_http_response_prepare",
        "littled_accesslog_write",
    ])
    builder.add_bss("littled_globals", 256)
    builder.add_bss("littled_static_arena", 64 * 1024)
    return builder.build()


class LittledWorker:
    """One pre-forked worker: its own process, images, epoll set, and —
    when sMVX is on — its own in-process monitor.  All workers share the
    master's listener and one :class:`~repro.core.divergence.AlarmLog`."""

    def __init__(self, server: "LittledServer", index: int, core: int,
                 generation: int = 0):
        from repro.core import attach_smvx, build_smvx_stub_image
        from repro.libc import build_libc_image

        config = server._config
        self.server = server
        self.index = index
        self.core = core
        #: restart/reload generation (0 = original pre-forked worker)
        self.generation = generation
        name = f"{server.name}-w{index}" + \
            (f"g{generation}" if generation else "")
        self.process = GuestProcess(
            server.kernel, name,
            heap_pages=config["heap_pages"],
            parent_pid=server.master_pid)
        # bind the worker's cycle counter to its virtual core *before*
        # anything charges, so boot work lands on core-local time
        server.sched.bind_core(self.process.counter, core)
        self.process.load_image(build_libc_image(), tag="libc")
        self.process.load_image(build_smvx_stub_image(), tag="libsmvx")
        self.image = build_littled_image()
        self.loaded = self.process.load_image(self.image, main=True)
        self.process.app_config = {"protect": config["protect"],
                                   "conn_cap": config.get("conn_cap", 0)}
        self.monitor = None
        if config["smvx"]:
            self.monitor = attach_smvx(
                self.process, self.loaded, alarm_log=server.alarms,
                reuse_variants=config["reuse_variants"],
                variant_strategy=config["variant_strategy"],
                strict_verify=config["strict_verify"],
                auto_scope=config.get("auto_scope", False))
        #: the scheduler task driving this worker (set by ``start()``).
        self.task = None

    def run_loop(self) -> None:
        """Task body: serve until cancelled or drained.  ``littled_pump``
        blocks in ``epoll_wait`` between events; on cancellation the park
        reports "nothing ready", ``epoll_wait`` returns 0, the guest
        unwinds normally (closing any open sMVX region in lockstep), and
        the loop exits here.  A draining worker (graceful reload) exits
        once its last connection closes."""
        try:
            while not self.task.cancelled:
                self.process.call_function("littled_pump")
                if self.draining and self.active_connections <= 0:
                    break
        finally:
            # process exit: the kernel sweeps whatever fds are still
            # open — a crashed worker's connections FIN their clients,
            # and the shared listener drops one reference
            self.server.kernel.release_process_fds(self.process.pid)

    # -- control-plane surface (privileged peeks: no guest execution, so
    # they are safe from the supervisor task and under the recorder) ----------

    @property
    def globals_addr(self) -> int:
        return self.loaded.symbol_address("littled_globals")

    def request_drain(self) -> None:
        """Flag the guest to stop accepting and exit once idle.  Written
        with a privileged (kernel-mode) store, exactly like a real master
        signalling a worker.  Under sMVX every follower keeps its own
        copy of ``littled_globals``; the store is mirrored into each so
        leader and variant take the drain branch in lockstep."""
        self.process.space.write_word(self.globals_addr + G_DRAIN, 1,
                                      privileged=True)
        if self.monitor is not None:
            self.monitor.broadcast_privileged_word(
                "littled_globals", G_DRAIN, 1)

    @property
    def draining(self) -> bool:
        return bool(self.process.space.read_word(
            self.globals_addr + G_DRAIN, privileged=True))

    @property
    def active_connections(self) -> int:
        return to_signed(self.process.space.read_word(
            self.globals_addr + G_NCONN, privileged=True))

    @property
    def served_snapshot(self) -> int:
        """G_SERVED via a privileged read — unlike :attr:`served` this
        runs no guest code, so metrics sampling never perturbs the
        recorded execution."""
        return self.process.space.read_word(
            self.globals_addr + G_SERVED, privileged=True)

    @property
    def served(self) -> int:
        return self.process.call_function("littled_served_count")


class LittledServer:
    """Host-side harness for littled.

    ``workers=0`` (default) is the classic single-process co-simulated
    server driven by ``pump()``.  ``workers=N`` builds the pre-forked
    serving mode: N worker processes sharing one listener, scheduled
    preemptively by :class:`repro.kernel.sched.Scheduler` — the harness
    never calls ``pump()``; it runs the scheduler until its workload
    predicate holds.
    """

    def __init__(self, kernel: Kernel, port: int = 8081,
                 protect: Optional[str] = None, smvx: bool = False,
                 heap_pages: int = 192,
                 name: str = "littled", reuse_variants: bool = False,
                 variant_strategy: str = "shift",
                 strict_verify: bool = False,
                 auto_scope: bool = False,
                 workers: int = 0, cores: Optional[int] = None,
                 quantum_ns: Optional[float] = None,
                 conn_cap: int = 0):
        from repro.core import AlarmLog, attach_smvx, build_smvx_stub_image
        from repro.libc import build_libc_image

        self.kernel = kernel
        self.port = port
        self.name = name
        if not kernel.vfs.exists("/var/www/index.html"):
            kernel.vfs.write_file("/var/www/index.html",
                                  b"<html>" + b"x" * 4083 + b"</html>")
        self.alarms = AlarmLog()
        self.workers_n = max(0, workers)
        self._config = {
            "protect": protect, "smvx": smvx, "heap_pages": heap_pages,
            "reuse_variants": reuse_variants,
            "variant_strategy": variant_strategy,
            "strict_verify": strict_verify,
            "auto_scope": auto_scope,
            "conn_cap": max(0, conn_cap),
        }
        #: retired workers (drained generations, crashed processes kept
        #: for post-mortem accounting), the attached control plane and
        #: its chaos worker-kill tasks
        self.retired: list = []
        self.supervisor = None
        self.chaos_kills: tuple = ()

        if self.workers_n:
            from repro.kernel.sched import DEFAULT_QUANTUM_NS, Scheduler
            self.sched = kernel.sched or Scheduler(
                kernel, cores=cores or self.workers_n,
                quantum_ns=quantum_ns if quantum_ns is not None
                else DEFAULT_QUANTUM_NS)
            self.master_pid = kernel.tasks.spawn(f"{name}-master")
            self.workers = [
                LittledWorker(self, index, index % len(self.sched.cores))
                for index in range(self.workers_n)]
            first = self.workers[0]
            self.process = first.process        # compat: "the" process
            self.image = first.image
            self.loaded = first.loaded
            self.monitor = first.monitor
            return

        self.sched = None
        self.master_pid = None
        self.workers = []
        self.process = GuestProcess(kernel, name, heap_pages=heap_pages)
        self.process.load_image(build_libc_image(), tag="libc")
        self.process.load_image(build_smvx_stub_image(), tag="libsmvx")
        self.image = build_littled_image()
        self.loaded = self.process.load_image(self.image, main=True)
        self.process.app_config = {"protect": protect}
        self.monitor = None
        if smvx:
            self.monitor = attach_smvx(self.process, self.loaded,
                                       alarm_log=self.alarms,
                                       reuse_variants=reuse_variants,
                                       variant_strategy=variant_strategy,
                                       strict_verify=strict_verify,
                                       auto_scope=auto_scope)

    def boot_worker(self, worker: LittledWorker) -> int:
        """Fork-style bring-up for a (re)spawned worker: the shared
        Listener lands in the worker's own fd table, the worker pays the
        Table-2 fork cost on its core, then re-initializes.  Used by
        ``start()`` for workers past the first and by the control plane
        for restarts/reloads."""
        from repro.kernel.fds import ListenerFD

        listener = self.kernel.network.listener_at(self.port)
        pcb = self.kernel.state_of(worker.process.pid)
        fd = pcb.alloc_fd(ListenerFD(listener))
        pages = worker.process.space.resident_bytes() // 4096
        worker.process.counter.charge(
            self.kernel.tasks.fork_cost_ns(pages), "fork")
        return to_signed(worker.process.call_function(
            "littled_worker_main", self.port, fd))

    def spawn_worker_task(self, worker: LittledWorker) -> None:
        worker.task = self.sched.spawn(
            worker.process.name, worker.run_loop,
            core=worker.core, pid=worker.process.pid)

    def start(self) -> int:
        if not self.workers_n:
            return self.process.call_function("littled_main", self.port)

        first = self.workers[0]
        rc = to_signed(first.process.call_function("littled_main",
                                                   self.port))
        if rc < 0:
            return rc
        for worker in self.workers[1:]:
            rc_worker = self.boot_worker(worker)
            if rc_worker < 0:
                return rc_worker
        for worker in self.workers:
            self.spawn_worker_task(worker)
        return rc

    def pump(self) -> int:
        if self.workers_n:
            raise RuntimeError(
                "a scheduled multi-worker littled has no pump(): drive "
                "it through kernel.sched.run_until(...)")
        return to_signed(self.process.call_function("littled_pump"))

    def shutdown(self) -> None:
        """Cancel the worker tasks, let them unwind (regions close, fds
        drop), then reap every zombie so the task table ends clean."""
        if not self.workers_n:
            return
        # a chaos kill still parked before its instant must not fire
        # into the shutdown, nor stay parked on its host thread
        pending = [task for task in self.chaos_kills if not task.done]
        for task in pending:
            self.sched.cancel(task)
        if pending:
            self.sched.run_until(tasks=pending)
        if self.supervisor is not None:
            # the supervisor must stand down first, or it would read the
            # shutdown cancellations as crashes and restart the fleet
            self.supervisor.stop()
        live = [w.task for w in self.workers + self.retired
                if w.task is not None]
        for task in live:
            self.sched.cancel(task)
        if live:
            self.sched.run_until(tasks=live)
        self.sched.join()
        while self.kernel.tasks.wait(self.master_pid) is not None:
            pass

    @property
    def served(self) -> int:
        if self.workers_n:
            # retired workers (drained generations, crashed processes)
            # still count what they served; their processes have exited,
            # so read the counter with a privileged peek, not guest code
            return (sum(w.served for w in self.workers)
                    + sum(w.served_snapshot for w in self.retired))
        return self.process.call_function("littled_served_count")
