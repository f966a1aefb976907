"""minx — the Nginx stand-in (guest application).

An epoll-driven static web server whose structure mirrors the Nginx
request path the paper instruments:

* ``minx_process_events_and_timers`` — the event loop body (one *pump*);
* ``minx_event_accept`` — accept + connection setup (``accept4``,
  ``setsockopt``, ``ioctl``, connection struct on the heap, the conn
  pointer stored in ``epoll_data`` — the union case of §3.3);
* ``minx_http_wait_request_handler`` — reads the request head;
* ``minx_http_process_request_line`` — **the outermost tainted function**
  (the paper's ``ngx_http_process_request_line``, 60.8% of cycles) whose
  call-graph subtree contains every other tainted function;
* ``minx_http_read_discarded_request_body`` — carries the CVE-2013-2028
  bug: a chunk size parsed as unsigned, compared as *signed*, and handed
  to ``recv`` where it becomes a huge ``size_t`` — an out-of-bounds write
  into a 4 KiB stack buffer;
* ``minx_ctx_restore`` — a real-ISA register-restore helper whose
  epilogues double as the ROP gadget pool the §4.2 exploit harvests.

Protection is chosen per-process via ``process.app_config["protect"]`` —
the name of the root function to wrap in ``mvx_start``/``mvx_end`` (the
three-line annotation of Listing 1).  The Figure 8 sweep varies this root.
"""

from __future__ import annotations

from typing import Optional

from repro.apps import httputil
from repro.kernel.clock import TmStruct
from repro.kernel.epoll_impl import EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLLIN
from repro.kernel.kernel import Kernel
from repro.kernel.vfs import O_APPEND, O_CREAT, O_RDONLY, O_WRONLY
from repro.loader.image import ImageBuilder, ProgramImage
from repro.machine.asm import Assembler
from repro.process.context import GuestContext, to_signed
from repro.process.process import GuestProcess

_MASK64 = (1 << 64) - 1

REQ_BUF_SIZE = 2048
DISCARD_BUFFER_SIZE = 4096          # NGX_HTTP_DISCARD_BUFFER_SIZE

# connection struct field offsets (heap-resident, pointer-bearing)
CONN_FD = 0
CONN_BUF = 8                        # heap pointer -> request buffer
CONN_BUF_LEN = 16
CONN_METHOD = 24
CONN_URI_OFF = 32
CONN_URI_LEN = 40
CONN_HEADERS_END = 48
CONN_CONTENT_LEN = 56               # raw u64, *interpreted* as signed
CONN_CHUNKED = 64
CONN_KEEPALIVE = 72
CONN_STATUS = 80
CONN_SIZE = 128

METHOD_GET = 1
METHOD_POST = 2
METHOD_HEAD = 3
METHOD_BAD = 0

# global state offsets inside the `minx_globals` .bss object
G_LISTEN_FD = 0
G_EPFD = 8
G_LOG_FD = 16
G_SERVED = 24
G_ACTIVE_CONNS = 32

#: functions the Figure 8 sweep may choose as the protected root, from the
#: whole event loop down to tainted leaves.
PROTECTABLE = (
    "minx_process_events_and_timers",
    "minx_http_wait_request_handler",
    "minx_http_process_request_line",
    "minx_http_process_request_headers",
    "minx_http_handler",
    "minx_http_header_filter",
    "minx_http_log_access",
    "minx_http_finalize_request",
)

#: the taint-analysis ground truth used by Figure 9 / the CPU experiment.
TAINTED_FUNCTIONS = (
    "minx_http_process_request_line",
    "minx_http_process_request_headers",
    "minx_http_handler",
    "minx_http_header_filter",
    "minx_http_read_discarded_request_body",
    "minx_http_parse_chunked",
    "minx_http_static_handler",
)


def _globals(ctx: GuestContext) -> int:
    return ctx.symbol("minx_globals")


def _maybe_protect(ctx: GuestContext, name: str, *args: int) -> int:
    """Listing 1 in helper form: wrap the call in mvx_start/mvx_end when
    the annotation chose this function as the protected root."""
    config = getattr(ctx.process, "app_config", None) or {}
    if config.get("protect") == name:
        name_ptr = ctx.symbol(f"fname_{name}")
        ctx.libc("mvx_start", name_ptr, len(args), *args)
        try:
            result = ctx.call(name, *args)
        finally:
            ctx.libc("mvx_end")
        return result
    return ctx.call(name, *args)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def minx_main(ctx: GuestContext, port: int) -> int:
    """Worker initialization: mvx_init, log, listener, epoll."""
    ctx.libc("mvx_init")
    g = _globals(ctx)

    path = ctx.stack_alloc(32)
    ctx.write_cstring(path, b"/var/log/minx.log")
    log_fd = to_signed(ctx.libc("open", path, O_WRONLY | O_CREAT | O_APPEND))
    ctx.write_word(g + G_LOG_FD, log_fd & _MASK64)

    listen_fd = to_signed(ctx.libc("listen_on", port, 128))
    if listen_fd < 0:
        return -1
    ctx.write_word(g + G_LISTEN_FD, listen_fd)

    epfd = to_signed(ctx.libc("epoll_create1", 0))
    ctx.write_word(g + G_EPFD, epfd)

    event = ctx.stack_alloc(16)
    ctx.write_words(event, [EPOLLIN, listen_fd])
    ctx.libc("epoll_ctl", epfd, EPOLL_CTL_ADD, listen_fd, event)

    # warm-up allocation, like nginx's cycle pool
    pool = ctx.libc("malloc", 2048)
    ctx.write_word(g + G_ACTIVE_CONNS, 0)
    ctx.libc("free", pool)
    return 0


# ---------------------------------------------------------------------------
# the event loop
# ---------------------------------------------------------------------------

def minx_pump(ctx: GuestContext) -> int:
    """One scheduling quantum: run the (possibly protected) event loop."""
    return _maybe_protect(ctx, "minx_process_events_and_timers")


def minx_process_events_and_timers(ctx: GuestContext) -> int:
    """Process every ready event; returns the number of requests served."""
    g = _globals(ctx)
    epfd = to_signed(ctx.read_word(g + G_EPFD))
    listen_fd = to_signed(ctx.read_word(g + G_LISTEN_FD))
    served = 0
    # one events array for the loop's lifetime — allocating per wake
    # would leak stack on every iteration of a long-lived event loop
    events = ctx.stack_alloc(16 * 16)
    while True:
        n = to_signed(ctx.libc("epoll_wait", epfd, events, 16, -1))
        if n <= 0:
            break
        ctx.charge(4000)                       # timer wheel, event prep
        # ngx_time_update(): the event loop refreshes cached time each
        # iteration (libc traffic *outside* the request-line subtree)
        tv = ctx.stack_alloc(16)
        ctx.libc("gettimeofday", tv, 0)
        ctx.libc("time", 0)
        for index in range(n):
            flags = ctx.read_word(events + 16 * index)
            data = ctx.read_word(events + 16 * index + 8)
            ctx.charge(8000)                   # per-event dispatch work
            if data == listen_fd:
                ctx.call("minx_event_accept")
            else:
                served += to_signed(_maybe_protect(
                    ctx, "minx_http_wait_request_handler", data))
    return served


def minx_event_accept(ctx: GuestContext) -> int:
    g = _globals(ctx)
    epfd = to_signed(ctx.read_word(g + G_EPFD))
    listen_fd = to_signed(ctx.read_word(g + G_LISTEN_FD))
    fd = to_signed(ctx.libc("accept4", listen_fd, 0))
    if fd < 0:
        return -1

    one = ctx.stack_alloc(8)
    ctx.write_word(one, 1)
    ctx.libc("setsockopt", fd, 6, 1, one, 8)       # TCP_NODELAY
    ctx.libc("ioctl", fd, Kernel.FIONBIO, one)     # non-blocking

    conn = ctx.libc("malloc", CONN_SIZE)
    buf = ctx.libc("malloc", REQ_BUF_SIZE)
    ctx.write_words(conn, [fd, buf, 0, 0, 0, 0, 0, 0, 0, 0, 0])

    event = ctx.stack_alloc(16)
    # epoll_data carries the connection POINTER — the union case that
    # forces sMVX's special epoll emulation (paper §3.3)
    ctx.write_words(event, [EPOLLIN, conn])
    ctx.libc("epoll_ctl", epfd, EPOLL_CTL_ADD, fd, event)
    ctx.write_word(g + G_ACTIVE_CONNS,
                   ctx.read_word(g + G_ACTIVE_CONNS) + 1)
    return fd


# ---------------------------------------------------------------------------
# request handling
# ---------------------------------------------------------------------------

def minx_http_wait_request_handler(ctx: GuestContext, conn: int) -> int:
    """Read from the socket; serve every complete buffered request.

    Pipelining-correct: each pass consumes exactly one request — head
    plus ``Content-Length`` body — and carries the remainder over to the
    next pass, instead of letting ``finalize_request``'s buffer reset
    throw away pipelined follow-up requests.  A chunked request still
    consumes the whole buffer: its body is drained (and discarded)
    straight off the socket by the CVE-2013-2028 discard path.

    Returns the number of requests fully served (0 if more data needed).
    """
    fd = to_signed(ctx.read_word(conn + CONN_FD))
    buf = ctx.read_word(conn + CONN_BUF)
    buf_len = to_signed(ctx.read_word(conn + CONN_BUF_LEN))

    n = to_signed(ctx.libc("recv", fd, buf + buf_len,
                           REQ_BUF_SIZE - buf_len, 0))
    if n == 0:
        ctx.call("minx_http_close_connection", conn)
        return 0
    if n < 0:
        return 0
    buf_len += n
    ctx.write_word(conn + CONN_BUF_LEN, buf_len)

    served = 0
    while True:
        headers_end = httputil.find_bytes(ctx, buf, buf_len, b"\r\n\r\n")
        if headers_end < 0:
            break                      # need more data
        ctx.write_word(conn + CONN_HEADERS_END, headers_end + 4)
        ctx.charge(48_000)             # connection/request pool setup

        _maybe_protect(ctx, "minx_http_process_request_line", conn)

        # measure this request's footprint *before* finalize wipes the
        # connection state for keep-alive reuse
        chunked = ctx.read_word(conn + CONN_CHUNKED)
        clen = to_signed(ctx.read_word(conn + CONN_CONTENT_LEN))
        cur_len = to_signed(ctx.read_word(conn + CONN_BUF_LEN))
        if chunked:
            consumed = cur_len
        else:
            consumed = min(cur_len, headers_end + 4 + max(clen, 0))
        keep = ctx.read_word(conn + CONN_KEEPALIVE)
        remainder = ctx.read(buf + consumed, max(cur_len - consumed, 0)) \
            if keep else b""

        _maybe_protect(ctx, "minx_http_finalize_request", conn)
        served += 1
        if not keep:
            return served              # finalize closed the connection
        if remainder:
            ctx.write(buf, remainder)
            ctx.charge(len(remainder))
        buf_len = len(remainder)
        ctx.write_word(conn + CONN_BUF_LEN, buf_len)
        if not buf_len:
            break
    return served


def minx_http_process_request_line(ctx: GuestContext, conn: int) -> int:
    """Parse the request line (the paper's outermost tainted function)."""
    buf = ctx.read_word(conn + CONN_BUF)
    buf_len = to_signed(ctx.read_word(conn + CONN_BUF_LEN))
    line, _next = httputil.read_line(ctx, buf, buf_len, 0)
    if line is None:
        ctx.write_word(conn + CONN_METHOD, METHOD_BAD)
        return 0

    parts = line.split(b" ")
    method = METHOD_BAD
    probe = ctx.stack_alloc(16)
    ctx.write_cstring(probe, parts[0][:15] if parts else b"")
    for candidate, code in ((b"GET", METHOD_GET), (b"POST", METHOD_POST),
                            (b"HEAD", METHOD_HEAD)):
        table = ctx.stack_alloc(8)
        ctx.write_cstring(table, candidate)
        if len(parts) == 3 and ctx.libc("strcmp", probe, table) == 0:
            method = code
    ctx.libc("strlen", probe)
    ctx.charge(42_000 + len(line) * 8)  # state-machine parse
    ctx.write_word(conn + CONN_METHOD, method)
    if method != METHOD_BAD:
        uri = parts[1][:255]
        uri_off = line.find(parts[1])
        ctx.write_word(conn + CONN_URI_OFF, uri_off)
        ctx.write_word(conn + CONN_URI_LEN, len(uri))
    return _maybe_protect(ctx, "minx_http_process_request_headers", conn)


def minx_http_process_request_headers(ctx: GuestContext, conn: int) -> int:
    buf = ctx.read_word(conn + CONN_BUF)
    head_len = to_signed(ctx.read_word(conn + CONN_HEADERS_END))

    chunked = 0
    te = httputil.header_value(ctx, buf, head_len, b"Transfer-Encoding")
    if te is not None and te.lower() == b"chunked":
        chunked = 1
    ctx.write_word(conn + CONN_CHUNKED, chunked)

    clen = httputil.header_value(ctx, buf, head_len, b"Content-Length")
    if clen is not None:
        ctx.write_word(conn + CONN_CONTENT_LEN,
                       httputil.parse_decimal(ctx, clen) & _MASK64)

    keepalive = 1
    connection = httputil.header_value(ctx, buf, head_len, b"Connection")
    if connection is not None and connection.lower() == b"close":
        keepalive = 0
    ctx.write_word(conn + CONN_KEEPALIVE, keepalive)

    # per-header tokenization, nginx-style: locate the colon, copy the
    # value, measure it (three libc calls per header line, no syscalls)
    scratch = ctx.stack_alloc(256)
    cursor = 0
    data = ctx.read(buf, head_len)
    for raw_line in data.split(b"\r\n")[1:]:
        if not raw_line:
            continue
        line_buf = ctx.stack_alloc(128)
        ctx.write_cstring(line_buf, raw_line[:120])
        colon = ctx.libc("strchr", line_buf, ord(":"))
        if colon:
            # name lookup: strncmp chain over the known-header table,
            # then copy + measure the value (all user-space libc work)
            name_len = colon - line_buf
            for known in (b"Host", b"Connection", b"Content-Length",
                          b"Transfer-Encoding", b"Authorization"):
                known_buf = ctx.stack_alloc(24)
                ctx.write_cstring(known_buf, known)
                if ctx.libc("strncmp", line_buf, known_buf,
                            max(name_len, len(known))) == 0:
                    break
            length = ctx.libc("strlen", colon + 1)
            ctx.libc("memcpy", scratch, colon + 1, min(length, 200))
        cursor += 1
    ctx.charge(55_000)                 # per-header hash/validate passes

    return _maybe_protect(ctx, "minx_http_handler", conn)


def minx_http_handler(ctx: GuestContext, conn: int) -> int:
    """Dispatch: auth-gate /admin, discard any chunked body, then serve
    statically."""
    method = to_signed(ctx.read_word(conn + CONN_METHOD))
    if method == METHOD_BAD:
        ctx.write_word(conn + CONN_STATUS, 400)
        return ctx.call("minx_http_special_response", conn, 400)
    buf = ctx.read_word(conn + CONN_BUF)
    uri_off = to_signed(ctx.read_word(conn + CONN_URI_OFF))
    uri_len = to_signed(ctx.read_word(conn + CONN_URI_LEN))
    uri = ctx.read(buf + uri_off, uri_len) if uri_len else b"/"
    if uri.startswith(b"/admin"):
        return ctx.call("minx_http_auth_basic", conn)
    if ctx.read_word(conn + CONN_CHUNKED):
        ctx.call("minx_http_read_discarded_request_body", conn)
    return ctx.call("minx_http_static_handler", conn)


def minx_http_auth_basic(ctx: GuestContext, conn: int) -> int:
    """Credential check for /admin (the auth-diff discovery target).

    Returns 1 on success, 0 otherwise; success and failure take different
    call paths, so the §3.2 trace diff pinpoints this function."""
    buf = ctx.read_word(conn + CONN_BUF)
    head_len = to_signed(ctx.read_word(conn + CONN_HEADERS_END))
    supplied = httputil.header_value(ctx, buf, head_len, b"Authorization")
    authorized = False
    if supplied is not None:
        probe = ctx.stack_alloc(128)
        ctx.write_cstring(probe, supplied[:120])
        credential = ctx.symbol("admin_credential")
        authorized = ctx.libc("strcmp", probe, credential) == 0
    if authorized:
        return ctx.call("minx_http_admin_page", conn)
    ctx.write_word(conn + CONN_STATUS, 403)
    return ctx.call("minx_http_special_response", conn, 403)


def minx_http_admin_page(ctx: GuestContext, conn: int) -> int:
    body = ctx.symbol("admin_page")
    body_len = ctx.libc("strlen", body)
    ctx.write_word(conn + CONN_STATUS, 200)
    ctx.call("minx_http_header_filter", conn, 200, body_len)
    fd = to_signed(ctx.read_word(conn + CONN_FD))
    ctx.libc("send", fd, body, body_len, 0)
    return 200


def minx_http_parse_chunked(ctx: GuestContext, conn: int) -> int:
    """Parse the chunk-size line following the headers.

    Returns the *raw unsigned* size; the CVE ingredient is that callers
    treat it as signed (``off_t content_length_n`` in real Nginx).
    """
    buf = ctx.read_word(conn + CONN_BUF)
    buf_len = to_signed(ctx.read_word(conn + CONN_BUF_LEN))
    body_off = to_signed(ctx.read_word(conn + CONN_HEADERS_END))
    line, _next = httputil.read_line(ctx, buf, buf_len, body_off)
    if line is None:
        return 0
    size = httputil.parse_hex(ctx, line.strip())
    ctx.write_word(conn + CONN_CONTENT_LEN, size)
    return size


def minx_http_read_discarded_request_body(ctx: GuestContext,
                                          conn: int) -> int:
    """Discard a chunked request body — CVE-2013-2028 lives here.

    A 4 KiB buffer on the stack receives body bytes.  The chunk size is
    attacker-controlled; a value >= 2**63 is negative as a signed 64-bit
    quantity, survives the *signed* min() against the buffer size, and
    reaches ``recv`` where it is reinterpreted as a huge unsigned count —
    recv then writes past the buffer, over this frame's return address.
    """
    fd = to_signed(ctx.read_word(conn + CONN_FD))
    buffer = ctx.stack_alloc(DISCARD_BUFFER_SIZE)

    ctx.call("minx_http_parse_chunked", conn)
    remaining = to_signed(ctx.read_word(conn + CONN_CONTENT_LEN))

    while remaining != 0:
        # BUG (faithful): signed comparison lets a negative size through
        to_read = remaining if remaining < DISCARD_BUFFER_SIZE \
            else DISCARD_BUFFER_SIZE
        n = to_signed(ctx.libc("recv", fd, buffer, to_read & _MASK64, 0))
        if n <= 0:
            break
        remaining -= n
    ctx.write_word(conn + CONN_CONTENT_LEN, 0)
    return 0


def minx_http_static_handler(ctx: GuestContext, conn: int) -> int:
    buf = ctx.read_word(conn + CONN_BUF)
    uri_off = to_signed(ctx.read_word(conn + CONN_URI_OFF))
    uri_len = to_signed(ctx.read_word(conn + CONN_URI_LEN))
    uri = ctx.read(buf + uri_off, uri_len) if uri_len else b"/"
    if uri == b"/" or not uri:
        uri = b"/index.html"

    path = ctx.stack_alloc(512)
    webroot = ctx.symbol("minx_webroot")
    root_len = ctx.libc("strlen", webroot)
    ctx.libc("memcpy", path, webroot, root_len)
    uri_scratch = ctx.stack_alloc(256)
    ctx.write_cstring(uri_scratch, uri[:255])
    uri_n = ctx.libc("strlen", uri_scratch)
    ctx.libc("memcpy", path + root_len, uri_scratch, uri_n + 1)

    statbuf = ctx.stack_alloc(24)
    if to_signed(ctx.libc("stat", path, statbuf)) < 0:
        ctx.write_word(conn + CONN_STATUS, 404)
        return ctx.call("minx_http_special_response", conn, 404)

    file_fd = to_signed(ctx.libc("open", path, O_RDONLY))
    if file_fd < 0:
        ctx.write_word(conn + CONN_STATUS, 404)
        return ctx.call("minx_http_special_response", conn, 404)
    ctx.libc("fstat", file_fd, statbuf)
    size = ctx.read_word(statbuf + 8)
    mtime = ctx.read_word(statbuf + 16)

    # conditional GET: a matching If-None-Match short-circuits to 304
    etag = b'"%x-%x"' % (size, mtime)
    head_len = to_signed(ctx.read_word(conn + CONN_HEADERS_END))
    supplied = httputil.header_value(ctx, buf, head_len, b"If-None-Match")
    if supplied is not None:
        probe = ctx.stack_alloc(64)
        tag_buf = ctx.stack_alloc(64)
        ctx.write_cstring(probe, supplied[:60])
        ctx.write_cstring(tag_buf, etag)
        if ctx.libc("strcmp", probe, tag_buf) == 0:
            ctx.libc("close", file_fd)
            ctx.write_word(conn + CONN_STATUS, 304)
            return ctx.call("minx_http_not_modified", conn)
    ctx.write_word(conn + CONN_STATUS, 200)
    ctx.charge(50_000)                 # mime lookup, cache consult

    _maybe_protect(ctx, "minx_http_header_filter", conn, 200, size)

    fd = to_signed(ctx.read_word(conn + CONN_FD))
    method = to_signed(ctx.read_word(conn + CONN_METHOD))
    if method != METHOD_HEAD:
        offset = ctx.stack_alloc(8)
        ctx.write_word(offset, 0)
        ctx.libc("sendfile", fd, file_fd, offset, size)
    ctx.libc("close", file_fd)
    return 200


def minx_http_header_filter(ctx: GuestContext, conn: int, status: int,
                            length: int) -> int:
    """Build and send the response headers (writev of two iovecs)."""
    fd = to_signed(ctx.read_word(conn + CONN_FD))

    tv = ctx.stack_alloc(16)
    ctx.libc("gettimeofday", tv, 0)
    timep = ctx.stack_alloc(8)
    ctx.write_word(timep, ctx.read_word(tv))
    tm_buf = ctx.stack_alloc(72)
    ctx.libc("localtime_r", timep, tm_buf)
    tm = TmStruct.unpack(ctx.read(tm_buf, 72))

    status_text = {200: b"200 OK", 404: b"404 Not Found",
                   403: b"403 Forbidden",
                   304: b"304 Not Modified"}.get(status,
                                                 b"400 Bad Request")
    status_line = b"HTTP/1.1 " + status_text + b"\r\n"
    headers = (b"Server: minx/1.3.9\r\n"
               b"Date: " + httputil.http_date(ctx, tm) + b"\r\n"
               b"Content-Type: text/html\r\n"
               b"Content-Length: " + httputil.itoa(length) + b"\r\n"
               b"Connection: " +
               (b"keep-alive" if ctx.read_word(conn + CONN_KEEPALIVE)
                else b"close") + b"\r\n\r\n")

    head_buf = ctx.libc("malloc", len(status_line) + len(headers) + 16)
    ctx.write(head_buf, status_line + headers)
    ctx.charge(len(headers) // 4)

    iov = ctx.stack_alloc(32)
    ctx.write_words(iov, [head_buf, len(status_line),
                          head_buf + len(status_line), len(headers)])
    ctx.libc("writev", fd, iov, 2)
    ctx.libc("free", head_buf)
    ctx.charge(40_000)                 # header serialization
    return 0


def minx_http_not_modified(ctx: GuestContext, conn: int) -> int:
    """304 Not Modified: headers only, no body (RFC 7232 semantics)."""
    return ctx.call("minx_http_header_filter", conn, 304, 0)


def minx_http_special_response(ctx: GuestContext, conn: int,
                               status: int) -> int:
    body = ctx.symbol("err_404_page" if status == 404 else "err_400_page")
    body_len = ctx.libc("strlen", body)
    ctx.call("minx_http_header_filter", conn, status, body_len)
    fd = to_signed(ctx.read_word(conn + CONN_FD))
    method = to_signed(ctx.read_word(conn + CONN_METHOD))
    if method != METHOD_HEAD:
        ctx.libc("send", fd, body, body_len, 0)
    return status


def minx_http_log_access(ctx: GuestContext, conn: int) -> int:
    g = _globals(ctx)
    log_fd = to_signed(ctx.read_word(g + G_LOG_FD))
    timep = ctx.stack_alloc(8)
    now = ctx.libc("time", 0)
    ctx.write_word(timep, now)
    tm_buf = ctx.stack_alloc(72)
    ctx.libc("localtime_r", timep, tm_buf)
    status = to_signed(ctx.read_word(conn + CONN_STATUS))
    line = b"- [%d] \"request\" %d\r\n" % (now, status)
    msg = ctx.stack_alloc(64)
    ctx.write(msg, line)
    staging = ctx.stack_alloc(64)
    ctx.libc("memcpy", staging, msg, len(line))
    ctx.libc("strlen", staging)
    ctx.libc("write", log_fd, staging, len(line))
    ctx.charge(28_000)                 # log formatting
    return 0


def minx_http_finalize_request(ctx: GuestContext, conn: int) -> int:
    g = _globals(ctx)
    _maybe_protect(ctx, "minx_http_log_access", conn)
    ctx.write_word(g + G_SERVED, ctx.read_word(g + G_SERVED) + 1)
    # reset the buffer for keep-alive reuse
    buf = ctx.read_word(conn + CONN_BUF)
    ctx.libc("memset", buf, 0, 64)
    ctx.libc("time", 0)                # refresh the keep-alive timer
    ctx.write_word(conn + CONN_BUF_LEN, 0)
    ctx.write_word(conn + CONN_CHUNKED, 0)
    ctx.write_word(conn + CONN_CONTENT_LEN, 0)
    if not ctx.read_word(conn + CONN_KEEPALIVE):
        ctx.call("minx_http_close_connection", conn)
    return 0


def minx_http_close_connection(ctx: GuestContext, conn: int) -> int:
    g = _globals(ctx)
    epfd = to_signed(ctx.read_word(g + G_EPFD))
    fd = to_signed(ctx.read_word(conn + CONN_FD))
    ctx.libc("epoll_ctl", epfd, EPOLL_CTL_DEL, fd, 0)
    ctx.libc("close", fd)
    ctx.libc("free", ctx.read_word(conn + CONN_BUF))
    ctx.libc("free", conn)
    ctx.write_word(g + G_ACTIVE_CONNS,
                   max(0, to_signed(ctx.read_word(g + G_ACTIVE_CONNS)) - 1))
    return 0


def minx_served_count(ctx: GuestContext) -> int:
    return ctx.read_word(_globals(ctx) + G_SERVED)


# ---------------------------------------------------------------------------
# image construction
# ---------------------------------------------------------------------------

_LIBC_IMPORTS = (
    "mvx_init", "mvx_start", "mvx_end",
    "open", "close", "read", "write", "writev", "stat", "fstat",
    "listen_on", "accept4", "recv", "send", "shutdown", "setsockopt",
    "getsockopt", "epoll_create1", "epoll_ctl", "epoll_wait",
    "epoll_pwait", "ioctl", "sendfile", "gettimeofday", "time",
    "localtime_r", "getpid", "malloc", "calloc", "realloc", "free",
    "memcpy", "memset", "strlen", "strcmp", "strncmp", "strchr", "atoi",
    "mkdir", "unlink", "lseek",
)

_FUNCTIONS = [
    # (name, fn, arity, size, calls)
    ("minx_main", minx_main, 1, 8192,
     ("mvx_init", "open", "listen_on", "epoll_create1", "epoll_ctl",
      "malloc", "free")),
    ("minx_pump", minx_pump, 0, 1024,
     ("minx_process_events_and_timers", "mvx_start", "mvx_end")),
    ("minx_process_events_and_timers", minx_process_events_and_timers, 0,
     8192,
     ("epoll_wait", "gettimeofday", "time", "minx_event_accept",
      "minx_http_wait_request_handler", "mvx_start", "mvx_end")),
    ("minx_event_accept", minx_event_accept, 0, 4096,
     ("accept4", "setsockopt", "ioctl", "malloc", "epoll_ctl")),
    ("minx_http_wait_request_handler", minx_http_wait_request_handler, 1,
     8192,
     ("recv", "minx_http_process_request_line",
      "minx_http_finalize_request", "minx_http_close_connection",
      "mvx_start", "mvx_end")),
    ("minx_http_process_request_line", minx_http_process_request_line, 1,
     12288, ("minx_http_process_request_headers", "strcmp", "strlen")),
    ("minx_http_process_request_headers",
     minx_http_process_request_headers, 1, 8192,
     ("minx_http_handler", "strchr", "strncmp", "strlen", "memcpy")),
    ("minx_http_handler", minx_http_handler, 1, 4096,
     ("minx_http_read_discarded_request_body", "minx_http_static_handler",
      "minx_http_special_response", "minx_http_auth_basic")),
    ("minx_http_auth_basic", minx_http_auth_basic, 1, 4096,
     ("strcmp", "minx_http_admin_page", "minx_http_special_response")),
    ("minx_http_admin_page", minx_http_admin_page, 1, 2048,
     ("strlen", "minx_http_header_filter", "send")),
    ("minx_http_parse_chunked", minx_http_parse_chunked, 1, 4096, ()),
    ("minx_http_read_discarded_request_body",
     minx_http_read_discarded_request_body, 1, 4096,
     ("minx_http_parse_chunked", "recv")),
    ("minx_http_static_handler", minx_http_static_handler, 1, 8192,
     ("stat", "open", "fstat", "sendfile", "close", "strlen", "memcpy",
      "strcmp", "minx_http_header_filter", "minx_http_special_response",
      "minx_http_not_modified")),
    ("minx_http_not_modified", minx_http_not_modified, 1, 1024,
     ("minx_http_header_filter",)),
    ("minx_http_header_filter", minx_http_header_filter, 3, 8192,
     ("gettimeofday", "localtime_r", "malloc", "writev", "free")),
    ("minx_http_special_response", minx_http_special_response, 2, 4096,
     ("strlen", "minx_http_header_filter", "send")),
    ("minx_http_log_access", minx_http_log_access, 1, 4096,
     ("time", "localtime_r", "write", "memcpy", "strlen")),
    ("minx_http_finalize_request", minx_http_finalize_request, 1, 4096,
     ("minx_http_log_access", "minx_http_close_connection", "memset",
      "time")),
    ("minx_http_close_connection", minx_http_close_connection, 1, 2048,
     ("epoll_ctl", "close", "free")),
    ("minx_served_count", minx_served_count, 0, 1024, ()),
]


def build_minx_image() -> ProgramImage:
    """Build the minx worker image.

    Its 110 KiB static arena sizes the global/static area — it determines
    the follower variant's ``.data``/``.bss`` scan cost (paper Table 2
    shape).
    """
    builder = ImageBuilder("minx")
    builder.import_libc(*_LIBC_IMPORTS)
    for name, fn, arity, size, calls in _FUNCTIONS:
        builder.add_hl_function(name, fn, arity, size=size, calls=calls)

    # the register-restore helper: a *real ISA* function whose epilogues
    # are the exploit's gadget pool (pop rdi;ret / pop rsi;ret)
    restore = Assembler()
    restore.pop_r("rdi")
    restore.ret()
    restore.pop_r("rsi")
    restore.ret()
    restore.pop_r("rdx")
    restore.ret()
    restore.pop_r("rax")
    restore.ret()
    builder.add_isa_function("minx_ctx_restore", restore, pad_to=24 * 16)

    builder.add_rodata("err_400_page",
                       b"<html><body><h1>400 Bad Request</h1>"
                       b"<hr>minx/1.3.9</body></html>\x00")
    builder.add_rodata("err_404_page",
                       b"<html><body><h1>404 Not Found</h1>"
                       b"<hr>minx/1.3.9</body></html>\x00")
    # a pathname string "found in the application" — the exploit aims
    # mkdir's %rdi at it (paper §4.2's "pointer to a string found in the
    # application")
    builder.add_rodata("upstream_tmp_path", b"/tmp/minx_upstream\x00")
    builder.add_rodata("server_version", b"minx/1.3.9\x00")
    builder.add_rodata("admin_credential", b"secret123\x00")
    builder.add_rodata("minx_webroot", b"/var/www\x00")
    builder.add_rodata("admin_page",
                       b"<html><body><h1>minx admin</h1></body></html>\x00")
    for name in PROTECTABLE:
        builder.add_rodata(f"fname_{name}", name.encode() + b"\x00")

    builder.add_data("minx_config",
                     b"worker_connections=128;root=/var/www;" +
                     b"\x00" * 27)
    builder.add_data_pointer("default_handler_ptr",
                             "minx_http_static_handler")
    builder.add_pointer_table("minx_phase_handlers", [
        "minx_http_process_request_line",
        "minx_http_process_request_headers",
        "minx_http_handler",
        "minx_http_header_filter",
        "minx_http_log_access",
    ])
    builder.add_bss("minx_globals", 256)
    builder.add_bss("minx_static_arena", 110 * 1024)
    return builder.build()


# ---------------------------------------------------------------------------
# host-side driver
# ---------------------------------------------------------------------------

class MinxServer:
    """Host-side harness: builds the process, serves, exposes counters."""

    def __init__(self, kernel: Kernel, port: int = 8080,
                 protect: Optional[str] = None, smvx: bool = False,
                 heap_pages: int = 256,
                 name: str = "minx", reuse_variants: bool = False,
                 variant_strategy: str = "shift",
                 strict_verify: bool = False,
                 auto_scope: bool = False):
        from repro.core import AlarmLog, attach_smvx, build_smvx_stub_image
        from repro.libc import build_libc_image

        self.kernel = kernel
        self.port = port
        if not kernel.vfs.exists("/var/www/index.html"):
            kernel.vfs.write_file("/var/www/index.html",
                                  b"<html>" + b"x" * 4083 + b"</html>")
        self.process = GuestProcess(kernel, name, heap_pages=heap_pages)
        self.process.load_image(build_libc_image(), tag="libc")
        self.process.load_image(build_smvx_stub_image(), tag="libsmvx")
        self.image = build_minx_image()
        self.loaded = self.process.load_image(self.image, main=True)
        self.process.app_config = {"protect": protect}
        self.alarms = AlarmLog()
        self.monitor = None
        if smvx:
            self.monitor = attach_smvx(self.process, self.loaded,
                                       alarm_log=self.alarms,
                                       reuse_variants=reuse_variants,
                                       variant_strategy=variant_strategy,
                                       strict_verify=strict_verify,
                                       auto_scope=auto_scope)

    def start(self) -> int:
        return self.process.call_function("minx_main", self.port)

    def pump(self) -> int:
        """Run the event loop until it would block; returns served count."""
        from repro.process.context import to_signed
        return to_signed(self.process.call_function("minx_pump"))

    @property
    def served(self) -> int:
        return self.process.call_function("minx_served_count")
