"""scout-like URL fuzzer (paper §4.1, Figure 9).

Generates a stream of exploratory HTTP requests — path dictionary walks,
query mutations, odd methods, chunked POST bodies — to push execution into
corners the fixed ApacheBench workload never touches.  The taint-analysis
experiment runs it to watch the sensitive-function count grow over fuzzing
time.

Deterministic: a linear-congruential generator seeded explicitly, so
Figure 9's series reproduces bit-for-bit.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

_WORDS = [
    "index", "admin", "login", "static", "images", "css", "js", "api",
    "upload", "download", "config", "backup", "test", "dev", "old",
    "v1", "v2", "data", "files", "private", "tmp", "cache", "assets",
]

_EXTENSIONS = ["", ".html", ".php", ".bak", ".txt", ".json", ".old"]

_METHODS = ["GET", "GET", "GET", "HEAD", "POST"]


class _Lcg:
    def __init__(self, seed: int):
        self.state = seed & 0xFFFF_FFFF

    def next(self, bound: int) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFF_FFFF
        return self.state % bound


class UrlFuzzer:
    """Yields (method, path, body) request tuples."""

    def __init__(self, seed: int = 0x5EED):
        self._rng = _Lcg(seed)
        self.generated = 0

    def _path(self) -> str:
        rng = self._rng
        depth = 1 + rng.next(3)
        parts = [_WORDS[rng.next(len(_WORDS))] for _ in range(depth)]
        ext = _EXTENSIONS[rng.next(len(_EXTENSIONS))]
        path = "/" + "/".join(parts) + ext
        mutation = rng.next(8)
        if mutation == 0:
            path += "?" + _WORDS[rng.next(len(_WORDS))] + "=" + str(
                rng.next(1000))
        elif mutation == 1:
            path = path + "/" * (1 + rng.next(3))
        elif mutation == 2:
            path = path.replace("/", "//", 1)
        elif mutation == 3:
            path = "/%2e%2e" + path
        return path

    def next_request(self) -> Tuple[str, str, bytes]:
        rng = self._rng
        method = _METHODS[rng.next(len(_METHODS))]
        path = self._path()
        body = b""
        if method == "POST":
            size = rng.next(64) + 1
            body = bytes((0x61 + rng.next(26)) for _ in range(size))
        self.generated += 1
        return method, path, body

    def batch(self, count: int) -> List[Tuple[str, str, bytes]]:
        return [self.next_request() for _ in range(count)]

    def request_bytes(self, method: str, path: str, body: bytes) -> bytes:
        head = (f"{method} {path} HTTP/1.1\r\n"
                "Host: localhost\r\n"
                f"User-Agent: scout-repro\r\n"
                f"Connection: keep-alive\r\n")
        if body:
            # chunked, like the bodies the CVE workload sends
            head += "Transfer-Encoding: chunked\r\n\r\n"
            payload = (f"{len(body):x}\r\n").encode() + body + b"\r\n0\r\n\r\n"
            return head.encode() + payload
        return (head + "\r\n").encode()

    def __iter__(self) -> Iterator[Tuple[str, str, bytes]]:
        while True:
            yield self.next_request()
