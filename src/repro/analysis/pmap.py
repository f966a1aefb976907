"""pmap-style resident-set-size measurement.

The paper measures RSS with ``pmap`` after 10 HTTP requests (§4.1,
"Memory consumption saved"): Nginx 3208 KB under sMVX vs 6392 KB for two
vanilla copies; Lighttpd 1372 KB vs 2720 KB.  Our RSS is the number of
mapped pages in a process's address space — the simulator's direct
analogue, since every mapped page is "resident".
"""

from __future__ import annotations

from typing import Dict

from repro.process.process import GuestProcess


def rss_kb(process: GuestProcess) -> float:
    """Total RSS of a guest process, in KiB."""
    return process.space.resident_bytes() / 1024.0


def rss_report(process: GuestProcess) -> Dict[str, float]:
    """KiB per mapping tag — pmap's per-mapping breakdown."""
    breakdown: Dict[str, float] = {}
    for _base, length, _prot, tag in process.space.mapped_regions():
        key = tag or "<anon>"
        breakdown[key] = breakdown.get(key, 0.0) + length / 1024.0
    return breakdown


def format_pmap(process: GuestProcess) -> str:
    """A pmap-like textual listing (address, size, perms, tag)."""
    lines = [f"{process.pid}:   {process.name}"]
    total = 0
    for base, length, prot, tag in process.space.mapped_regions():
        bits = "".join(("r" if prot & 1 else "-",
                        "w" if prot & 2 else "-",
                        "x" if prot & 4 else "-"))
        lines.append(f"{base:016x} {length // 1024:6d}K {bits}-   {tag}")
        total += length
    lines.append(f" total {total // 1024:6d}K")
    return "\n".join(lines)
