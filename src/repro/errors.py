"""Exception hierarchy for the simulated machine and the sMVX runtime.

Faults raised by the simulated hardware deliberately mirror the signals a
native process would receive: a bad data access is a segmentation fault, an
MPK violation is likewise delivered as SIGSEGV with a pkey error code, and a
fetch from a non-executable page is a fault as well.  The sMVX layer turns
faults observed in the *follower* variant into divergence alarms.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Machine-level faults (simulated hardware signals)
# ---------------------------------------------------------------------------

class MachineFault(ReproError):
    """Base class for faults raised by the simulated CPU/MMU."""

    def __init__(self, message: str, address: int = 0):
        super().__init__(message)
        self.address = address


class SegmentationFault(MachineFault):
    """Access to an unmapped address or one lacking the needed permission."""


class ProtectionKeyFault(SegmentationFault):
    """Data access denied by the current thread's PKRU register.

    Real hardware reports these as SIGSEGV with ``si_code == SEGV_PKUERR``;
    we keep them a subclass of :class:`SegmentationFault` for the same
    reason, while letting tests distinguish the cause.
    """


class ExecuteFault(SegmentationFault):
    """Instruction fetch from a page that is not mapped or not executable."""


class InvalidInstruction(MachineFault):
    """The CPU decoded bytes that are not a valid instruction."""


class AlignmentFault(MachineFault):
    """A word access that is not naturally aligned (the machine requires it)."""


# ---------------------------------------------------------------------------
# Kernel-level errors
# ---------------------------------------------------------------------------

class KernelError(ReproError):
    """Base class for simulated-kernel failures (not guest-visible errno)."""


# ---------------------------------------------------------------------------
# Loader / image errors
# ---------------------------------------------------------------------------

class ImageError(ReproError):
    """Malformed program image or failed load/relocation."""


class SymbolNotFound(ImageError):
    def __init__(self, name: str):
        super().__init__(f"symbol not found: {name!r}")
        self.name = name


# ---------------------------------------------------------------------------
# sMVX runtime errors
# ---------------------------------------------------------------------------

class MvxError(ReproError):
    """Base class for sMVX monitor errors."""


class MvxDivergence(MvxError):
    """The variants diverged: a potential attack was detected.

    Carries a structured :attr:`report` describing what differed (libc call
    name, argument index, return value, or a fault in one variant).
    """

    def __init__(self, report: "object"):
        super().__init__(f"variant divergence detected: {report}")
        self.report = report


class MvxSetupError(MvxError):
    """mvx_init()/setup failed (missing profile, bad annotation, ...)."""


class MvxStateError(MvxError):
    """API misuse: mvx_start() without init, nested regions, etc."""
