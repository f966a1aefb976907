"""``repro.analysis.verify`` — static MPK-isolation, interception-coverage
and divergence-surface verification (paper §3.2–§3.4).

The sMVX security argument was previously only checked *dynamically*: a
stray PKRU write, a missed libc interception, or a W^X page surfaced as a
runtime fault or a false divergence alarm.  This module proves the
invariants offline — over a :class:`~repro.loader.image.ProgramImage`
before it is loaded, and over a live, monitor-attached address space at
bring-up — so a broken deployment fails closed, before any guest request
is served.

Checks and finding codes
------------------------

========  ========================================================
code      meaning
========  ========================================================
CFG001    undecodable instruction slot inside a function body
PKRU00x   gate-discipline violations (see :mod:`repro.analysis.pkru`)
ICOV001   unintercepted ``@plt`` crossing inside a protected subtree
ICOV002   indirect branch in a protected subtree (coverage is
          conservative, not exact) — warning
ICOV003   GOT slot of an intercepted import no longer points at the
          monitor's stub
DIV001    benign-divergence source reachable but not intercepted
DIV002    benign-divergence source executed locally by both variants
WXOR001   page mapped writable *and* executable
MPK001    monitor memory not tagged with the monitor's protection key
MPK002    monitor text not execute-only (readable or writable)
GOT001    target ``.got.plt`` writable after interposition
SCOPE001  hand-picked protected set misses a statically tainted
          function (network input reaches code outside MVX) — warning
SCOPE002  protected subtree contains a provably clean function
          (wasted MVX replication overhead) — warning
SCOPE003  tainted function contains an indirect call the alias proof
          could not resolve; the selection was widened conservatively
          to the address-taken set — warning
VER001    verification could not run as configured (bad root, …)
========  ========================================================

The ``SCOPE`` family lints the *selection itself* against the automatic
scope analysis (:mod:`repro.analysis.scope`).  It is opt-in
(``verify_image(..., scope=True)`` / ``--scope``) because the bundled
default roots intentionally differ from the derived set in documented
ways; the scope CLI (``python -m repro.analysis scope``) and the corpus
run it explicitly.

Divergence-surface entries for sources the monitor *neutralizes* (the
leader executes; the result is replayed to the follower) are reported in
:attr:`~repro.analysis.findings.VerifyReport.divergence_surface` instead
of as findings — they are what :func:`explain_alarm` cross-checks
``repro.trace`` divergence alarms against.

Entry points: :func:`verify_image` (offline), :func:`audit_live_space`
and :func:`verify_process` (bring-up), ``python -m repro.analysis.verify``
(CLI), and the opt-in strict modes on ``SmvxMonitor``/``Loader.load``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import INDIRECT, build_callgraph
from repro.analysis.cfg import image_cfgs
from repro.analysis.findings import Finding, Severity, VerifyReport
from repro.analysis.pkru import (
    GatePolicy,
    verify_monitor_image,
    wrpkru_sites_in_image,
    wrpkru_sites_in_space,
)
from repro.errors import SymbolNotFound
from repro.libc.categories import Category, spec_for
from repro.loader.image import ProgramImage
from repro.machine.memory import (
    PAGE_SIZE,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)

#: libc calls whose results legitimately differ between two executions
#: (the paper's benign divergences): wall-clock reads and process
#: identity.  ``/dev/urandom`` is the third source; it flows through
#: ``open``/``read`` and is detected from the image's string constants.
BENIGN_DIVERGENCE_SOURCES = {
    "time": "wall clock",
    "gettimeofday": "wall clock",
    "localtime_r": "wall clock",
    "getpid": "process identity",
}

_URANDOM_PATH = b"/dev/urandom"


def _default_intercept_table() -> Set[str]:
    """The monitor's lift/intercept table: every libc call it can
    dispatch through the gate (import of ``LIBC_FUNCTIONS`` is deferred
    so offline image checks don't pull in the whole runtime)."""
    from repro.libc.libc import LIBC_FUNCTIONS
    return set(LIBC_FUNCTIONS)


# ---------------------------------------------------------------------------
# image-level (offline) checks
# ---------------------------------------------------------------------------

def check_cfg_recovery(image: ProgramImage, report: VerifyReport) -> None:
    """Recover every function CFG; flag undecodable slots in bodies."""
    report.ran("cfg-recovery")
    for name, cfg in image_cfgs(image).items():
        for slot in cfg.invalid_slots:
            report.add("CFG001", Severity.WARNING,
                       "instruction slot does not decode (data in .text, "
                       "or image corruption)", image=image.name,
                       symbol=name, address=slot)


def check_stray_wrpkru(image: ProgramImage, report: VerifyReport) -> None:
    """Application images must contain zero PKRU writes: any ``wrpkru``
    reachable by (or usable as a gadget from) app code can open the
    monitor's protection key."""
    report.ran("pkru-placement")
    for symbol, addr in wrpkru_sites_in_image(image):
        report.add("PKRU001", Severity.ERROR,
                   "application image contains a PKRU-writing "
                   "instruction outside any blessed trampoline",
                   image=image.name, symbol=symbol, address=addr)


def check_interception_coverage(image: ProgramImage,
                                roots: Sequence[str],
                                intercepted: Set[str],
                                report: VerifyReport) -> None:
    """Every ``name@plt`` leaf in a protected root's call-graph subtree
    must appear in the monitor's intercept table (complete interception
    of crossings is a *correctness* condition under selective
    replication, not just hardening)."""
    report.ran("interception-coverage")
    graph = build_callgraph(image)
    for root in roots:
        try:
            subtree = graph.subtree(root)
        except SymbolNotFound:
            report.add("VER001", Severity.ERROR,
                       f"protected root {root!r} is not a defined "
                       f"function of the image", image=image.name,
                       symbol=root)
            continue
        missing: Set[str] = set()
        for func in sorted(subtree):
            for callee in graph.callees(func):
                if not callee.endswith("@plt"):
                    continue
                name = callee[:-len("@plt")]
                if name.startswith("mvx_"):
                    continue   # redirected to the monitor's own API
                if name not in intercepted:
                    missing.add(name)
                    report.add(
                        "ICOV001", Severity.ERROR,
                        f"libc crossing {name!r} (called from "
                        f"{func!r}) is reachable from protected root "
                        f"{root!r} but absent from the intercept table",
                        image=image.name, symbol=func)
        conservative = graph.indirect_sites(root)
        if conservative:
            report.add(
                "ICOV002", Severity.WARNING,
                f"protected subtree of {root!r} contains unresolved "
                f"indirect branches in: "
                f"{', '.join(sorted(conservative))} — interception "
                f"coverage is conservative, not exact",
                image=image.name, symbol=root)


def check_divergence_surface(image: ProgramImage,
                             roots: Sequence[str],
                             intercepted: Set[str],
                             report: VerifyReport) -> None:
    """Statically flag benign-divergence sources reachable from the
    replicated subtree, and record how each one is (or is not)
    neutralized by the lockstep emulation categories."""
    report.ran("divergence-surface")
    graph = build_callgraph(image)
    has_urandom = any(
        _URANDOM_PATH in image.sections.get(section, b"")
        for section in (".rodata", ".data"))
    for root in roots:
        try:
            reachable = graph.libc_reachable(root)
        except SymbolNotFound:
            continue   # ICOV already reported the bad root
        for name in sorted(reachable):
            kind = BENIGN_DIVERGENCE_SOURCES.get(name)
            if kind is None:
                continue
            spec = spec_for(name)
            category = spec.category if spec else Category.LOCAL
            if name not in intercepted:
                report.add(
                    "DIV001", Severity.ERROR,
                    f"benign-divergence source {name!r} ({kind}) is "
                    f"reachable from root {root!r} but not "
                    f"intercepted: the variants will observe "
                    f"different values and raise false alarms",
                    image=image.name, symbol=root)
            elif category is Category.LOCAL:
                report.add(
                    "DIV002", Severity.WARNING,
                    f"benign-divergence source {name!r} ({kind}) is "
                    f"classified LOCAL: both variants execute it "
                    f"independently and may legitimately diverge",
                    image=image.name, symbol=root)
            else:
                entry = {
                    "root": root, "name": name, "kind": kind,
                    "category": category.name,
                    "disposition": "leader executes; result replayed "
                                   "to the follower (neutralized)"}
                if entry not in report.divergence_surface:
                    report.divergence_surface.append(entry)
        if has_urandom and "open" in reachable and "read" in reachable:
            entry = {
                "root": root, "name": "/dev/urandom",
                "kind": "randomness", "category": "RETVAL_AND_BUFFER",
                "disposition": "read buffers replayed to the follower "
                               "(neutralized)"}
            if entry not in report.divergence_surface:
                report.divergence_surface.append(entry)


def check_scope_selection(image: ProgramImage,
                          roots: Sequence[str],
                          report: VerifyReport,
                          scope_report=None) -> None:
    """Lint the (hand-picked) protected set against the automatic scope
    analysis: flag statically tainted functions the selection misses
    (SCOPE001 — network input reaches unreplicated code), provably clean
    functions it includes (SCOPE002 — pure MVX overhead), and sites where
    the static selection itself had to widen conservatively (SCOPE003)."""
    from repro.analysis.scope import TaintClass, compute_scope
    report.ran("scope-selection")
    if scope_report is None:
        scope_report = compute_scope(image)
    graph = build_callgraph(image)
    covered: Set[str] = set()
    for root in roots:
        try:
            covered |= graph.subtree(root)
        except SymbolNotFound:
            report.add("VER001", Severity.ERROR,
                       f"protected root {root!r} is not a defined "
                       f"function of the image", image=image.name,
                       symbol=root)
    for name in sorted(scope_report.selected - covered):
        scope = scope_report.functions[name]
        path = " -> ".join(scope.evidence) or scope.reason
        report.add("SCOPE001", Severity.WARNING,
                   f"statically tainted function {name!r} is outside "
                   f"the protected set (roots "
                   f"{', '.join(map(repr, roots)) or 'none'}): network "
                   f"input reaches it unreplicated [{path}]",
                   image=image.name, symbol=name)
    for name in sorted(covered):
        if scope_report.classification(name) is TaintClass.CLEAN:
            report.add("SCOPE002", Severity.WARNING,
                       f"protected set includes {name!r}, which the "
                       f"scope analysis proves clean: replicating it is "
                       f"pure MVX overhead "
                       f"[{scope_report.functions[name].reason}]",
                       image=image.name, symbol=name)
    for func, detail in scope_report.conservative_sites:
        report.add("SCOPE003", Severity.WARNING,
                   f"tainted function {func!r}: {detail}",
                   image=image.name, symbol=func)


def verify_image(image: ProgramImage,
                 roots: Sequence[str] = (),
                 intercepted: Optional[Set[str]] = None,
                 report: Optional[VerifyReport] = None,
                 scope: bool = False) -> VerifyReport:
    """Offline verification of one application image.

    ``scope=True`` additionally lints the selection against the
    automatic scope analysis (SCOPE00x; opt-in — see module docstring).
    """
    if report is None:
        report = VerifyReport(target=image.name)
    if intercepted is None:
        intercepted = _default_intercept_table()
    check_cfg_recovery(image, report)
    check_stray_wrpkru(image, report)
    if roots:
        check_interception_coverage(image, roots, intercepted, report)
        check_divergence_surface(image, roots, intercepted, report)
    if scope:
        check_scope_selection(image, roots, report)
    return report


# ---------------------------------------------------------------------------
# live-space (bring-up) audit
# ---------------------------------------------------------------------------

def _monitor_text_range(monitor) -> Tuple[int, int]:
    start, size = monitor.monitor_image.section_range(".text")
    plt_start, plt_size = monitor.monitor_image.section_range(".plt")
    end = max(start + size, plt_start + plt_size)
    return start, end


def check_wx_pages(space, report: VerifyReport) -> None:
    """W^X: no page may be simultaneously writable and executable."""
    report.ran("wx-audit")
    for base, length, prot, tag in space.mapped_regions():
        if prot & PROT_WRITE and prot & PROT_EXEC:
            report.add("WXOR001", Severity.ERROR,
                       f"page range {base:#x}+{length:#x} ({tag or '?'}) "
                       f"is mapped writable and executable",
                       address=base)


def check_live_wrpkru_placement(space, report: VerifyReport,
                                monitor=None) -> None:
    """Every WRPKRU slot in any executable page must lie inside the
    monitor's trampoline text (the blessed region)."""
    report.ran("pkru-placement")
    blessed: Optional[Tuple[int, int]] = None
    if monitor is not None and monitor.monitor_image is not None:
        blessed = _monitor_text_range(monitor)
    for addr, tag in wrpkru_sites_in_space(space):
        if blessed is not None and blessed[0] <= addr < blessed[1]:
            continue
        report.add("PKRU001", Severity.ERROR,
                   f"PKRU-writing instruction slot in page {tag!r} "
                   f"outside the blessed monitor trampoline",
                   address=addr)


def _check_monitor_keying(process, monitor, report: VerifyReport) -> None:
    """All monitor memory must carry the monitor pkey; text must be XoM."""
    report.ran("monitor-keying")
    space = process.space
    loaded = monitor.monitor_image
    for section, _offset, size in loaded.image.section_layout():
        start, _ = loaded.section_range(section)
        for page_base in range(start, start + max(size, 1), PAGE_SIZE):
            page = space.page_at(page_base)
            if page is None:
                continue
            if page.pkey != monitor.pkey:
                report.add("MPK001", Severity.ERROR,
                           f"monitor section {section} page not tagged "
                           f"with the monitor pkey "
                           f"(pkey={page.pkey}, want {monitor.pkey})",
                           address=page_base)
            if section in (".text", ".plt") and (
                    page.prot & (PROT_READ | PROT_WRITE)):
                report.add("MPK002", Severity.ERROR,
                           f"monitor {section} page is not execute-only "
                           f"(prot={page.prot:#o})", address=page_base)
    for area, size, label in (
            (monitor.memory.safe_stack_area,
             monitor.memory.safe_stack_size, "safe stacks"),
            (monitor.memory.ipc_area, monitor.memory.ipc_size,
             "lockstep IPC")):
        for page_base in range(area, area + size, PAGE_SIZE):
            page = space.page_at(page_base)
            if page is None or page.pkey != monitor.pkey:
                report.add("MPK001", Severity.ERROR,
                           f"monitor {label} page not tagged with the "
                           f"monitor pkey", address=page_base)


def _check_got_sealed(process, monitor, report: VerifyReport) -> None:
    """After interposition the target's ``.got.plt`` must be read-only
    and every slot must still point into the monitor."""
    report.ran("got-audit")
    space = process.space
    target = monitor.target
    start, size = target.section_range(".got.plt")
    for page_base in range(start, start + max(size, 1), PAGE_SIZE):
        page = space.page_at(page_base)
        if page is not None and page.prot & PROT_WRITE:
            report.add("GOT001", Severity.ERROR,
                       "target .got.plt page still writable after "
                       "interposition (GOT-overwrite surface)",
                       image=target.image.name, address=page_base)
    for name in monitor.plt_names:
        slot_value = process.loader.read_got_slot(target, name)
        stub = monitor.monitor_image.symbol_address(f"smvx_stub_{name}")
        if slot_value != stub:
            report.add("ICOV003", Severity.ERROR,
                       f"GOT slot of {name!r} points at "
                       f"{slot_value:#x}, not the monitor stub "
                       f"{stub:#x}: calls bypass the gate",
                       image=target.image.name, symbol=name,
                       address=target.got_slot_address(name))


def audit_live_space(process, monitor=None,
                     roots: Sequence[str] = (),
                     report: Optional[VerifyReport] = None) -> VerifyReport:
    """Audit a live guest address space (and its attached monitor)."""
    if report is None:
        report = VerifyReport(target=f"process:{process.name}")
    space = process.space
    check_wx_pages(space, report)
    check_live_wrpkru_placement(space, report, monitor=monitor)
    if monitor is not None and monitor.monitor_image is not None:
        report.ran("gate-dataflow")
        policy = GatePolicy(pkru_open=monitor.memory.pkru_open,
                            pkru_closed=monitor.memory.pkru_closed)
        report.findings.extend(
            verify_monitor_image(monitor.monitor_image.image, policy))
        _check_monitor_keying(process, monitor, report)
        _check_got_sealed(process, monitor, report)
        if roots:
            check_interception_coverage(
                monitor.target.image, roots,
                set(monitor.plt_names), report)
            check_divergence_surface(
                monitor.target.image, roots,
                set(monitor.plt_names), report)
    return report


def verify_process(process, monitor=None,
                   roots: Sequence[str] = ()) -> VerifyReport:
    """Full verification: offline image checks on the protected target
    plus the live-space audit.  This is what the monitor's opt-in strict
    mode runs at the end of ``setup()``."""
    report = VerifyReport(target=f"process:{process.name}")
    if monitor is not None and monitor.target is not None:
        # image-level checks only; the roots-based coverage/divergence
        # passes run once inside the live audit, against the *actual*
        # intercept table.
        verify_image(monitor.target.image, report=report)
    return audit_live_space(process, monitor=monitor, roots=roots,
                            report=report)


# ---------------------------------------------------------------------------
# trace cross-check
# ---------------------------------------------------------------------------

def explain_alarm(alarm, report: VerifyReport) -> Optional[Dict]:
    """Cross-check a ``repro.trace``/monitor divergence alarm against the
    static divergence surface.

    Returns the matching lint entry when the alarm's libc call was
    statically predicted as a benign-divergence source (either a
    ``DIV001``/``DIV002`` finding or a neutralized surface entry), or
    ``None`` when the alarm is *not* explained by the static surface —
    i.e. it looks like a genuine attack-induced divergence.
    """
    name = getattr(alarm, "libc_name", "") or ""
    if not name:
        return None
    for finding in report.findings:
        if finding.code in ("DIV001", "DIV002") \
                and f"{name!r}" in finding.message:
            return {"name": name, "predicted": True,
                    "finding": finding.to_dict()}
    for entry in report.divergence_surface:
        if entry["name"] == name:
            return {"name": name, "predicted": True, "surface": entry}
    return None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

#: bundled application registry: name -> (image builder, default roots)
def _bundled_apps():
    from repro.apps.littled import build_littled_image
    from repro.apps.minx import build_minx_image
    from repro.apps.nbench.workloads import (
        NBENCH_WORKLOADS,
        build_nbench_image,
    )
    return {
        "minx": (build_minx_image,
                 ("minx_http_process_request_line",)),
        "littled": (build_littled_image, ("server_main_loop",)),
        "nbench": (build_nbench_image,
                   tuple(spec.func for spec in NBENCH_WORKLOADS)),
    }


def _live_report(app: str, roots: Sequence[str]) -> VerifyReport:
    """Boot the app with the monitor attached and audit the live space."""
    from repro.kernel import Kernel
    kernel = Kernel()
    if app == "minx":
        from repro.apps.minx import MinxServer
        server = MinxServer(kernel, protect=roots[0], smvx=True)
        return verify_process(server.process, server.monitor, roots=roots)
    if app == "littled":
        from repro.apps.littled import LittledServer
        server = LittledServer(kernel, protect=roots[0], smvx=True)
        return verify_process(server.process, server.monitor, roots=roots)
    if app == "nbench":
        from repro.apps.nbench import boot_nbench
        from repro.core import AlarmLog
        process, _target, monitor = boot_nbench(kernel, smvx=True,
                                                alarm_log=AlarmLog())
        return verify_process(process, monitor, roots=roots)
    raise ValueError(f"unknown app {app!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.verify",
        description="Static MPK-isolation / interception-coverage / "
                    "divergence-surface verifier for sMVX images")
    parser.add_argument("apps", nargs="*",
                        help="bundled apps to verify (default: all of "
                             "minx, littled, nbench)")
    parser.add_argument("--live", action="store_true",
                        help="boot each app with the monitor attached "
                             "and audit the live address space too")
    parser.add_argument("--root", action="append", default=[],
                        help="override the protected root(s)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON report per target")
    parser.add_argument("--scope", action="store_true",
                        help="also lint the protected set against the "
                             "automatic scope analysis (SCOPE00x)")
    parser.add_argument("--strict-warnings", action="store_true",
                        help="exit non-zero on warnings as well")
    parser.add_argument("--corpus", action="store_true",
                        help="run the seeded broken-image corpus; exits "
                             "0 iff the verifier catches every seeded "
                             "violation")
    args = parser.parse_args(argv)

    if args.corpus:
        from repro.analysis.corpus import run_corpus
        failed = 0
        for result in run_corpus():
            status = "caught" if result.caught else "MISSED"
            print(f"corpus {result.name}: {status} "
                  f"(expected {sorted(result.expected)}, "
                  f"found {sorted(result.found)})")
            if not result.caught:
                failed += 1
        print(f"corpus: {failed} of the seeded violations missed"
              if failed else "corpus: every seeded violation caught")
        return 1 if failed else 0

    registry = _bundled_apps()
    names = args.apps or sorted(registry)
    exit_code = 0
    for name in names:
        if name not in registry:
            print(f"unknown app {name!r}; bundled: "
                  f"{', '.join(sorted(registry))}", file=sys.stderr)
            return 2
        build, default_roots = registry[name]
        roots = tuple(args.root) or default_roots
        if args.live:
            # verify_process covers the offline image checks too
            report = _live_report(name, roots)
            report.target = name
        else:
            report = verify_image(build(), roots=roots, scope=args.scope)
        print(report.to_json() if args.json else report.format())
        bad = not report.ok or (args.strict_warnings and report.warnings)
        if bad:
            exit_code = 1
    return exit_code


if __name__ == "__main__":   # pragma: no cover - exercised via CLI tests
    sys.exit(main())
