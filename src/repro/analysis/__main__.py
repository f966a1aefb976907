"""``python -m repro.analysis`` — one front door for the offline tools.

Subcommands mirror the external tools the paper leans on:

* ``callgraph`` — the r2pipe-style protected-subtree dump (Figure 2);
* ``gadgets``   — the Ropper/ROPGadget-style census over a booted app;
* ``pmap``      — the RSS breakdown used for Table 3;
* ``scope``     — the automatic selected-code-path derivation (static
  taint analysis; the libdft-ahead-of-time leg of the paper's
  selection pipeline);
* ``verify``    — the static MPK/interception/divergence verifier
  (equivalent to ``python -m repro.analysis.verify``).

Each subcommand takes a bundled app name (``minx``, ``littled``,
``nbench``); ``verify`` forwards its remaining arguments unchanged.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.verify import _bundled_apps


def _boot(app: str):
    """Boot a bundled app *without* the monitor; returns (process,
    loaded target image)."""
    from repro.kernel import Kernel
    kernel = Kernel()
    if app == "minx":
        from repro.apps.minx import MinxServer
        server = MinxServer(kernel)
        return server.process, server.loaded
    if app == "littled":
        from repro.apps.littled import LittledServer
        server = LittledServer(kernel)
        return server.process, server.loaded
    from repro.apps.nbench import boot_nbench
    process, loaded, _monitor = boot_nbench(kernel)
    return process, loaded


def _cmd_callgraph(app: str, root: Optional[str]) -> int:
    from repro.analysis.callgraph import build_callgraph
    build, default_roots = _bundled_apps()[app]
    image = build()
    graph = build_callgraph(image)
    if root is None:
        for name in sorted(graph.edges):
            callees = ", ".join(sorted(graph.edges[name])) or "-"
            print(f"{name} -> {callees}")
        return 0
    subtree = graph.subtree(root)
    print(f"protected subtree of {root!r} "
          f"({len(subtree)} functions):")
    for name in sorted(subtree):
        print(f"  {name}")
    libc = sorted(graph.libc_reachable(root))
    print(f"libc reachable: {', '.join(libc) or '-'}")
    conservative = sorted(graph.indirect_sites(root))
    if conservative:
        print(f"indirect branches (coverage conservative): "
              f"{', '.join(conservative)}")
    return 0


def _cmd_gadgets(app: str, max_len: int) -> int:
    from repro.analysis.gadgets import find_gadgets, gadget_census
    process, loaded = _boot(app)
    start, size = loaded.section_range(".text")
    gadgets = find_gadgets(process.space, max_len=max_len,
                           region=(start, start + size))
    census = gadget_census(gadgets)
    print(f"{app}: {len(gadgets)} gadgets in .text "
          f"({start:#x}+{size:#x})")
    for kind, count in census.items():
        print(f"  {kind:>16}: {count}")
    return 0


def _cmd_pmap(app: str) -> int:
    from repro.analysis.pmap import format_pmap, rss_kb
    process, _loaded = _boot(app)
    print(format_pmap(process))
    print(f"total rss: {rss_kb(process):.1f} kB")
    return 0


def _cmd_scope(app: str, as_json: bool, strict: bool) -> int:
    """Run the automatic path-selection analysis on one bundled image.

    ``--strict`` is the derivation-consistency gate CI runs: a non-empty
    selection must produce a derived root whose subtree covers it, and
    linting the image against its *own* derived root must raise no
    SCOPE001 (missed tainted function) findings.
    """
    from repro.analysis.callgraph import build_callgraph
    from repro.analysis.findings import VerifyReport
    from repro.analysis.scope import compute_scope
    from repro.analysis.verify import check_scope_selection
    build, _default_roots = _bundled_apps()[app]
    image = build()
    scope = compute_scope(image)
    print(scope.to_json() if as_json else scope.format())
    if not strict:
        return 0
    problems = []
    if scope.selected and scope.derived_root is None:
        problems.append("non-empty selection but no covering "
                        "annotated root could be derived")
    if scope.derived_root is not None:
        subtree = build_callgraph(image).subtree(scope.derived_root)
        missed = scope.selected - subtree
        if missed:
            problems.append(f"derived root {scope.derived_root!r} does "
                            f"not cover: {', '.join(sorted(missed))}")
        lint = VerifyReport(target=image.name)
        check_scope_selection(image, (scope.derived_root,), lint,
                              scope_report=scope)
        for finding in lint.by_code("SCOPE001"):
            problems.append(f"self-lint: {finding.message}")
    for problem in problems:
        print(f"scope {app}: STRICT FAIL: {problem}", file=sys.stderr)
    if not problems:
        print(f"scope {app}: consistent "
              f"(root={scope.derived_root or '-'}, "
              f"{len(scope.selected)} selected)")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Offline analysis tools for the sMVX repro")
    sub = parser.add_subparsers(dest="command", required=True)

    apps = sorted(_bundled_apps())
    p_cg = sub.add_parser("callgraph", help="call-graph / subtree dump")
    p_cg.add_argument("app", choices=apps)
    p_cg.add_argument("--root", help="print this root's protected subtree")

    p_g = sub.add_parser("gadgets", help="ROP gadget census over .text")
    p_g.add_argument("app", choices=apps)
    p_g.add_argument("--max-len", type=int, default=3)

    p_p = sub.add_parser("pmap", help="RSS breakdown of a booted app")
    p_p.add_argument("app", choices=apps)

    p_s = sub.add_parser("scope",
                         help="automatic selected-code-path derivation")
    p_s.add_argument("apps", nargs="*",
                     help="bundled apps (default: all)")
    p_s.add_argument("--json", action="store_true")
    p_s.add_argument("--strict", action="store_true",
                     help="exit non-zero unless the derivation is "
                          "self-consistent (CI gate)")

    sub.add_parser("verify", add_help=False,
                   help="static verifier (args forwarded)")

    if argv and argv[0] == "verify":
        from repro.analysis.verify import main as verify_main
        return verify_main(argv[1:])

    args = parser.parse_args(argv)
    if args.command == "callgraph":
        return _cmd_callgraph(args.app, args.root)
    if args.command == "gadgets":
        return _cmd_gadgets(args.app, args.max_len)
    if args.command == "scope":
        names = args.apps or apps
        exit_code = 0
        for name in names:
            if name not in apps:
                print(f"unknown app {name!r}; bundled: "
                      f"{', '.join(apps)}", file=sys.stderr)
                return 2
            exit_code = max(exit_code,
                            _cmd_scope(name, args.json, args.strict))
        return exit_code
    return _cmd_pmap(args.app)


if __name__ == "__main__":   # pragma: no cover - exercised via CLI tests
    sys.exit(main())
