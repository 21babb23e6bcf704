"""Command line interface.

Commands: ``induce``, ``table``, ``check``, ``identify``, ``iso``.  Each
accepts only the options it reads: ``--degree`` and ``--group`` on
``induce``, ``identify`` and ``iso``; ``--limit`` on ``induce``, ``table``
and ``iso``; ``--json`` on ``induce``, ``table`` and ``identify``; any
other option is malformed input.  So does each mode of ``iso``: ``--sub``
reads ``--degree``, ``--group`` and ``--limit``, ``--group-pair`` only
``--degree`` and ``--xmod`` none of them.  Group and subgroup flags take
inline cycle notation; crossed modules travel as JSON files.  Exit codes: 0
success, 1 failed verification, a negative isomorphism answer or standard
output closed early by its reader (as by ``| head``; the command then
stops without a traceback), 2 malformed input, 3 coset limit exceeded, 4
internal validation failure.  ``XMODLAB_LIMIT`` overrides the default
coset limit; a limit below 1 is malformed input.
``--stats`` on ``induce`` and ``table`` prints one line per induction on
stderr (``Report.stats`` and ``Report.phases``) and leaves stdout as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    CosetLimitExceeded,
    ParseError,
    TableMismatch,
    ValidationFailed,
    XmodlabError,
)
from .fp import DEFAULT_MAX_COSETS
from .induce import (
    TABLE_SUBGROUPS,
    induce,
    match_catalogue,
    run_table,
    small_group_name,
)
from .perm import (
    PermGroup,
    fingerprint,
    hom,
    isomorphic,
    parse_generator_list,
)
from .xmod import (
    identity_xmod,
    validate,
    xmod_from_json,
    xmod_isomorphic,
    xmod_to_json,
)


_DEFAULT_DEGREE = 4
_DEFAULT_GROUP = "(1,2),(1,2,3,4)"  # S4

# the options of ``iso`` that each of its modes never reads
_ISO_UNREAD = {
    "--sub": (),
    "--group-pair": ("--group", "--limit"),
    "--xmod": ("--degree", "--group", "--limit"),
}


def _resolve_limit(args) -> int:
    """Coset limit from ``--limit``, else ``XMODLAB_LIMIT``, else the default;
    a limit below 1 is malformed input."""
    if args.limit is not None:
        limit, source = args.limit, "--limit"
    else:
        env = os.environ.get("XMODLAB_LIMIT")
        if env is None:
            return DEFAULT_MAX_COSETS
        try:
            limit, source = int(env), "XMODLAB_LIMIT"
        except ValueError:
            raise ParseError(f"XMODLAB_LIMIT must be an integer, got {env!r}")
    if limit < 1:
        raise ParseError(f"{source} must be at least 1, got {limit}")
    return limit


def _group(args, text: str) -> PermGroup:
    """Group generated by ``text``; a ``--degree`` below 1 is malformed."""
    if args.degree < 1:
        raise ParseError(f"--degree must be at least 1, got {args.degree}")
    return PermGroup(args.degree, parse_generator_list(text, args.degree))


def _subgroup(args, sub_text: str) -> tuple[PermGroup, PermGroup]:
    Q = _group(args, args.group)
    P = Q.subgroup(parse_generator_list(sub_text, args.degree))
    return Q, P


def _print_stats(report) -> None:
    """One line on stderr: every entry of ``report.stats`` as ``k=v``,
    then the phase seconds."""
    head = f"row {report.row}: " if report.row is not None else ""
    counts = " ".join(f"{k}={v}" for k, v in report.stats.items())
    phases = " ".join(f"{k}={v:.4f}s" for k, v in report.phases.items())
    print(f"stats: {head}{counts}; phases {phases}", file=sys.stderr)


def cmd_induce(args) -> int:
    Q, P = _subgroup(args, args.sub)
    iota = hom(P, Q, P.generators)
    Xi, report = induce(identity_xmod(P), iota, _resolve_limit(args))
    if args.stats:
        _print_stats(report)
    if args.dump_xmod:
        with open(args.dump_xmod, "w") as fh:
            fh.write(xmod_to_json(Xi) + "\n")
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.render_text())
    return 0


def cmd_table(args) -> int:
    rows = None
    if args.row is not None:
        if not 1 <= args.row <= len(TABLE_SUBGROUPS):
            raise ParseError(f"--row must be in 1..{len(TABLE_SUBGROUPS)}")
        rows = [args.row]
    reports = run_table(_resolve_limit(args), args.verify, rows)
    if args.stats:
        for r in reports:
            _print_stats(r)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.render_text())
        if args.verify:
            print(f"verified: {len(reports)} row(s) match the reference values")
    return 0


def cmd_check(args) -> int:
    try:
        with open(args.path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.path}: {exc}")
    X = xmod_from_json(text)
    report = validate(X)
    print(report.describe())
    return 0 if report.ok else 1


def cmd_identify(args) -> int:
    G = _group(args, args.group)
    fp = fingerprint(G)
    name = small_group_name(G) or match_catalogue(G)
    if args.json:
        print(
            json.dumps(
                {"name": name, "fingerprint": fp.to_json_dict()}, indent=2
            )
        )
    else:
        print(f"order {fp.order}")
        print(f"name {name or 'unrecognized'}")
        ab = "x".join(f"C{d}" for d in fp.abelianization) or "1"
        print(f"abelianization {ab}")
        print(f"center order {fp.center_order}")
        print(f"derived order {fp.derived_order}")
        hist = ", ".join(f"{o}:{c}" for o, c in fp.order_histogram)
        print(f"element orders {hist}")
    return 0


def _iso_groups(args) -> int:
    ga, gb = args.group_pair
    G, H = _group(args, ga), _group(args, gb)
    witness = isomorphic(G, H)
    if witness is None:
        print("not isomorphic")
        return 1
    print("isomorphic")
    for g, im in zip(G.generators, witness.images):
        print(f"  {g} -> {im}")
    return 0


def _iso_xmods(X, Y) -> int:
    morphism = xmod_isomorphic(X, Y)
    if morphism is None:
        print("not isomorphic")
        return 1
    print("isomorphic")
    print("  f on M generators:")
    for m, im in zip(morphism.f.source.generators, morphism.f.images):
        print(f"    {m} -> {im}")
    print("  g on Q generators:")
    for q, im in zip(morphism.g.source.generators, morphism.g.images):
        print(f"    {q} -> {im}")
    return 0


def cmd_iso(args) -> int:
    pairs = {
        "--xmod": args.xmod_pair,
        "--sub": args.sub_pair,
        "--group-pair": args.group_pair,
    }
    given = [name for name, pair in pairs.items() if pair is not None]
    if len(given) != 1:
        raise ParseError(
            "pass exactly one of: two --xmod files, two --sub subgroups, "
            "or two --group-pair generator lists"
        )
    mode = given[0]
    if len(pairs[mode]) != 2:
        raise ParseError(f"{mode} must be given exactly twice")
    for option in _ISO_UNREAD[mode]:
        if getattr(args, option[2:]) is not None:
            raise ParseError(f"iso {mode} does not read {option}")
    # iso leaves these unset, so that an unread one shows
    if args.degree is None:
        args.degree = _DEFAULT_DEGREE
    if args.group is None:
        args.group = _DEFAULT_GROUP
    if args.group_pair is not None:
        return _iso_groups(args)
    if args.xmod_pair is not None:
        mods = []
        for path in args.xmod_pair:
            try:
                with open(path) as fh:
                    mods.append(xmod_from_json(fh.read()))
            except OSError as exc:
                raise ParseError(f"cannot read {path}: {exc}")
        return _iso_xmods(*mods)
    limit = _resolve_limit(args)
    mods = []
    for sub_text in args.sub_pair:
        Q, P = _subgroup(args, sub_text)
        iota = hom(P, Q, P.generators)
        Xi, _ = induce(identity_xmod(P), iota, limit)
        mods.append(Xi)
    return _iso_xmods(*mods)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmodlab",
        description=(
            "Crossed modules over finite permutation groups: induction "
            "along subgroup inclusions, axiom checking, identification "
            "and isomorphism search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group_flags(p):
        p.add_argument("--degree", type=int, default=_DEFAULT_DEGREE,
                       help="degree of the ambient group (default 4)")
        p.add_argument("--group", default=_DEFAULT_GROUP,
                       help="ambient group generators (default S4)")

    def limit_flag(p):
        p.add_argument("--limit", type=int, default=None,
                       help="coset limit (default XMODLAB_LIMIT or 65536)")

    def json_flag(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    def stats_flag(p):
        p.add_argument("--stats", action="store_true",
                       help="print each induction's subgroup order, coset "
                            "counts, presentation size and phase seconds "
                            "to stderr")

    p = sub.add_parser("induce", help="induce a crossed module along P <= Q")
    group_flags(p)
    limit_flag(p)
    json_flag(p)
    p.add_argument("--sub", required=True,
                   help="subgroup generators in cycle notation")
    p.add_argument("--dump-xmod", metavar="PATH",
                   help="also write the induced crossed module as JSON")
    stats_flag(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("table", help="compute the bundled S4 reference table")
    limit_flag(p)
    json_flag(p)
    p.add_argument("--row", type=int, default=None,
                   help="compute a single 1-based row")
    p.add_argument("--verify", action="store_true",
                   help="assert the computed values match the stored ones")
    stats_flag(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="validate a crossed module JSON file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("identify", help="fingerprint and name a group")
    group_flags(p)
    json_flag(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("iso", help="isomorphism search with witness")
    group_flags(p)
    limit_flag(p)
    p.set_defaults(degree=None, group=None)  # filled in by cmd_iso
    p.add_argument("--xmod", dest="xmod_pair", action="append",
                   metavar="PATH", default=None,
                   help="crossed module JSON file (give twice)")
    p.add_argument("--sub", dest="sub_pair", action="append",
                   metavar="GENS", default=None,
                   help="subgroup whose induced module to compare (give twice)")
    p.add_argument("--group-pair", dest="group_pair", action="append",
                   metavar="GENS", default=None,
                   help="plain group to compare (give twice)")
    p.set_defaults(func=cmd_iso)
    return parser


def _discard_stdout() -> None:
    """Point standard output's descriptor at the null device, so that the
    flush at interpreter exit does not meet the closed pipe again (the
    Python documentation's note on SIGPIPE).  A stream without a descriptor
    is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.func(args)
        # a reader that stopped early shows here, not at exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        _discard_stdout()
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CosetLimitExceeded as exc:
        print(f"coset limit exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationFailed as exc:
        print(f"internal validation failure: {exc}", file=sys.stderr)
        return 4
    except TableMismatch as exc:
        print(f"table mismatch: {exc}", file=sys.stderr)
        return 1
    except XmodlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
