"""Command-line interface.

Subcommands
-----------
expand
    Normal-order a power of (multiplier * derivative) and print the
    coefficient of each derivative power, or the fully specialized
    polynomial when --at-d is given.
triangle
    Stream the rows of a coefficient family in text, csv or json lines.
enumerate
    Stream combinatorial objects with their statistics as json lines
    (or a compact text form).
verify
    Run one named check or the whole registry; exit 0 only if all pass.

Exit codes: 0 success, 1 verification failure, 2 usage error.  All
diagnostics go to stderr; identical invocations print identical bytes.

Each command is a new process, so the module loads only what building the
parser needs (``combinat``, for the ``--objects`` choices, and ``poly``
through it), and each handler imports its own layer when it runs.  The
three help texts that name registry entries (grammar presets, families,
check ids) are completed when help is formatted, so ``--help`` is the one
path that loads those registries without running a command.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice, tee
from operator import itemgetter
from typing import Iterable, List, Optional

from .combinat import _ENUMERATORS, CAPS, SCANS

__all__ = ["main", "build_parser"]


# -- expand ----------------------------------------------------------------


def _cmd_expand(args: argparse.Namespace, out) -> int:
    from .grammar import Grammar
    from .normal_form import normal_order_power
    from .poly import _SYMBOL, parse, variable

    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.at_d is not None and not _SYMBOL.fullmatch(args.at_d):
        raise ValueError(f"--at-d must be a symbol name, got {args.at_d!r}")
    text = args.grammar
    grammar = Grammar.from_text(text) if "->" in text else Grammar.preset(text)
    w = parse(args.w)
    nf = normal_order_power(w, grammar, args.n)
    result = nf if args.at_d is None else nf.specialize(variable(args.at_d))
    if args.format == "json":
        print(json.dumps(result.to_json_dict(), sort_keys=True), file=out)
    else:
        print(result.render(), file=out)
    return 0


# -- triangle --------------------------------------------------------------


def _cmd_triangle(args: argparse.Namespace, out) -> int:
    from .poly import Polynomial
    from .triangles import family_rows, family_spec

    # family_rows checks the family and --n at the call, before any output.
    family, rows = args.family, family_rows(args.family, args.n)
    spec = family_spec(family)
    names = spec.indices
    # Each format fills one %-template per entry: n's slot is %d, filled once
    # per row, and the index and entry slots are %%s.  `columns` names the
    # index in the template's order; csv's k, l and j columns and json's
    # sorted keys differ from the index order for beta only.
    sep = end = ""
    if args.format == "text":
        columns, sep, end = names, ",", "\n"
        cell = f"({','.join(['%d', *['%%s'] * len(names)])})=%%s"
    elif args.format == "csv":
        out.write("family,n,k,l,j,entry\n")
        columns = [c for c in "klj" if c in names]
        cell = f"{family},%d,{','.join('%%s' if c in names else '' for c in 'klj')},%%s\n"
    else:
        columns = sorted(names)
        index = ", ".join(f'"{c}": %%s' for c in columns)
        cell = f'{{"entry": %%s, "family": "{family}", "index": {{{index}}}, "n": %d}}\n'
    order = [names.index(c) for c in columns]
    reorder = itemgetter(*order) if order != sorted(order) else None
    entry_first = args.format == "json"
    # A text row is one line, csv and json a line per entry; a row is written
    # 512 entries at a time, so no deep row is held as one text.  Rows come
    # in index order but beta's, which its dict step (``columns`` False)
    # leaves in step order.
    for n, row in rows:
        fill = (cell % n).__mod__
        keys = list(row) if spec.columns else sorted(row)
        quote = entry_first and isinstance(row[keys[0]], Polynomial)
        for i in range(0, len(keys), 512):
            part = keys[i:i + 512]
            idx = part if reorder is None else map(reorder, part)
            vals = map(row.__getitem__, part)
            if quote:
                vals = map(json.dumps, map(Polynomial.render, vals))
            pairs = (zip(vals), idx) if entry_first else (idx, zip(vals))
            text = sep.join(map(fill, map(tuple.__add__, *pairs)))
            out.write(text + (sep if i + len(part) < len(keys) else end))
    return 0


# -- enumerate -------------------------------------------------------------

OBJECT_NAMES = tuple(sorted(SCANS)) + tuple(sorted(set(CAPS) - set(SCANS)))


def _object_id(obj: tuple) -> str:
    """A word's letters joined by ``,``; a tuple of blocks, its words joined by ``|``."""
    if obj and isinstance(obj[0], tuple):
        return "|".join(map(_object_id, obj))
    return ",".join(map(str, obj))


def _cmd_enumerate(args: argparse.Namespace, out) -> int:
    from .forests import census, grow_forests

    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    wanted: Optional[List[str]] = None
    if args.stats is not None:
        wanted = [s.strip() for s in args.stats.split(",") if s.strip()]
        if not wanted:
            raise ValueError("--stats must name at least one statistic")
    # Each record fills one %-template built here: object ids, forest encodings
    # and statistic names are plain ASCII with nothing to escape in json.  The
    # walk is teed, one copy per field, and zip builds each record's fields.
    if args.objects not in SCANS:
        if wanted is not None:
            raise ValueError("--stats applies to statistic-bearing objects, not forests")
        words, copy = tee(grow_forests(args.objects.removesuffix("-forests"), args.n))
        # census(word) + (word,) is x, y, z, trees, word; the template's order
        # is x, y, z, word, trees for json and word, trees, x, y, z for text.
        if args.format == "json":
            line = '{"leaves": {"x": %d, "y": %d, "z": %d}, "object": "%s", "trees": %d}\n'
            order = itemgetter(0, 1, 2, 4, 3)
        else:
            line, order = "%s trees=%d x=%d y=%d z=%d\n", itemgetter(4, 3, 0, 1, 2)
        fields = map(order, map(tuple.__add__, map(census, words), zip(copy)))
        _write_batched(out, map(line.__mod__, fields))
        return 0
    # Over its cap, the enumerator raises ValueError when called, before any output.
    walk = _ENUMERATORS[args.objects](args.n)
    scans = SCANS[args.objects]
    missing = [s for s in wanted or () if s not in scans]
    if missing:
        known = ", ".join(sorted(scans))
        raise ValueError(f"unknown statistic(s) {', '.join(missing)}; known: {known}")
    names = sorted(scans if wanted is None else set(wanted))
    if args.format == "json":
        line = '{"object": "%%s", "stats": {%s}}\n' % ", ".join(f'"{s}": %d' for s in names)
    else:
        line = " ".join(["%s", *(f"{s}=%d" for s in names)]) + "\n"
    objs, *copies = tee(walk, len(names) + 1)
    fields = zip(map(_object_id, objs), *[map(scans[s], c) for s, c in zip(names, copies)])
    _write_batched(out, map(line.__mod__, fields))
    return 0


def _write_batched(out, records) -> None:
    """Write the records, none of them empty, 512 per ``write``."""
    while text := "".join(islice(records, 512)):
        out.write(text)


# -- verify ----------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace, out) -> int:
    from .checks import render_report, results_to_json, run_all, run_check

    if args.check is not None:
        if args.profile is not None:
            raise ValueError("--profile applies to a whole-registry run")
        results = [run_check(args.check, args.n_max)]
    elif args.n_max is not None:
        raise ValueError("--n-max applies to a single --check run")
    else:
        results = run_all(args.profile or "full")
    if args.format == "json":
        print(json.dumps(results_to_json(results), indent=2, sort_keys=True), file=out)
    else:
        print(render_report(results), file=out)
    return 0 if all(r.passed for r in results) else 1


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that completes some help texts when help is formatted.

    ``late_help`` pairs an option with a function returning its full help
    text, so a registry named in that text is imported only when help is
    printed.  Each help is a plain string whenever argparse reads it.
    """

    late_help: tuple = ()

    def format_help(self) -> str:
        for action, text in self.late_help:
            action.help = text()
        return super().format_help()


def _grammar_help() -> str:
    from .grammar import PRESETS

    return f"inline rules 'x->y;y->y' or a preset name ({', '.join(sorted(PRESETS))})"


def _family_help() -> str:
    from .triangles import FAMILY_NAMES

    return f"one of: {', '.join(FAMILY_NAMES)}"


def _check_help() -> str:
    from .checks import check_ids

    return f"run one check id; known: {', '.join(check_ids())}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="normord",
        description="Normal ordering of grammar-induced derivative operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="normal-order a power of multiplier * derivative")
    p.add_argument("--w", required=True, help="multiplier polynomial, e.g. 'x' or 'x*y'")
    p.late_help = ((p.add_argument("--grammar", required=True), _grammar_help),)
    p.add_argument("--n", type=int, required=True, help="operator power")
    p.add_argument(
        "--at-d",
        metavar="SYMBOL",
        help="substitute this symbol for the derivative slot and print one polynomial",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("triangle", help="stream coefficient rows of a family")
    p.late_help = ((p.add_argument("--family", required=True), _family_help),)
    p.add_argument("--n", type=int, required=True, help="largest level to print")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("enumerate", help="stream combinatorial objects with statistics")
    p.add_argument("--objects", required=True, choices=OBJECT_NAMES)
    p.add_argument("--n", type=int, required=True, help="object size")
    p.add_argument("--stats", help="comma-separated subset of statistics to print")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the identity check registry")
    p.late_help = ((p.add_argument("--check"), _check_help),)
    p.add_argument("--n-max", type=int, help="largest level for a single --check run")
    p.add_argument("--profile", choices=("quick", "full"),
                   help="depths for a whole-registry run (default: full)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(None if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, sys.stdout)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
