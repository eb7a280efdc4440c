"""Command-line front end.

Every subcommand prints one JSON document on stdout (sorted keys, so
identical invocations are byte-identical) and keeps human-readable chatter
on stderr.  Exit codes: 0 when the requested properties hold, 1 when a
checked property fails, 2 for unusable input.

COMMANDS declares every command's options once.  ``main`` reads a plain
command line straight from it: the command's words, then its options, each
an exact option string given once and followed by one value that does not
start with "-" (a flag takes none), every value of its type and in its
choices, every required option there.  Any other command line (``-h``, an
error, an abbreviated option, ``--opt=value``, a repeat, a value starting
with "-") goes to the argparse parser built from the same table, which
writes all help, usage and error text; argparse is imported only then.
"""

from __future__ import annotations

import json
import os
import sys
import types

from .diagrams import CORPUS_NAMES, load_diagram
from .homology import ZZ, Cochain2, CoefficientGroup, cocycle_basis, cohomology_group
from .invariants import (
    DiagramEngine,
    check_eps_alternation,
    coloring_table,
    is_trivial,
    triviality_certificate,
)
from .quandles import (
    MAX_ENUMERATION_ORDER,
    MalformedTableError,
    QuandleTable,
    class_representatives,
    enumerate_quandles,
    isomorphic_tables,
    load_quandle_file,
    orbits,
    table_doc,
    validate_quandle,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2

MODE_OF = {"neg": "minus", "pos": "plus"}


def _check_bound(name, value, top):
    if not 1 <= value <= top:
        raise ValueError("%s must be between 1 and %d" % (name, top))


def _emit(doc, fh=None):
    """Write doc as sorted, indented JSON to fh, stdout by default."""
    (fh or sys.stdout).write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_docs(outdir, named_docs):
    """Write each (file name, document) into outdir; the paths, in order."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for name, doc in named_docs:
        paths.append(os.path.join(outdir, name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            _emit(doc, fh)
    return paths


def _note(msg):
    sys.stderr.write(msg + "\n")


def _load_valid_quandle(path):
    """The table in path; its axiom scan is cached on it, so the groups that
    read ``betti`` do not scan again."""
    rows, _ = load_quandle_file(path)
    X = QuandleTable(rows)
    if not X.is_quandle:
        v = validate_quandle(rows).violations[0]
        raise MalformedTableError("table in %s violates axiom %d at %r" % (path, v.axiom, v.witness))
    return X


# --- quandle ----------------------------------------------------------------


def cmd_quandle_check(args):
    rows, _ = load_quandle_file(args.file)
    report = validate_quandle(rows)
    _emit(
        {
            "n": report.n,
            "valid": report.valid,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness)}
                for v in report.violations
            ],
        }
    )
    if not report.valid:
        v = report.violations[0]
        _note("not a quandle: axiom %d fails at %r" % (v.axiom, v.witness))
        return EXIT_PROPERTY
    part = orbits(QuandleTable(rows))
    _note(
        "valid quandle of order %d, %d orbit%s%s"
        % (report.n, part.count, "s"[: part.count != 1], ", connected" if part.connected else "")
    )
    return EXIT_OK


def cmd_quandle_info(args):
    X = _load_valid_quandle(args.file)
    part = orbits(X)
    _emit(
        {
            "n": X.n,
            "connected": part.connected,
            "orbit_count": part.count,
            "orbits": [list(b) for b in part.blocks],
            "involutory": X.is_involutory,
        }
    )
    _note("order %d, %d orbit(s), %sconnected" % (X.n, part.count, "" if part.connected else "not "))
    return EXIT_OK


def cmd_quandle_gen(args):
    found = enumerate_quandles(args.order, dedupe_iso=args.dedupe)
    outdir = args.out or "quandles%d" % args.order
    files = _write_docs(
        outdir, [("quandle%d_%03d.json" % (args.order, i), table_doc(X)) for i, X in enumerate(found)]
    )
    _emit({"order": args.order, "dedupe": args.dedupe, "count": len(files), "files": files})
    _note("wrote %d quandle file(s) to %s" % (len(files), outdir))
    return EXIT_OK


# --- cohomology and cocycles --------------------------------------------------


def cmd_cohomology(args):
    _check_bound("degree", args.n, 3)
    X = _load_valid_quandle(args.file)
    coeff = CoefficientGroup.parse(args.coeff)
    group = cohomology_group(X, args.flavor, MODE_OF[args.sign], args.n, coeff)
    _emit(
        {
            "n": args.n,
            "sign": args.sign,
            "flavor": args.flavor,
            "coeff": str(coeff),
            "group": group.to_doc(),
            "pretty": str(group),
        }
    )
    _note("H^%d (%s, %s) over %s: %s" % (args.n, args.flavor, args.sign, coeff, group))
    return EXIT_OK


def cmd_cocycles(args):
    X = _load_valid_quandle(args.file)
    coeff = CoefficientGroup.parse(args.coeff)
    basis = cocycle_basis(X, MODE_OF[args.sign], coeff)
    doc = {"sign": args.sign, "coeff": str(coeff), "count": len(basis)}
    if args.out:
        doc["files"] = _write_docs(
            args.out, [("cocycle_%03d.json" % i, phi.to_doc()) for i, phi in enumerate(basis)]
        )
    else:
        doc["basis"] = [phi.to_doc() for phi in basis]
    _emit(doc)
    _note("degree-2 %s-cocycles over %s: %d generator(s)" % (args.sign, coeff, len(basis)))
    return EXIT_OK


# --- invariant ----------------------------------------------------------------


def _cell_doc(X, diagram, mode_name, value):
    """The state-sum document of one (quandle, diagram, mode) cell."""
    return {
        "quandle": [list(r) for r in X.table],
        "diagram": diagram,
        "mode": mode_name,
        "coeff": str(value.coeff),
        "colorings": value.total,
        "invariant": value.to_doc(),
        "trivial": is_trivial(value),
    }


def cmd_invariant(args):
    X = _load_valid_quandle(args.quandle)
    d = load_diagram(args.diagram)
    with open(args.cocycle, "r", encoding="utf-8") as fh:
        phi = Cochain2.from_doc(json.load(fh))
    if args.coeff is not None and CoefficientGroup.parse(args.coeff) != phi.coeff:
        raise ValueError("--coeff %s does not match the cocycle file" % args.coeff)
    if phi.n != X.n:
        raise ValueError("cocycle is for order %d, quandle has order %d" % (phi.n, X.n))
    mode = MODE_OF[args.mode]
    engine = DiagramEngine(d, outer_face=args.outer_face)
    if args.outer_face is not None:
        engine.eps  # a face out of range fails here, before the search
    table = coloring_table(engine, X)
    value = table.state_sum(phi, mode)
    if not phi.is_cocycle(X, mode):
        _note("warning: the cochain is not a %s-cocycle; the sum is not an invariant" % args.mode)
    _emit(_cell_doc(X, args.diagram, args.mode, value))
    _note(
        "%d colorings, %s; search: %d branch arcs, %d nodes, %d of %d first-arc colors"
        % (
            value.total,
            "trivial" if is_trivial(value) else "nontrivial",
            table.branches,
            table.nodes,
            table.first_arc_colors,
            X.n,
        )
    )
    return EXIT_OK


# --- verify -------------------------------------------------------------------


def _triviality_required(mode, coeff):
    """Over Z both modes must be trivial on knots; in plus mode any odd
    modulus (no 2-torsion) must be as well."""
    if coeff == ZZ:
        return True
    return mode == "plus" and coeff.kind == "Zm" and coeff.modulus % 2 == 1


def _eps_identity_report(engines):
    """Failures of the shading-sign identities on each engine's diagram.

    The plus weight of the coboundary of a 1-cochain psi on a coloring rho
    is psi paired with the boundary of the coloring's plus pair counts, so
    it vanishes for every psi, coloring and quandle where the plus arc sums
    of ``DiagramEngine.premise`` do."""
    bad = []
    for name, engine in engines:
        if not check_eps_alternation(engine):
            bad.append({"diagram": name, "check": "alternation"})
        if engine.diagram.alternating and len(set(engine.eps)) > 1:
            bad.append({"diagram": name, "check": "constant-on-alternating"})
        if not engine.premise("plus"):
            bad.append({"diagram": name, "check": "psi-zero-sum"})
    return bad


def cmd_verify(args):
    """Sweep every quandle of order <= max order against the diagrams.

    Each isomorphism class is certified once per mode, on the knots' engines
    and the table class_representatives yields for it; only an elimination
    searches colorings.  The cocycle count is that of every labelled table
    in the class, so it gives the class's cells, pass or fail.  A pass means
    every cell of every table in the class is trivial; a plus-mode pass over
    Z makes every translated weight 0 too, so the translation lemmas hold on
    values, and "lemma_failures" stays an empty list (the tests check the
    lemmas on homology classes).  Weights do not change under relabeling, so
    a failing class can hold witnesses only in its own labelled tables,
    swept in its failing modes in (order, table) order.
    """
    _check_bound("max order", args.max_order, MAX_ENUMERATION_ORDER)
    coeff = CoefficientGroup.parse(args.coeff)
    if coeff.kind == "Q":
        raise ValueError("verify sweeps run over Z or Z/m")
    mode_names = ("neg", "pos") if args.mode == "both" else (args.mode,)
    classes = [c for n in range(1, args.max_order + 1) for c in class_representatives(n)]

    # each diagram is read and compiled once; the sweep runs on the knots
    # of the corpus, or on the one --expect-nontrivial diagram
    names = [args.expect_nontrivial] if args.expect_nontrivial else CORPUS_NAMES
    corpus = [(name, DiagramEngine(load_diagram(name))) for name in names]
    engines = [(name, e) for name, e in corpus if args.expect_nontrivial or e.diagram.is_knot()]
    counts = dict.fromkeys(mode_names, 0)
    worklist = []  # (labelled table, the modes its class failed in)
    certified = 0
    for X, size in classes:
        failing = []
        for mode_name in mode_names:
            ok, cocycles = triviality_certificate(X, [e for _, e in engines], MODE_OF[mode_name], coeff)
            counts[mode_name] += size * len(engines) * cocycles
            if not ok:
                failing.append(mode_name)
        certified += not failing
        if failing:
            worklist += [(Y, failing) for Y in isomorphic_tables(X)]

    bad = {mode_name: [] for mode_name in mode_names}
    for Y, failing in sorted(worklist, key=lambda item: (item[0].n, item[0].table)):
        tables = [(name, coloring_table(engine, Y)) for name, engine in engines]
        for mode_name in failing:
            mode = MODE_OF[mode_name]
            basis = cocycle_basis(Y, mode, coeff)
            for name, table in tables:
                for phi in basis:
                    value = table.state_sum(phi, mode)
                    if not is_trivial(value):
                        doc = _cell_doc(Y, name, mode_name, value)
                        doc["cocycle"] = [list(r) for r in phi.values]
                        bad[mode_name].append(doc)

    mode_docs = []
    witnesses = []
    failed = False
    for mode_name in mode_names:
        required = _triviality_required(MODE_OF[mode_name], coeff) and not args.expect_nontrivial
        if required and bad[mode_name]:
            failed = True
        mode_docs.append(
            {
                "mode": mode_name,
                "cells": counts[mode_name],
                "nontrivial": len(bad[mode_name]),
                "triviality_required": required,
            }
        )
        witnesses.extend(bad[mode_name][:20])

    if args.expect_nontrivial:
        eps_failures = []
        failed = failed or not witnesses
    else:
        eps_failures = _eps_identity_report(corpus)
        failed = failed or bool(eps_failures)

    doc = {
        "max_order": args.max_order,
        "coeff": str(coeff),
        "modes": mode_docs,
        "quandles": sum(size for _, size in classes),
        "diagrams": [name for name, _ in engines],
        "expect_nontrivial": args.expect_nontrivial,
        "lemma_failures": [],
        "eps_failures": eps_failures,
        "witnesses": witnesses,
        "ok": not failed,
    }
    _emit(doc)
    fallbacks = len(classes) - certified
    _note(
        "%d class%s certified, %d fallback%s"
        % (certified, "es" * (certified != 1), fallbacks, "s"[: fallbacks != 1])
    )
    if failed:
        _note("verify failed; see the document for witnesses")
        return EXIT_PROPERTY
    if args.expect_nontrivial:
        _note("found %d nontrivial value(s) on %s" % (len(witnesses), args.expect_nontrivial))
    else:
        _note("all checked identities hold")
    return EXIT_OK


# --- wiring -------------------------------------------------------------------

_FILE = (("-f", "--file"), {"dest": "file", "required": True})
_SIGN = (("--sign",), {"dest": "sign", "choices": ("neg", "pos"), "required": True})
_COEFF = (("--coeff",), {"dest": "coeff", "default": "Z"})

# The commands in help order: command words -> (help, the name of the cmd_*
# function that runs the command, or None for a group of commands, and the
# options as (option strings, keyword arguments of add_argument)).  The
# function is named, not held, so that one rebound in this module, as a
# tracer or a test may do, is the one that runs.
COMMANDS = {
    ("quandle",): ("validate, describe, or enumerate quandles", None, ()),
    ("quandle", "check"): ("axiom-check a table file", "cmd_quandle_check", (_FILE,)),
    ("quandle", "info"): ("order, orbits, connectedness", "cmd_quandle_info", (_FILE,)),
    ("quandle", "gen"): (
        "enumerate all quandles of one order",
        "cmd_quandle_gen",
        (
            (("--order",), {"dest": "order", "type": int, "required": True}),
            (
                ("--dedupe",),
                {
                    "dest": "dedupe",
                    "action": "store_true",
                    "default": False,
                    "help": "keep one table per isomorphism class",
                },
            ),
            (("--out",), {"dest": "out", "help": "output directory (default quandles<order>)"}),
        ),
    ),
    ("cohomology",): (
        "print one cohomology group",
        "cmd_cohomology",
        (
            _FILE,
            (("-n",), {"dest": "n", "type": int, "required": True, "help": "degree (1..3)"}),
            _SIGN,
            _COEFF,
            (("--flavor",), {"dest": "flavor", "choices": ("rack", "degenerate", "quandle"), "default": "quandle"}),
        ),
    ),
    ("cocycles",): (
        "degree-2 cocycle basis",
        "cmd_cocycles",
        (_FILE, _SIGN, _COEFF, (("--out",), {"dest": "out", "help": "write one JSON file per basis element"})),
    ),
    ("invariant",): (
        "evaluate a 2-cocycle state sum",
        "cmd_invariant",
        (
            (("-q", "--quandle"), {"dest": "quandle", "required": True}),
            (("-k", "--diagram"), {"dest": "diagram", "required": True, "help": "corpus name or PD file"}),
            (("--mode",), {"dest": "mode", "choices": ("neg", "pos"), "required": True}),
            (("--coeff",), {"dest": "coeff", "help": "must match the cocycle file if given"}),
            (("--cocycle",), {"dest": "cocycle", "required": True, "help": "cochain JSON file"}),
            (("--outer-face",), {"dest": "outer_face", "type": int}),
        ),
    ),
    ("verify",): (
        "run the triviality sweeps and identity checks",
        "cmd_verify",
        (
            (("--max-order",), {"dest": "max_order", "type": int, "default": 4}),
            _COEFF,
            (("--mode",), {"dest": "mode", "choices": ("neg", "pos", "both"), "default": "both"}),
            (
                ("--expect-nontrivial",),
                {
                    "dest": "expect_nontrivial",
                    "metavar": "DIAGRAM",
                    "help": "succeed iff the sweep finds a nontrivial value on this diagram",
                },
            ),
        ),
    ),
}

# where the parser stores each command word: the command, then the one
# under a group
_WORD_DESTS = ("command", "subcommand")


def _plain_args(argv):
    """What the parser makes of argv, read straight from COMMANDS when argv
    has the plain form; None for any other argv.

    The plain form is a command's words, then its options, each an exact
    option string, given once, and followed by one value that does not start
    with "-" (a store_true option takes none).  Every value converts with its
    type and lies in its choices, and every required option is there.  For
    these argvs the parser reads each token the same way, so the result has
    the attributes the parser's namespace has, set to the same values."""
    words = tuple(argv[:1])
    if words in COMMANDS and COMMANDS[words][1] is None:  # a group: its command follows
        words = tuple(argv[:2])
    _, func, options = COMMANDS.get(words, (None, None, ()))
    if func is None:
        return None
    ns = dict(zip(_WORD_DESTS, words))
    by_flag = {}
    for flags, kw in options:
        ns[kw["dest"]] = kw.get("default")
        by_flag.update(dict.fromkeys(flags, kw))
    given = set()
    rest = argv[len(words):]
    i = 0
    while i < len(rest):
        kw = by_flag.get(rest[i])
        if kw is None or kw["dest"] in given:
            return None
        given.add(kw["dest"])
        if kw.get("action") == "store_true":
            ns[kw["dest"]] = True
            i += 1
            continue
        if i + 1 == len(rest) or rest[i + 1].startswith("-"):
            return None
        value = rest[i + 1]
        if "type" in kw:
            try:
                value = kw["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        ns[kw["dest"]] = value
        i += 2
    if any(kw.get("required") and kw["dest"] not in given for _, kw in options):
        return None
    ns["func"] = globals()[func]
    return types.SimpleNamespace(**ns)


def build_parser(command=None):
    """The argument parser, built from COMMANDS.  Given a command's name,
    only that command is configured; the parser then reads that command's
    arguments, and prints its help and errors, as the full parser does."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="quandlekit",
        description="finite quandles, their (co)homology, and 2-cocycle knot invariants",
    )
    names = [words[0] for words in COMMANDS if len(words) == 1]
    one = command in names
    # every name stays in the usage line of an "unrecognized arguments" error
    metavar = "{%s}" % ",".join(names) if one else None
    groups = {(): parser.add_subparsers(dest=_WORD_DESTS[0], required=True, metavar=metavar)}
    for words, (help_text, func, options) in COMMANDS.items():
        if one and words[0] != command:
            continue
        sub = groups[words[:-1]].add_parser(words[-1], help=help_text)
        if func is None:
            groups[words] = sub.add_subparsers(dest=_WORD_DESTS[len(words)], required=True)
            continue
        for flags, kw in options:
            sub.add_argument(*flags, **kw)
        sub.set_defaults(func=globals()[func])
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RecursionError, ArithmeticError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        _note("error: %s" % msg)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
