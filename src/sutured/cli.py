"""Batch interface: validate and compute on diagram documents.

Every verb reads JSON documents in the surface-module schema, computes
through the library, and emits deterministic output (key-sorted JSON or
stable text).  Exit codes: 0 success, 1 domain rejection with a
machine-readable reason, 2 invariant violation with a repro dump.

Each command runs with Python's cyclic garbage collector paused: the
library makes no reference cycles, so every object it makes is freed
by reference counting, and the only cycles a command leaves are the
JSON indent encoder's closures, which the collector frees once it
resumes.  The caller's collector state is restored when ``main``
returns or raises.
"""

import argparse
import functools
import gc
import json
import sys

from . import darts, glue, modules, pieces, sfc, strands, surface
from .surface import ArcDiagram

ARC_DIAGRAMS = {
    "Z1": lambda: ArcDiagram([[], []], {}, "beta"),
    "Z2": lambda: ArcDiagram(
        [["p1", "p2", "p3"], ["q1"]],
        {"p1": 2, "p2": 1, "p3": 2, "q1": 1},
        "beta",
    ),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def _parse_diagram(path):
    with open(path, encoding="utf-8") as fh:
        return surface.parse(fh.read())


def _read_diagram(path):
    """Parse a diagram document, refused unless it validates: ``(d, its Darts build)``."""
    d = _parse_diagram(path)
    dx = darts.Darts(d)
    problems = surface.validate(d, darts=dx)
    if problems:
        raise ValueError("invalid diagram document: " + "; ".join(problems))
    return d, dx


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("document nests too deeply") from None


def _plural(n, noun):
    return f"{n} {noun}" + ("" if n == 1 else "es" if noun.endswith("s") else "s")


# ---------------------------------------------------------------------------
# verbs


def _cmd_validate(args):
    d = _parse_diagram(args.diagram)
    problems = surface.validate(d)
    if problems:
        _emit({"problems": problems}, args.format, problems)
        return 1
    _emit({"problems": []}, args.format, ["ok"])
    return 0


def _cmd_generators(args):
    d, dx = _read_diagram(args.diagram)
    names = [modules.format_generator(g) for g in sfc.generators(d, dx)]
    _emit({"count": len(names), "generators": names}, args.format, names)
    return 0


def _cmd_homology(args):
    d, dx = _read_diagram(args.diagram)
    hom = sfc.homology(sfc.differential(d, dx))
    by_class = {str(k): v for k, v in sorted(hom.by_class.items())}
    _emit(
        {"by_class": by_class, "total": hom.total},
        args.format,
        [f"rank {hom.total} ({_plural(len(by_class), 'Spin^c class')})"],
    )
    return 0


def _cmd_attach(args):
    d, dx = _read_diagram(args.diagram)
    spec = glue.spec_from_json(_read_json(args.spec))
    d2, _table, _x0 = glue.sigma_map(sfc.differential(d, dx), spec)
    sys.stdout.write(surface.serialize(d2))
    return 0


def _cmd_glue(args):
    d, dx = _read_diagram(args.diagram)
    spec = glue.spec_from_json(_read_json(args.spec))
    if spec.kind == "1":
        table = glue.glue_one_handle(sfc.differential(d, dx), spec.p, spec.q)
        payload = {
            "kind": "1",
            "table": table.render(),
            "generators": len(table.target.gens),
            "rank": sfc.homology(table.target).total,
        }
        lines = payload["table"] + [f"rank {payload['rank']}"]
    elif spec.kind == "2":
        base = sfc.differential(d, dx)
        rec = glue.glue_two_handle(base, spec, *glue.direct_two_handle(d, spec))
        ranks = dict(rec["identityReport"]["ranks"], H3=sfc.homology(rec["H3"]).total)
        stages = {
            stage: {"generators": len(rec[stage].gens), "rank": ranks[stage]}
            for stage in ("H3", "H4", "H5", "H6")
        }
        payload = {
            "kind": "2",
            "identityReport": rec["identityReport"],
            "joinTable": rec["joinTable"].render(),
            "stages": stages,
            "x0": rec["x0"],
        }
        rep = rec["identityReport"]
        lines = payload["joinTable"] + [
            "identity "
            + ("ok" if rep["ok"] else "FAILED")
            + f" on {_plural(rep['cycles'], 'cycle')}",
            "stage ranks "
            + " ".join(f"{s}={stages[s]['rank']}" for s in ("H3", "H4", "H5", "H6")),
        ]
    else:
        raise ValueError("glue takes a 1- or 2-handle spec; bypasses go to attach")
    _emit(payload, args.format, lines)
    return 0


def _cmd_algebra(args):
    if args.arc_diagram not in ARC_DIAGRAMS:
        raise ValueError(f"unknown arc diagram {args.arc_diagram!r}")
    z = ARC_DIAGRAMS[args.arc_diagram]()
    summary = strands.algebra_summary(z)
    lines = [
        f"summand {sm['strands']}: rank {sm['rank']}: " + " ".join(sm["basis"])
        for sm in summary["summands"]
    ]
    if args.table:
        table = []
        movers = [b for b in strands.basis(z) if b.strand_count() == 1]
        for x in movers:
            for y in movers:
                table.append(
                    f"{strands.label(x)} · {strands.label(y)} = "
                    f"{strands.render(strands.multiply(x, y))}"
                )
        summary = dict(summary, table=table)
        lines += table
    _emit(summary, args.format, lines)
    return 0


def _cmd_bordered(args):
    d, dx = _read_diagram(args.diagram)
    sector = None
    if args.sector:
        try:
            sector = tuple(int(x) for x in args.sector.split(","))
        except ValueError:
            raise ValueError(f"--sector takes comma-separated ints, not {args.sector!r}") from None
    bs = modules.bordered_invariant(d, args.kind, sector=sector, darts=dx)
    dump = modules.dump(bs).splitlines()
    payload = {
        "kind": bs.kind,
        "generators": bs.generator_names(),
        "dump": dump,
    }
    _emit(payload, args.format, dump or ["(no structure lines)"])
    return 0


def _cmd_verify_equivalence(args):
    d, dx = _read_diagram(args.diagram)
    plan = _read_json(args.handles)
    if not isinstance(plan, list):
        raise ValueError("handle plan must be a JSON list of handle specs")
    specs = [glue.spec_from_json(obj) for obj in plan]
    report = glue.equivalence_report(d, specs, darts=dx)
    lines = []
    for block, check in zip(report["stages"], report["checks"]):
        lines.append(
            f"stage {block['stage']} [{block['kind']}]: rank {block['rank']} "
            + ("ok" if glue.stage_ok(check) else "DISAGREES")
        )
    if report["eh"] is not None:
        eh = report["eh"]
        lines.append(
            "EH: " + ("nonvanishing" if eh.get("nonvanishing") else "vanishing")
            if eh["ok"]
            else f"EH: ERROR {eh['error']}"
        )
    lines.append("equivalent" if report["ok"] else "NOT EQUIVALENT")
    _emit(report, args.format, lines)
    if not report["ok"]:
        repro = report["counterexample"] or {"eh": report["eh"]}
        print(
            json.dumps({"repro": repro}, sort_keys=True, indent=1),
            file=sys.stderr,
        )
        return 2
    return 0


def _example_family():
    names = sorted(pieces.catalog()) + ["fix-bigonpair", "fix-disk", "fix-stab"]
    return names + ["disk-h2", "disk-h3", "disk-h4", "disk-h5", "disk-h6"]


def _disk_stages() -> dict:
    """disk-h3 … disk-h6, the 2-handle stages of fix-disk's two-handle
    sequence, from one run of its staged pipeline.  H3 and H6 are the
    record's; its H4 and H5 are box tensor products, so their diagrams
    are glued here: the 2-handle block, and the twist block rt2, onto H3."""
    base, handle = glue.one_handled(pieces.build("fix-disk"))
    spec = glue.two_handle_spec(base, handle)
    rec = glue.glue_two_handle(base, spec, *glue.direct_two_handle(base, spec))
    h3 = rec["H3"].diagram
    return {
        "disk-h3": h3,
        "disk-h4": surface.concatenate_bordered(glue._handle_blocks("2").block, h3),
        "disk-h5": surface.concatenate_bordered(pieces.rt2(), h3),
        "disk-h6": rec["H6"].diagram,
    }


def _build_example(name, disk=None):
    """The diagram of example ``name``.  A 2-handle stage is read from
    ``disk``, the stages of one pipeline run, or from a run of its own."""
    if name.startswith("disk-h"):
        if name not in _example_family():  # refused before the pipeline runs
            raise ValueError(f"unknown example {name!r}")
        if name == "disk-h2":
            return glue.one_handled(pieces.build("fix-disk"))[0]
        return (disk or _disk_stages())[name]
    try:
        return pieces.build(name)
    except KeyError:
        raise ValueError(f"unknown example {name!r}") from None


def _cmd_examples(args):
    if args.name is None:
        names = _example_family()
        if args.out_dir:
            disk = _disk_stages()
            for n in names:
                path = f"{args.out_dir}/{n}.json"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(surface.serialize(_build_example(n, disk)))
        _emit({"names": names}, args.format, names)
        return 0
    text = surface.serialize(_build_example(args.name))
    if args.out_dir:
        with open(f"{args.out_dir}/{args.name}.json", "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser():
    """The verb parser, built once per process: ``parse_args`` leaves it
    unchanged, so every ``main`` call in one process shares it."""
    parser = _Parser(prog="sutured", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, func, **kw):
        p = sub.add_parser(verb, **kw)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "text"), default="text")
        return p

    for verb, func, text in (
        ("validate", _cmd_validate, "check a diagram document, print its problems"),
        ("generators", _cmd_generators, "list the generators of a diagram"),
        ("homology", _cmd_homology, "sutured Floer homology ranks of a diagram"),
    ):
        add(verb, func, help=text).add_argument("diagram")

    p = add("attach", _cmd_attach, help="attach a handle, print the new diagram")
    p.add_argument("diagram")
    p.add_argument("--spec", required=True, help="handle spec JSON file")

    p = add("glue", _cmd_glue, help="run the staged gluing pipeline")
    p.add_argument("diagram")
    p.add_argument("--spec", required=True, help="handle spec JSON file")

    p = add("algebra", _cmd_algebra, help="strands algebra summary")
    p.add_argument("--arc-diagram", required=True)
    p.add_argument("--table", action="store_true")

    p = add("bordered", _cmd_bordered, help="bordered invariant of a diagram")
    p.add_argument("diagram")
    p.add_argument("--kind", required=True, choices=("D", "A", "AA"))
    p.add_argument("--sector", help="comma-separated occupied-arc counts")

    p = add("verify-equivalence", _cmd_verify_equivalence,
            help="compare the direct and staged routes")
    p.add_argument("diagram")
    p.add_argument("--handles", required=True, help="JSON list of handle specs")

    p = add("examples", _cmd_examples, help="emit builtin diagrams")
    p.add_argument("name", nargs="?")
    p.add_argument("--out-dir")
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The cyclic collector is paused for the command's length, since
    nothing the library makes needs it (the JSON indent encoder's
    closures wait for it to resume), and put back as it was found, on
    or off, however the command ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(json.dumps({"error": str(err)}, sort_keys=True), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(json.dumps({"error": str(err)}, sort_keys=True), file=sys.stderr)
        return 1
    except AssertionError as err:
        dump = {"bug": str(err), "argv": argv if argv is not None else sys.argv[1:]}
        print(json.dumps(dump, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
