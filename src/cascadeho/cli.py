"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 internal inconsistency
(d^2 != 0, failed chain-map or comparison identity), 3 usage / I/O / schema
error.  ``-`` stands for stdin/stdout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from . import serialize
from .autonomous import (
    AutonomousData,
    block_differential,
    compare_egh,
    egh_homology,
    equivariant_homology,
)
from .cascades import build_ncc, nch_homology
from .exact import homology
from .errors import (
    CascadehoError,
    ChainMapFailure,
    InputError,
    SquareNonzero,
    ValidationFailure,
)
from .mbs import MorseBottSystem, assign_basepoints
from .morphisms import MorphismData, induced_chain_map
from .scenarios import fixture, fixture_names, period_doubling, prequantization


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from None


def _write(path: str, text: str):
    if path == "-" or path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from None


def _load(path: str, expect_kind=None):
    obj = serialize.loads(_read(path))
    kind = serialize.kind_of(obj)
    if expect_kind and kind not in expect_kind:
        raise InputError(
            f"{path}: expected a {' or '.join(expect_kind)} document, got {kind}"
        )
    return obj


def _emit(args, text_lines, payload):
    if args.format == "json":
        print(serialize.json_text(payload))
    else:
        for line in text_lines:
            print(line)


def _homology_json(result, extra=None):
    groups = [
        {
            "class": cls,
            "grading": grading,
            "free": free,
            "torsion": list(torsion),
        }
        for (cls, grading), (free, torsion) in sorted(result.groups.items())
    ]
    out = {"groups": groups}
    if result.grading_modulus:
        out["grading_modulus"] = result.grading_modulus
    if extra:
        out.update(extra)
    return out


def _homology_text(result, header, stable=None):
    lines = [header]
    lines.extend(result.describe())
    if stable is not None:
        lines.append(f"stable range: degrees <= {stable}")
    return lines


def _violations_report(args, violations):
    _emit(
        args,
        [f"{v.code} at {v.location}: {v.message}" for v in violations],
        {
            "ok": False,
            "violations": [
                {"code": v.code, "location": v.location, "message": v.message}
                for v in violations
            ],
        },
    )


def _cmd_validate(args):
    obj = _load(args.file)
    # each builder validates the document (main reports a ValidationFailure),
    # then checks d^2 = 0 of every complex and a morphism's chain-map identity
    if isinstance(obj, MorseBottSystem):
        build_ncc(obj)
    elif isinstance(obj, AutonomousData):
        block_differential(obj)
    else:
        induced_chain_map(obj)
    _emit(args, ["ok"], {"ok": True})
    return 0


def _cmd_nch(args):
    obj = _load(args.file, ("mbs", "autonomous"))
    if isinstance(obj, AutonomousData):
        if args.basepoints is not None or args.action_bound:
            raise InputError(
                "--basepoints/--action-bound only apply to mbs documents"
            )
        result = homology(block_differential(obj))
    else:
        if args.basepoints is not None:
            obj = assign_basepoints(obj, args.basepoints)
        bound = serialize._frac(args.action_bound) if args.action_bound else None
        result = nch_homology(obj, action_bound=bound)
    if args.homotopy_class is not None:
        result = type(result)(
            {
                k: v
                for k, v in result.groups.items()
                if k[0] == args.homotopy_class
            },
            result.grading_modulus,
        )
    _emit(
        args,
        _homology_text(result, "nonequivariant homology:"),
        _homology_json(result),
    )
    return 0


def _cmd_egh(args):
    data = _load(args.file, ("autonomous",))
    ranks = egh_homology(data)
    lines = ["cylindrical homology ranks over Q:"]
    lines += [
        f"{cls or '(trivial class)'} degree {g}: rank {r}"
        for (cls, g), r in sorted(ranks.items())
    ]
    _emit(
        args,
        lines,
        {
            "ranks": [
                {"class": cls, "grading": g, "rank": r}
                for (cls, g), r in sorted(ranks.items())
            ]
        },
    )
    return 0


def _umax(args) -> int:
    if args.umax < 1:
        raise InputError(f"--umax must be >= 1, got {args.umax}")
    return args.umax


def _cmd_chs1(args):
    data = _load(args.file, ("autonomous",))
    result, stable = equivariant_homology(data, _umax(args))
    unstable = sorted(
        {k for k in result.groups if k[1] > stable}
    )
    lines = _homology_text(result, "equivariant homology:", stable)
    if unstable:
        lines.append(
            "unstable (may change with --umax): "
            + ", ".join(f"{cls}/{g}" if cls else str(g) for cls, g in unstable)
        )
    _emit(
        args,
        lines,
        _homology_json(
            result,
            {
                "stable_range": stable,
                "unstable_gradings": [list(k) for k in unstable],
            },
        ),
    )
    return 0


def _cmd_compare(args):
    data = _load(args.file, ("autonomous",))
    report = compare_egh(data, _umax(args))
    _emit(
        args,
        report.describe(),
        {
            "ok": report.ok,
            "stable_range": report.stable_range,
            "steps": [
                {"name": s.name, "ok": s.ok, "details": s.details}
                for s in report.steps
            ],
        },
    )
    return 0 if report.ok else 2


def _cmd_morphism(args):
    phi = _load(args.phi, ("morphism",))
    if args.source or args.target:
        if not (args.source and args.target):
            raise InputError("give both source and target files, or neither")
        phi = MorphismData(
            source=_load(args.source, ("mbs",)),
            target=_load(args.target, ("mbs",)),
            phi0=phi.phi0,
            phi1=phi.phi1,
            allow_equal_action=phi.allow_equal_action,
        )
    cm = induced_chain_map(phi)
    entries = sorted(
        (cm.source_complex.generators[j].gid, cm.target_complex.generators[i].gid, v)
        for (i, j), v in cm.matrix.entries.items()
    )
    _emit(
        args,
        ["chain map verified (d phi = phi d):"]
        + [f"{src} -> {v} * {tgt}" for src, tgt, v in entries],
        {
            "ok": True,
            "identity": cm.is_identity(),
            "entries": [
                {"source": src, "target": tgt, "coefficient": v}
                for src, tgt, v in entries
            ],
        },
    )
    return 0


def _cmd_scenario(args):
    if args.kind == "prequantization":
        obj = prequantization(args.g, args.e, args.d)
    elif args.kind == "period-doubling":
        obj = period_doubling(args.side, args.c, args.allow_even)
    elif args.kind == "fixture":
        obj = fixture(args.name).payload
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown scenario kind {args.kind!r}")
    _write(args.output, serialize.dumps(obj))
    return 0


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by later calls:
    parsing leaves no state in it."""
    p = argparse.ArgumentParser(
        prog="cascadeho",
        description="Exact chain complexes for combinatorial orbit systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def reporting(sp):
        sp.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format",
        )

    sp = sub.add_parser("validate", help="run all structural checks on a document")
    sp.add_argument("file")
    reporting(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("nch", help="nonequivariant homology of a system")
    sp.add_argument("file")
    sp.add_argument("--action-bound", help="truncate to generators below this action")
    sp.add_argument("--class", dest="homotopy_class", help="restrict to one class")
    sp.add_argument(
        "--basepoints", type=int, metavar="SEED",
        help="reassign generic basepoints from this seed",
    )
    reporting(sp)
    sp.set_defaults(func=_cmd_nch)

    sp = sub.add_parser("egh", help="cylindrical homology of autonomous data")
    sp.add_argument("file")
    reporting(sp)
    sp.set_defaults(func=_cmd_egh)

    sp = sub.add_parser("chs1", help="equivariant homology of autonomous data")
    sp.add_argument("file")
    sp.add_argument("--umax", type=int, required=True, help="U-power truncation")
    reporting(sp)
    sp.set_defaults(func=_cmd_chs1)

    sp = sub.add_parser(
        "compare", help="compare equivariant and cylindrical homology"
    )
    sp.add_argument("file")
    sp.add_argument("--umax", type=int, required=True)
    reporting(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("morphism", help="induced chain map of cobordism data")
    sp.add_argument("phi", help="morphism document")
    sp.add_argument("source", nargs="?", help="override source system document")
    sp.add_argument("target", nargs="?", help="override target system document")
    reporting(sp)
    sp.set_defaults(func=_cmd_morphism)

    sp = sub.add_parser("scenario", help="emit a built-in scenario as JSON")
    kind = sp.add_subparsers(dest="kind", required=True)

    k = kind.add_parser("prequantization")
    k.add_argument("--g", type=int, required=True)
    k.add_argument("--e", type=int, required=True)
    k.add_argument("--d", type=int, required=True)

    k = kind.add_parser("period-doubling")
    k.add_argument("--side", choices=("minus", "plus"), required=True)
    k.add_argument("--c", type=int, default=1)
    k.add_argument("--allow-even", action="store_true")

    k = kind.add_parser("fixture")
    k.add_argument("--name", required=True, choices=fixture_names())

    for k_ in kind.choices.values():
        k_.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=_cmd_scenario)
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 3 if err.code else 0
    # A command makes no reference cycle, in a text or a JSON report
    # (tests/test_cli.py counts both on every fixture).  So reference counting
    # frees what a command drops, and a collector pass would only re-scan what
    # is still alive: the collector sits out the command, and the caller's
    # setting returns on every way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ValidationFailure as err:
        _violations_report(args, err.violations)
        return 1
    except (SquareNonzero, ChainMapFailure) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CascadehoError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
