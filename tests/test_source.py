"""Source-level checks on the package itself."""

import ast
import dataclasses
import doctest
import importlib
import importlib.util
from pathlib import Path

import cascadeho
from cascadeho import cli, serialize
from cascadeho.morphisms import trivial_cobordism
from cascadeho.scenarios import fixture, fixture_names


def test_no_bare_asserts_in_package():
    # python -O strips assert statements; cross-checks must raise explicitly
    sources = sorted(Path(cascadeho.__file__).parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_no_indented_json_dumps_in_package():
    # with an indent the standard library encodes in pure Python and leaves
    # reference cycles; serialize.json_text writes the same text and is the
    # one JSON text writer of the package
    sources = sorted(Path(cascadeho.__file__).parent.glob("*.py"))
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert offenders == []


def test_only_verify_square_zero_writes_the_square_zero_mark():
    # homology skips d o d for a complex marked _square_zero, so a second
    # writer could mark a complex whose check never ran.  The mark is
    # written by an attribute store or by its name as a string (as
    # object.__setattr__ takes it); apart from the field's declaration in
    # ChainComplex, only exact.verify_square_zero may do either
    found = []

    def scan(node, scope, name):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Attribute) and child.attr == "_square_zero"
                    and not isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Constant) and child.value == "_square_zero"
                    or isinstance(child, ast.Name) and child.id == "_square_zero"):
                found.append(f"{name}:{scope}")
            scan(child, inner, name)

    for path in sorted(Path(cascadeho.__file__).parent.glob("*.py")):
        scan(ast.parse(path.read_text(), str(path)), "", path.name)
    assert found == ["exact.py:ChainComplex", "exact.py:verify_square_zero"]


def test_rank_mod_stays_independent_of_the_z_elimination():
    # rank_mod cross-checks every reduction over F_p; if either path reached
    # the other, directly or through a helper of exact.py, a fault in the
    # shared code could pass its own check
    path = Path(cascadeho.__file__).parent / "exact.py"
    tree = ast.parse(path.read_text(), str(path))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def reached(name):
        seen, todo = set(), [name]
        while todo:
            for node in ast.walk(functions[todo.pop()]):
                ref = (node.id if isinstance(node, ast.Name)
                       else node.attr if isinstance(node, ast.Attribute) else None)
                if ref in functions and ref not in seen:
                    seen.add(ref)
                    todo.append(ref)
        return seen

    z_path = {"_eliminate", "invariant_factors"} | {
        name for name in functions if name.startswith("smith_")}
    assert z_path <= set(functions)
    assert reached("rank_mod") & z_path == set()
    assert "rank_mod" not in reached("_eliminate")


def test_only_cli_main_sets_the_collector_policy():
    # cli.main pauses the collector for one command and restores the caller's
    # setting; a second place that switched it (the library, say, which
    # in-process callers use directly) would override their policy
    found = []
    for path in sorted(Path(cascadeho.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "gc"):
                    found.append(f"{path.name}:{getattr(top, 'name', None)}:{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                    found.append(f"{path.name}:from gc import")
    assert sorted(found) == [
        "cli.py:main:disable", "cli.py:main:enable", "cli.py:main:isenabled",
    ]


def _tracing():
    """The benchmark's bench/tracing.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("cascadeho_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_finds_every_function():
    # bench/tracing.py wraps package functions by name; a renamed function
    # would silently read 0 in its per-layer metric
    with _tracing().Tracer() as tracer:
        pass
    assert tracer.missing == []


def test_benchmark_tracer_sees_the_walk_and_its_queries(tmp_path, capsys):
    # the traced preimage and walk counts read the wrapped functions; a
    # refactor that bypassed them would silently read 0, on the nch path or
    # on the morphism path the cobordism workload runs
    sys_ = fixture("one-circle").payload
    for doc, argv in ((sys_, ["nch"]),
                      (trivial_cobordism(sys_), ["morphism", "--format", "json"])):
        path = tmp_path / f"{argv[0]}.json"
        path.write_text(serialize.dumps(doc))
        with _tracing().Tracer() as tracer:
            assert cli.main([argv[0], str(path)] + argv[1:]) == 0, argv
        capsys.readouterr()
        for name in ("mbs.component_preimages", "cascades.enumerate_cascades"):
            assert tracer.functions[name].calls > 0, (argv, name)


def test_docstring_examples_pass():
    # the examples in module docstrings are documentation; keep them true
    names = sorted(p.stem for p in Path(cascadeho.__file__).parent.glob("*.py"))
    failed = attempted = 0
    for name in names:
        module = importlib.import_module(
            "cascadeho" if name == "__init__" else f"cascadeho.{name}"
        )
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted > 0


def test_every_record_field_has_one_json_key():
    # dumps writes only the attributes a record's field table names; a new
    # dataclass field missing from the table would be dropped silently
    for cls, rows in serialize._FIELDS.items():
        attrs = sorted(attr for _key, attr, _kind in rows)
        assert attrs == sorted(f.name for f in dataclasses.fields(cls)), cls
        keys = [key for key, _attr, _kind in rows]
        assert len(set(keys)) == len(keys), cls


def test_autonomous_builders_make_no_fractions(tmp_path, monkeypatch):
    # the block formulas, the U-tower, the EGH complex, the comparison and
    # their homology run on integers: no Fraction is made in autonomous or
    # exact once a document is loaded, and every matrix the builders return
    # holds nonzero ints inside its shape, as IntMatrix's own checks demand
    from fractions import Fraction

    from cascadeho import autonomous
    from cascadeho.exact import IntMatrix

    docs = [serialize.loads(serialize.dumps(fixture(name).payload))
            for name in fixture_names() if fixture(name).kind == "autonomous"]
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    paths = {r.doc.path for r in workloads.build("autonomous", 1, str(tmp_path))}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            docs.append(serialize.loads(fh.read()))
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    matrices, reports = [], []
    for data in docs:
        block = autonomous.block_differential(data)
        tower = autonomous.equivariant_differential(data, 3)
        egh = autonomous.egh_differential(data)
        lower = autonomous.equivariant_differential(data, 2)
        matrices += [c.differential for c in (block, tower, egh, lower)]
        matrices.append(tower.differential * tower.differential)
        reports.append(autonomous.compare_egh(data, 3))
    monkeypatch.undo()
    assert built == []
    assert all(report.ok for report in reports)
    for m in matrices:
        assert m == IntMatrix(m.rows, m.cols, m.entries)
        assert all(type(v) is int and v for v in m.entries.values())


def test_complex_builders_compare_no_fractions(tmp_path, monkeypatch):
    # check_structure and the validators compare lcm-scaled integer actions:
    # building a system's complex or a morphism's chain map compares no
    # Fraction, on the fixtures and the seed-1 cobordism benchmark documents
    from fractions import Fraction

    from cascadeho.cascades import build_ncc
    from cascadeho.morphisms import induced_chain_map

    docs = [(fixture(name).kind, serialize.loads(serialize.dumps(fixture(name).payload)))
            for name in fixture_names() if fixture(name).kind in ("mbs", "morphism")]
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    paths = {r.doc.path for r in workloads.build("cobordism", 1, str(tmp_path))}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            docs.append(("morphism", serialize.loads(fh.read())))
    compared = []
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        original = getattr(Fraction, op)

        def counting(a, b, _original=original, _op=op):
            compared.append(_op)
            return _original(a, b)

        monkeypatch.setattr(Fraction, op, counting)
    built = []
    for kind, doc in docs:
        built.append(build_ncc(doc) if kind == "mbs" else induced_chain_map(doc))
    monkeypatch.undo()
    assert compared == []
    assert sum(kind == "morphism" for kind, _doc in docs) >= 5
    assert len(built) == len(docs)


def _rational_parsing_calls(tree):
    """(function, line) of each ``.partition("/")``, ``.split("/")`` and
    ``Fraction(str(...))`` call in a module, with the name of the top-level
    function (or class) it sits in."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            splits = (isinstance(func, ast.Attribute)
                      and func.attr in ("partition", "split")
                      and args and isinstance(args[0], ast.Constant)
                      and args[0].value == "/")
            reparse = (isinstance(func, ast.Name) and func.id == "Fraction"
                       and args and isinstance(args[0], ast.Call)
                       and isinstance(args[0].func, ast.Name)
                       and args[0].func.id == "str")
            if splits or reparse:
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_ratio_is_the_one_rational_parser():
    # every rational of a document or an option goes through serialize._ratio;
    # a second parser could accept other strings or give other errors
    offenders, in_ratio = [], 0
    for path in sorted(Path(cascadeho.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for function, line in _rational_parsing_calls(tree):
            if (path.name, function) == ("serialize.py", "_ratio"):
                in_ratio += 1
            else:
                offenders.append(f"{path.name}:{line} in {function}")
    assert offenders == []
    assert in_ratio == 2  # its split at "/" and its Fraction(str(s)) fallback
