"""Source-level checks on the package itself."""

import ast
import dataclasses
import doctest
import importlib
from pathlib import Path

import cascadeho
from cascadeho import autonomous, cascades, cli, mbs, morphisms, serialize
from cascadeho.morphisms import trivial_cobordism
from cascadeho.scenarios import fixture, fixture_names
from benchdocs import tracing, workloads


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


def test_only_enumerate_cascades_pops_a_partial_chain_stack():
    # the cascade walk is one function; a second function of cascades.py
    # that popped a stack of partial chains would be a second walk, whose
    # counts could drift from the first
    path = Path(cascades.__file__)
    tree = ast.parse(path.read_text(), str(path))
    poppers = [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "pop"
    ]
    assert poppers == ["enumerate_cascades"]


def _references(tree, names):
    """(name, scope) of each read of one of ``names`` in a module, as a
    bare name or as an attribute (a call, or a function passed on), where
    scope is the dotted name of the enclosing function or class."""
    found = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in names and isinstance(child.ctx, ast.Load):
                found.append((name, scope))
            scan(child, inner)

    scan(tree, "")
    return found


def test_only_the_request_entry_points_scale_the_actions():
    # a request scales the actions of all its layers in one call and makes
    # each basepoint key once: mbs.orbit_tables for the Morse-Bott builders
    # (and for a validator called alone), autonomous._require_valid for the
    # autonomous ones; every later step reads those tables.  A second
    # scaling would redo the work, on a scale of its own
    planted = ast.parse(
        "def a(x):\n    return mbs.scaled_actions(x)\n"
        "class B:\n    def c(self):\n        scale = scaled_actions\n"
        "        return [s.basepoint(o) for o in s.orbits]\n"
        "def d(x):\n    'scaled_actions'\n    x.scaled_actions = 1\n"
        "def orbit_tables(*systems):\n    return scaled_actions(*systems)\n"
    )
    assert _references(planted, {"scaled_actions", "basepoint"}) == [
        ("scaled_actions", "a"), ("scaled_actions", "B.c"), ("basepoint", "B.c"),
        ("scaled_actions", "orbit_tables")]
    found = set()
    for path in sorted(Path(cascadeho.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found.update((name, f"{path.name}:{scope}") for name, scope in _references(
            tree, {"scaled_actions", "orbit_tables", "basepoint"}))
    assert found == {
        ("scaled_actions", "mbs.py:orbit_tables"),
        ("scaled_actions", "autonomous.py:validate_data"),
        ("scaled_actions", "autonomous.py:_require_valid"),
        ("scaled_actions", "autonomous.py:bv_operator"),
        ("orbit_tables", "cascades.py:build_ncc"),
        ("orbit_tables", "morphisms.py:induced_chain_map"),
        ("orbit_tables", "mbs.py:validate_system"),
        ("orbit_tables", "morphisms.py:validate_morphism"),
        ("basepoint", "mbs.py:orbit_tables"),
        # signed_preimages, which no request calls
        ("basepoint", "mbs.py:signed_preimages"),
    }


def test_only_the_graph_builder_asks_preimage_queries():
    # CascadeGraph._edges asks each (pair, component, side) once, as the
    # graph is built, and every walk reads the exit tables it fills; apart
    # from it only signed_preimages, which no request calls, reads the
    # query.  A second reader, such as a table built on first use, would be
    # a second query path beside the first
    planted = ast.parse(
        "from .mbs import component_preimages\n"
        "def a(c):\n    return mbs.component_preimages(c)\n"
        "class B:\n    def exits(self):\n        query = component_preimages\n"
        "def d(x):\n    'component_preimages'\n    x.component_preimages = 1\n"
    )
    assert _references(planted, {"component_preimages"}) == [
        ("component_preimages", "a"), ("component_preimages", "B.exits")]
    found = set()
    for path in sorted(Path(cascadeho.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found.update(f"{path.name}:{scope}"
                     for _name, scope in _references(tree, {"component_preimages"}))
    assert found == {"cascades.py:CascadeGraph._edges", "mbs.py:signed_preimages"}


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


def test_benchmark_tracer_finds_every_function():
    # bench/tracing.py wraps package functions by name; a renamed function
    # would silently read 0 in its per-layer metric
    with tracing.Tracer() as tracer:
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
        with tracing.Tracer() as tracer:
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


# methods that change a list, dict or set in place
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
    "update", "setdefault", "popitem", "add", "discard", "difference_update",
    "intersection_update", "symmetric_difference_update", "__setitem__",
    "__delitem__",
}
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_container(node):
    return isinstance(node, _CONTAINERS) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "dict", "list", "set", "defaultdict", "OrderedDict", "Counter"))


def _module_state_writes(tree):
    """The module-level containers of ``tree`` (names bound at the top
    level to a list, dict or set) and the (function, line) of each way a
    function could keep state in the module: a ``global`` statement, a
    mutable default argument, an ``lru_cache`` or ``cache`` decorator, an
    item assignment or deletion on a module-level container, a call of one
    of its mutating methods, and any other use of it than reading an item,
    testing membership or calling a method that does not mutate (such as
    binding it to another name, passing it on or returning it)."""
    containers = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            containers.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        allowed = set()  # the container loads that read an item or call a method
        for node in ast.walk(top):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                allowed.add(id(node.value))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr not in _MUTATORS:
                allowed.add(id(node.func.value))
            elif isinstance(node, ast.Compare):  # membership tests
                allowed.update(id(right) for op, right in zip(node.ops, node.comparators)
                               if isinstance(op, (ast.In, ast.NotIn)))
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                defaults = node.args.defaults + node.args.kw_defaults
                decorators = getattr(node, "decorator_list", [])
                keeps = any(d is not None and _is_container(d) for d in defaults) or any(
                    "cache" in ast.unparse(d) for d in decorators)
            else:
                keeps = isinstance(node, ast.Global) or (
                    isinstance(node, ast.Name) and node.id in containers
                    and id(node) not in allowed)
            if keeps:
                found.append((top.name, node.lineno))
    return containers, found


def test_serialize_keeps_no_state_between_calls():
    # each document's rational table lives in one from_document call; no
    # function may keep anything in the module, so no table can outlive it
    planted = ast.parse(
        "_TABLE = {}\n"
        "def a(s):\n    _TABLE[s] = 1\n"
        "def b(s):\n    return _TABLE.setdefault(s, 1)\n"
        "def c():\n    global _TABLE\n"
        "def d(s):\n    table = _TABLE\n    return table\n"
        "def e(s, table={}):\n    return table\n"
        "@functools.lru_cache(None)\ndef f(s):\n    return s\n"
        "def g(s):\n    table = {}\n    table[s] = _TABLE[s]\n"
        "    return _TABLE.get(s), [table], s in _TABLE\n"
    )
    assert _module_state_writes(planted) == (
        {"_TABLE"}, [("a", 3), ("b", 5), ("c", 7), ("d", 9), ("e", 11), ("f", 14)])
    path = Path(serialize.__file__)
    containers, found = _module_state_writes(ast.parse(path.read_text(), str(path)))
    assert containers == {"_FIELDS", "_READERS", "_KINDS"}
    assert found == []


# the lift rules and the words of their errors
_LIFT_RULES = ("t=0 to t=1", "strictly increase", "may cross a point")


def _lift_rule_checks(tree):
    """(scope, rule) of each raise in a module whose message holds the words
    of a lift rule, and (scope, "MAX_LIFT_CROSSINGS") of each read of the
    bound, where scope is the dotted name of the enclosing function or
    class."""
    found = []

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Raise):
                texts = [n.value for n in ast.walk(child)
                         if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                found.extend((scope, rule) for rule in _LIFT_RULES
                             if any(rule in text for text in texts))
            elif ((isinstance(child, ast.Name) and child.id == "MAX_LIFT_CROSSINGS"
                   or isinstance(child, ast.Attribute)
                   and child.attr == "MAX_LIFT_CROSSINGS")
                  and isinstance(child.ctx, ast.Load)):
                found.append((scope, "MAX_LIFT_CROSSINGS"))
            scan(child, inner)

    scan(tree, "")
    return found


def test_one_mbs_function_checks_the_lift_rules():
    # the constructor and the loader's PLComponent._trusted both check a
    # lift through mbs.check_lift; a second copy of a rule could drift from
    # it, and a check in the loader would check each lift twice
    planted = ast.parse(
        "def a(pts):\n    raise ValueError('lift must run from t=0 to t=1')\n"
        "class B:\n    def c(self, n):\n"
        "        if n > mbs.MAX_LIFT_CROSSINGS:\n"
        "            raise ValueError(f'e_{n} lift may cross a point {n} times')\n"
        "def d():\n    '''t strictly increases'''\n"
    )
    assert _lift_rule_checks(planted) == [
        ("a", "t=0 to t=1"), ("B.c", "MAX_LIFT_CROSSINGS"), ("B.c", "may cross a point")]
    found = {}
    for path in sorted(Path(cascadeho.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, rule in _lift_rule_checks(tree):
            found.setdefault(rule, set()).add(f"{path.name}:{scope}")
    assert found == {rule: {"mbs.py:check_lift"}
                     for rule in _LIFT_RULES + ("MAX_LIFT_CROSSINGS",)}


# the functions that run on every autonomous request, valid data included
_LAZY_TEXT_FUNCTIONS = ("validate_data", "block_entries", "_egh_complex", "_scaled_count")
# the Morse-Bott validators that run on every request on an mbs or morphism
# document: the system checks and each interval end's broken-pair checks
_LAZY_MBS_FUNCTIONS = ("validate_system", "_validate_interval_end", "check_broken_pair")
_LAZY_MORPHISM_FUNCTIONS = ("_validate_phi_end",)
# helpers that format a violation's location
_FORMATTERS = ("end_where",)


def _eager_f_strings(tree, names):
    """(function, line) of each f-string, or call of a location formatter,
    in the functions ``names`` of ``tree`` that sits neither in the
    arguments of a ``Violation(...)`` call nor in a ``raise``: text that
    valid data would format and throw away."""
    found = []

    def called(node):
        return isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None))

    def scan(node, function, lazy):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.JoinedStr)
                    or called(child) in _FORMATTERS) and not lazy:
                found.append((function, child.lineno))
                continue
            inner = lazy or isinstance(child, ast.Raise) or (
                called(child) == "Violation")
            scan(child, function, inner)

    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            scan(node, node.name, False)
    return found


def test_autonomous_requests_format_text_only_for_failures():
    # a violation's location and message, and the text of a raised error,
    # are formatted only when a check fails, so valid data formats nothing:
    # on autonomous requests and in the Morse-Bott validators
    planted = ast.parse(
        "def validate_data(data):\n"
        "    where = f'mj1({data})'\n"
        "    v.append(Violation('x', f'{data}', f'{data!r} fails'))\n"
        "    v.append(f'{data}')\n"
        "def _scaled_count(d):\n"
        "    raise CascadehoError(f'du does not divide {d}')\n"
        "def other(d):\n"
        "    return f'{d}'\n"
        "def block_entries(d):\n"
        "    log(mbs.Violation('y', d, 'z'), f'{d}')\n"
    )
    assert _eager_f_strings(planted, _LAZY_TEXT_FUNCTIONS) == [
        ("validate_data", 2), ("validate_data", 4), ("block_entries", 10)]
    planted = ast.parse(
        "def check_broken_pair(v, table, pair, ci, end):\n"
        "    where = end_where(table, pair, ci, end)\n"
        "    if bad:\n"
        "        v.append(Violation('x', end_where(table, pair, ci, end), 'm'))\n"
        "    _check(v, ok, 'y', mbs.end_where(table, pair, ci, end),\n"
        "           f'boundary sign {ok}')\n"
        "def validate_system(sys):\n"
        "    for oid in sys.orbits:\n"
        "        _check(v, ok, 'z', oid, f'basepoint {oid}')\n"
        "def end_where(table, pair, ci, end):\n"
        "    return f'{table}{pair}[{ci}].end{end}'\n"
    )
    assert _eager_f_strings(planted, _LAZY_MBS_FUNCTIONS) == [
        ("check_broken_pair", 2), ("check_broken_pair", 5),
        ("check_broken_pair", 6), ("validate_system", 9)]
    for module, functions in ((autonomous, _LAZY_TEXT_FUNCTIONS),
                              (mbs, _LAZY_MBS_FUNCTIONS),
                              (morphisms, _LAZY_MORPHISM_FUNCTIONS)):
        tree = ast.parse(Path(module.__file__).read_text())
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        assert set(functions) <= names
        assert _eager_f_strings(tree, functions) == []
