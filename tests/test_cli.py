import dataclasses
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cascadeho import autonomous, cascades, cli, mbs, serialize
from cascadeho.autonomous import (
    AutonomousData,
    CylinderRecord,
    egh_differential,
    validate_data,
)
from cascadeho.cli import main
from cascadeho.errors import SquareNonzero
from cascadeho.mbs import Orbit, assign_basepoints, validate_system
from cascadeho.morphisms import trivial_cobordism, validate_morphism
from cascadeho.scenarios import all_mutations, fixture, fixture_names


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize.dumps(fixture(name).payload))
    return str(path)


# --- documents --------------------------------------------------------------


def test_round_trip_is_canonical(tmp_path, monkeypatch):
    docs = {name: fixture(name).payload for name in fixture_names()}
    docs.update((f"{m.fixture}--{m.cls}", m.payload) for m in all_mutations())
    workloads = bench_workloads(monkeypatch)
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            docs.update((f"{name}-{seed}:{r.doc.name}", r.doc.obj) for r in
                        workloads.build(name, seed, str(tmp_path / name)))
    for name, obj in docs.items():
        text = serialize.dumps(obj)
        assert serialize.dumps(serialize.loads(text)) == text, name


def test_rationals_survive_exactly():
    sys_ = fixture("one-interval").payload
    back = serialize.loads(serialize.dumps(sys_))
    comp = back.m1[("alpha", "beta")][0]
    assert comp.boundary_labels[0].t == sys_.m1[("alpha", "beta")][0].boundary_labels[0].t
    assert back.orbits["alpha"].action == sys_.orbits["alpha"].action


def test_loader_rejects_garbage():
    from cascadeho.errors import InputError

    for bad in (
        "not json",
        "[]",
        '{"schema_version": 99, "kind": "mbs", "payload": {}}',
        '{"schema_version": 1, "kind": "nope", "payload": {}}',
        '{"schema_version": 1, "kind": "mbs", "payload": {"orbits": [{}]}}',
    ):
        with pytest.raises(InputError):
            serialize.loads(bad)


# --- CLI --------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_fixture(tmp_path, "one-interval")
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_nch_text_and_json_agree(tmp_path, capsys):
    path = write_fixture(tmp_path, "one-interval")
    assert main(["nch", path]) == 0
    text = capsys.readouterr().out
    assert "c | 3: Z" in text
    assert main(["nch", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {
        (g["class"], g["grading"]): (g["free"], tuple(g["torsion"]))
        for g in data["groups"]
    } == fixture("one-interval").expected["nch"]


def test_chs1_reports_stable_range(tmp_path, capsys):
    path = write_fixture(tmp_path, "preq-112")
    assert main(["chs1", path, "--umax", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stable_range"] == 4
    assert ["2G", 5] in data["unstable_gradings"]


def test_chs1_and_compare_on_lowered_gradings(tmp_path, capsys):
    # preq-112 with every grading lowered by 2: degree 0 is (Z/2)^2 for every
    # K >= 2, so K = 1 may not claim it, and K = 3 is truncation-stable
    data = fixture("preq-112").payload
    data = dataclasses.replace(data, orbits={
        oid: dataclasses.replace(o, grading=o.grading - 2)
        for oid, o in data.orbits.items()})
    path = tmp_path / "preq-112-lowered.json"
    path.write_text(serialize.dumps(data))
    assert main(["chs1", str(path), "--umax", "1"]) == 0
    assert "stable range: degrees <= -2" in capsys.readouterr().out
    assert main(["chs1", str(path), "--umax", "3", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stable_range"] == 2
    assert {"class": "2G", "grading": 0, "free": 0, "torsion": [2, 2]} in out["groups"]
    assert main(["compare", str(path), "--umax", "1"]) == 0
    assert capsys.readouterr().out.count("[ok]") == 4


def test_compare_exit_codes(tmp_path, capsys):
    path = write_fixture(tmp_path, "preq-112")
    assert main(["compare", path, "--umax", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 4


def test_scenario_pipe_equivalents(tmp_path, capsys):
    out = tmp_path / "preq.json"
    assert main(
        ["scenario", "prequantization", "--g", "1", "--e", "1", "--d", "2",
         "-o", str(out)]
    ) == 0
    assert out.read_text() == serialize.dumps(fixture("preq-112").payload)
    assert main(["egh", str(out)]) == 0
    assert "degree 0: rank 2" in capsys.readouterr().out


def test_scenario_fixture_subcommand(tmp_path, capsys):
    assert main(["scenario", "fixture", "--name", "one-circle"]) == 0
    text = capsys.readouterr().out
    assert serialize.dumps(serialize.loads(text)) == text


def test_morphism_command(tmp_path, capsys):
    path = tmp_path / "tc.json"
    path.write_text(serialize.dumps(fixture("trivial-cobordism").payload))
    assert main(["morphism", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["identity"]


def test_morphism_overrides_source_and_target(tmp_path, capsys):
    # morphism PHI SOURCE TARGET reads both systems from their own files
    sys_ = fixture("one-interval").payload
    reseeded = assign_basepoints(sys_, 3)
    assert reseeded.basepoints != sys_.basepoints
    phi, plain, moved = (tmp_path / f"{n}.json" for n in ("phi", "s", "r"))
    phi.write_text(serialize.dumps(trivial_cobordism(sys_)))
    plain.write_text(serialize.dumps(sys_))
    moved.write_text(serialize.dumps(reseeded))
    # both ends reseeded: still the identity; only the target: the target's
    # basepoints change the map
    for source, identity in ((moved, True), (plain, False)):
        argv = ["morphism", str(phi), str(source), str(moved), "--format", "json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["identity"] is identity
    assert main(["morphism", str(phi), str(moved)]) == 3
    assert capsys.readouterr().err == (
        "error: give both source and target files, or neither\n")
    assert main(["morphism", str(phi), str(phi), str(moved)]) == 3
    assert capsys.readouterr().err == (
        f"error: {phi}: expected a mbs document, got morphism\n")


def test_exit_code_validation_failure(tmp_path, capsys):
    mutation = next(
        m for m in all_mutations()
        if m.fixture == "one-interval" and m.cls == "label-sign-flip"
    )
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(mutation.payload))
    assert main(["validate", str(path)]) == 1
    assert "label-sign-mismatch" in capsys.readouterr().out


def test_exit_code_square_nonzero(tmp_path, capsys):
    mutation = next(m for m in all_mutations() if m.cls == "square-break")
    path = tmp_path / "sq.json"
    path.write_text(serialize.dumps(mutation.payload))
    assert main(["validate", str(path)]) == 2


def test_exit_code_schema_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 3
    assert main(["validate", str(tmp_path / "missing.json")]) == 3
    assert main(["frobnicate"]) == 3


def test_undecodable_input_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # bytes that are not UTF-8 used to end in a UnicodeDecodeError traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    phi = write_fixture(tmp_path, "trivial-cobordism")
    system = write_fixture(tmp_path, "one-circle")
    message = (f"error: cannot read {bad}: 'utf-8' codec can't decode byte "
               "0xff in position 0: invalid start byte\n")
    for argv in (["validate", str(bad)], ["nch", str(bad)],
                 ["morphism", str(bad)], ["morphism", phi, str(bad), system]):
        assert main(argv) == 3, argv
        assert capsys.readouterr() == ("", message)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(b"\xff\xfe{}"), encoding="utf-8", errors="strict"))
    assert main(["validate", "-"]) == 3
    assert capsys.readouterr().err == message.replace(str(bad), "-")


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, past its depth
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["validate", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid JSON: maximum recursion")


def test_wrong_kind_for_subcommand(tmp_path, capsys):
    path = write_fixture(tmp_path, "one-interval")
    assert main(["egh", path]) == 3


def test_egh_square_nonzero_exit_code(tmp_path, capsys):
    # a -> b -> c with one unit cylinder per step: valid data whose
    # cylindrical differential squares to <d d a, c> = 1
    data = AutonomousData(
        orbits={
            "a": Orbit("a", 1, 0, True, Fraction(3), "", 2),
            "b": Orbit("b", 1, 1, True, Fraction(2), "", 1),
            "c": Orbit("c", 1, 0, True, Fraction(1), "", 0),
        },
        mj1={
            ("a", "b"): [CylinderRecord(1, 1)],
            ("b", "c"): [CylinderRecord(1, 1)],
        },
    )
    assert validate_data(data) == []
    with pytest.raises(SquareNonzero) as err:
        egh_differential(data)
    assert (err.value.source, err.value.target, err.value.value) == ("a", "c", 1)
    path = tmp_path / "square.json"
    path.write_text(serialize.dumps(data))
    assert main(["egh", str(path)]) == 2
    assert main(["nch", str(path)]) == 2
    assert "d^2 != 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["nch", "one-interval"],
    ["morphism", "morphism-interval", "--format", "json"],
    ["scenario", "fixture", "--name", "one-interval", "-o", "-"],
])
def test_closed_stdout_pipe_is_an_io_error(argv, tmp_path):
    # the reader of stdout is gone before the command writes: exit 3 with
    # one error line, no traceback and nothing ignored at shutdown
    if argv[0] != "scenario":
        argv = [argv[0], write_fixture(tmp_path, argv[1])] + argv[2:]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    script = "import sys; from cascadeho.cli import main; sys.exit(main())"
    reader, writer = os.pipe()
    os.close(reader)
    try:
        run = subprocess.run([sys.executable, "-c", script, *argv], stdout=writer,
                             stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(writer)
    assert run.returncode == 3
    assert run.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


# --- malformed labels and basepoints are reported, not raised ----------------


def write_edited(tmp_path, name, edit):
    """Write fixture ``name`` after ``edit`` changed its JSON payload."""
    doc = json.loads(serialize.dumps(fixture(name).payload))
    edit(doc["payload"])
    path = tmp_path / f"{name}-edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def first_interval(table):
    return next(c for entry in table for c in entry["components"]
                if c["kind"] == "interval")


def validate_report(path, capsys):
    assert main(["validate", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    return {(v["code"], v["location"]) for v in report["violations"]}


@pytest.mark.parametrize("name,table,changes,expect", [
    # t = 0 is a breakpoint of the phi1 component the label names
    ("morphism-interval", "phi1", {"t": "0"},
     ("label-nonregular", "phi1('A', 'B')[0].end0")),
    # a "side" key makes the label of a system interval load as a PhiLabel
    ("one-interval", "m1", {"side": "top", "d_phi": 1},
     ("bad-label", "m1('alpha', 'beta')[0].end0")),
    ("one-interval", "m1", {"t": "2"},
     ("label-nonregular", "m1('alpha', 'beta')[0].end0")),
    ("one-interval", "m1", {"point_index": -1},
     ("missing-broken-pair", "m1('alpha', 'beta')[0].end0")),
])
def test_malformed_label_is_reported(tmp_path, capsys, name, table, changes, expect):
    def edit(payload):
        first_interval(payload[table])["labels"]["0"].update(changes)
    path = write_edited(tmp_path, name, edit)
    assert validate_report(path, capsys) == {expect}


def test_unknown_orbit_on_labelled_interval_is_reported(tmp_path, capsys):
    # the labels would need frames of ("nope", "gamma"), which do not exist
    def edit(payload):
        payload["m1"][0]["top"] = "nope"
    path = write_edited(tmp_path, "one-interval", edit)
    assert validate_report(path, capsys) == {
        ("unknown-orbit", "m1('nope', 'beta')")
    }


def test_phi_basepoint_nonregular(tmp_path, capsys):
    # cphi1's e- lift starts at 2/9 on the target orbit B
    def edit(payload):
        payload["target"]["basepoints"]["B"] = "2/9"
    path = write_edited(tmp_path, "morphism-interval", edit)
    assert validate_report(path, capsys) == {
        ("basepoint-nonregular", "phi1('G', 'B')[0]")
    }


def test_basepoint_for_unknown_orbit_is_reported(tmp_path, capsys):
    # a misspelt orbit id in "basepoints" is a violation, not a silent no-op
    def edit(payload):
        payload["basepoints"]["nosuch"] = "1/3"
    path = write_edited(tmp_path, "one-circle", edit)
    assert validate_report(path, capsys) == {
        ("unknown-orbit", "basepoints[nosuch]")
    }
    assert main(["nch", path]) == 1
    assert "unknown-orbit at basepoints[nosuch]" in capsys.readouterr().out

    def edit_source(payload):
        payload["source"]["basepoints"]["nosuch"] = "1/3"
    path = write_edited(tmp_path, "morphism-interval", edit_source)
    assert main(["morphism", path]) == 1
    assert "unknown-orbit at source:basepoints[nosuch]" in capsys.readouterr().out


def test_nch_basepoints_repairs_collision(tmp_path, capsys):
    mutation = next(m for m in all_mutations()
                    if m.fixture == "one-circle" and m.cls == "basepoint-collision")
    for seed in (None, 3):
        assert validate_system(assign_basepoints(mutation.payload, seed)) == []
    path = tmp_path / "collision.json"
    path.write_text(serialize.dumps(mutation.payload))
    assert main(["nch", str(path), "--basepoints", "3"]) == 0


def test_hostile_lift_is_rejected_from_its_crossing_bound(tmp_path, capsys,
                                                         monkeypatch):
    # one segment from 0 to 10^9 would cross every point 10^9 times
    def edit(payload):
        payload["m1"][0]["components"][0]["e_plus_lift"] = [["0", "0"],
                                                            ["1", "1000000000"]]
    path = write_edited(tmp_path, "one-circle", edit)

    def no_query(*_args):
        raise AssertionError("a preimage query ran on a rejected lift")
    monkeypatch.setattr(mbs, "component_preimages", no_query)
    monkeypatch.setattr(cascades, "component_preimages", no_query)
    for command in ("validate", "nch"):
        assert main([command, path]) == 3
        err = capsys.readouterr().err
        assert "e_plus lift may cross a point 1000000001 times" in err


@pytest.mark.parametrize("name, option, value, message", [
    ("one-interval", "--action-bound", "abc", "bad rational 'abc'"),
    ("one-interval", "--action-bound", "1/0", "bad rational '1/0'"),
    ("one-interval", "--action-bound", "", "bad rational ''"),
    ("preq-112", "--action-bound", "", "only apply to mbs documents"),
    ("preq-112", "--umax", "0", "--umax must be >= 1, got 0"),
    ("preq-112", "--umax", "-1", "--umax must be >= 1, got -1"),
])
def test_bad_numeric_option_is_a_usage_error(tmp_path, capsys, name, option,
                                             value, message):
    path = write_fixture(tmp_path, name)
    commands = ["nch"] if option == "--action-bound" else ["chs1", "compare"]
    for command in commands:
        assert main([command, path, option, value]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err


def test_action_bound_parses_like_a_document_rational(tmp_path, capsys):
    path = write_fixture(tmp_path, "one-interval")
    reports = []
    for bound in ("5/2", "+10/4", "2.5", " 5/2 ", "25e-1"):
        assert main(["nch", path, "--action-bound", bound, "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert len(set(reports)) == 1
    assert main(["nch", path, "--format", "json"]) == 0
    assert capsys.readouterr().out != reports[0]


@pytest.mark.parametrize("rational", ["1e3000000", "1e-5000", "2.5E+9999"])
@pytest.mark.parametrize("name", ["one-interval", "preq-112", "trivial-cobordism"])
def test_huge_exponent_is_a_usage_error(tmp_path, capsys, name, rational):
    # Fraction computes 10**exponent: an orbit action of "1e3000000" took
    # seconds to validate, and passed
    def edit(payload):
        payload.get("source", payload)["orbits"][0]["action"] = rational
    limit = sys.get_int_max_str_digits()
    message = (f"error: bad rational {rational!r}: exponent "
               f"{int(rational.upper().partition('E')[2])} exceeds the limit "
               f"({limit} digits)\n")
    argvs = [["validate", write_edited(tmp_path, name, edit)]]
    if name == "one-interval":
        argvs.append(["nch", write_fixture(tmp_path, name), "--action-bound", rational])
    for argv in argvs:
        assert main(argv) == 3
        assert capsys.readouterr() == ("", message)


# --- malformed document shapes are usage errors, not tracebacks -------------


def basepoints_as_list(payload):
    system = payload.get("source", payload)
    system["basepoints"] = list(system["basepoints"].values())


def labels_as_list(payload):
    comp = first_interval(payload["m1"])
    comp["labels"] = list(comp["labels"].values())


def source_not_a_pair(payload):
    payload["extra"][0]["source"] = ["check", "p", "r"]


def grading_as_string(payload):
    payload["orbits"][0]["grading"] = str(payload["orbits"][0]["grading"])


def setting(*path, value):
    """An edit that puts ``value`` at ``path`` inside the payload."""
    def edit(payload):
        node = payload
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    edit.__name__ = ".".join(map(str, path)) + f"={value!r}"
    return edit


def label_setting(table, key, value):
    def edit(payload):
        first_interval(payload[table])["labels"]["0"][key] = value
    edit.__name__ = f"{table}-label.{key}={value!r}"
    return edit


def m2cc_count(payload):
    payload["m2cc"] = [{"top": "alpha", "bottom": "beta", "count": 1.0}]


def integer_orbit_id(payload):
    payload["orbits"].append(dict(payload["orbits"][0], id=7))


def every_orbit(key, value):
    def edit(payload):
        for orbit in payload["orbits"]:
            orbit[key] = value
    edit.__name__ = f"every-{key}={value!r}"
    return edit


def repeated(table, at, **changes):
    """An edit that inserts a copy of the first entry of ``table``, with
    ``changes``, at index ``at``."""
    def edit(payload):
        entries = payload[table]
        entries.insert(at, dict(entries[0], **changes))
    edit.__name__ = f"repeated-{table}"
    return edit


def label_end(end, moved):
    """An edit that files interval end ``moved``'s label under ``end``, or
    copies end "0"'s label there when ``moved`` is None."""
    def edit(payload):
        labels = first_interval(payload["m1"])["labels"]
        labels[end] = labels["0"] if moved is None else labels.pop(moved)
    edit.__name__ = f"label-end={end!r}"
    return edit


@pytest.mark.parametrize("name, edit, command", [
    ("one-interval", basepoints_as_list, "nch"),
    ("one-interval", labels_as_list, "nch"),
    ("morphism-interval", basepoints_as_list, "morphism"),
    ("preq-112", source_not_a_pair, "egh"),
    ("preq-112", grading_as_string, "chs1"),
    ("one-interval", grading_as_string, "nch"),
    # integer fields take JSON integers only: no floats, strings or booleans
    ("one-interval", setting("orbits", 0, "d", value=1.9), "nch"),
    ("one-interval", setting("orbits", 0, "parity", value="0"), "nch"),
    ("one-interval", setting("orbits", 0, "d", value=True), "nch"),
    ("one-interval", setting("orbits", 0, "grading", value=True), "nch"),
    ("one-interval", setting("m0", 0, "points", 0, "sign", value=1.5), "nch"),
    ("one-interval", setting("m1", 0, "components", 0, "sign_start", value="-1"),
     "nch"),
    ("one-interval", label_setting("m1", "d_plus", 0.0), "nch"),
    ("one-interval", label_setting("m1", "point_index", "0"), "nch"),
    ("one-interval", label_setting("m1", "component_index", False), "nch"),
    ("one-interval", m2cc_count, "nch"),
    ("morphism-interval", label_setting("phi1", "d_phi", 1.0), "morphism"),
    ("autonomous-chain", setting("mj1", 0, "cylinders", 0, "epsilon", value=1.0),
     "egh"),
    ("autonomous-chain", setting("mj1", 0, "cylinders", 0, "du", value="1"), "egh"),
    ("preq-112", setting("extra", 0, "coefficient", value=2.5), "egh"),
    # and "good" takes a JSON boolean only
    ("one-interval", setting("orbits", 0, "good", value="false"), "nch"),
    ("one-interval", setting("orbits", 0, "good", value=1), "nch"),
    # a grading modulus is "parity", 0 or an even integer >= 2
    ("one-interval", setting("grading_modulus", value=3), "nch"),
    ("one-interval", setting("grading_modulus", value=-2), "nch"),
    ("one-interval", setting("grading_modulus", value=1.5), "nch"),
    ("one-interval", setting("grading_modulus", value="2"), "nch"),
    ("morphism-interval", setting("target", "grading_modulus", value=3),
     "morphism"),
    # a label's orbit, and a phi label's side, is a JSON string
    ("one-interval", label_setting("m1", "orbit", ["gamma"]), "nch"),
    ("morphism-interval", label_setting("phi1", "orbit", {"a": 1}), "morphism"),
    ("morphism-interval", label_setting("phi1", "side", ["top"]), "morphism"),
    # allow_equal_action is a list of [orbit, orbit] pairs of strings
    ("morphism-interval", setting("allow_equal_action", value=[["A"]]), "morphism"),
    ("morphism-interval", setting("allow_equal_action", value=[["A", "B", "C"]]),
     "morphism"),
    ("morphism-interval", setting("allow_equal_action", value="AB"), "morphism"),
    ("morphism-interval", setting("allow_equal_action", value=[[1, 2]]), "morphism"),
    # orbit ids, pair tables and extra keys hold JSON strings only
    ("one-interval", setting("m0", 0, "top", value=1), "nch"),
    ("autonomous-chain", setting("mj1", 0, "top", value=1), "egh"),
    ("preq-112", setting("extra", 0, "source", value=["check", 5]), "egh"),
    ("one-interval", integer_orbit_id, "nch"),
    # an orbit multiplicity is a positive integer
    ("preq-112", every_orbit("d", 0), "chs1"),
    ("preq-112", every_orbit("d", -2), "chs1"),
    ("one-circle", setting("orbits", 0, "d", value=0), "nch"),
    # an interval's labels sit under "0" and "1" only
    ("one-interval", label_end("2", None), "nch"),
    ("one-interval", label_end(" 1", "1"), "nch"),
    ("one-interval", label_end("+1", "1"), "nch"),
    ("one-interval", label_end("01", "1"), "nch"),
    # an orbit's class is a JSON string
    ("one-interval", every_orbit("class", 5), "nch"),
    ("one-interval", every_orbit("class", ["c"]), "nch"),
    ("one-interval", every_orbit("class", {"a": 1}), "nch"),
    ("preq-112", every_orbit("class", 5), "chs1"),
    ("preq-112", every_orbit("class", ["c"]), "chs1"),
    ("preq-112", every_orbit("class", {"a": 1}), "chs1"),
    # a lift is an array of [t, value] arrays
    ("one-circle", setting("m1", 0, "components", 0, "e_plus_lift",
                           value=["00", "12"]), "nch"),
    ("one-circle", setting("m1", 0, "components", 0, "e_plus_lift",
                           value={"00": 0, "12": 0}), "nch"),
    # orbit ids, pair-table (top, bottom) pairs and extra keys are unique
    ("one-interval", repeated("orbits", 1), "nch"),
    ("one-interval", repeated("m0", 1, points=[]), "nch"),
    ("preq-112", repeated("extra", 0, coefficient=5), "nch"),
])
def test_malformed_shape_is_a_usage_error(tmp_path, capsys, name, edit, command):
    path = write_edited(tmp_path, name, edit)
    argv = [command, path] + (["--umax", "2"] if command == "chs1" else [])
    for extra in ([], ["--format", "json"]):
        assert main(argv + extra) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: malformed ") and err.count("\n") == 1
    assert main(["validate", path]) == 3


# --- every builder checks d^2 = 0; one parser serves every call ------------


def bench_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("workloads")


def test_d_squared_is_checked_for_every_document_kind(tmp_path, monkeypatch, capsys):
    # the seed-1 lift of the sphere (d = 1) without the only component of
    # m1(s0_2, s0): valid, but <d d check:s0_2_5, check:s0> = 1
    workloads = bench_workloads(monkeypatch)
    docs = {r.doc.name: r.doc for r in workloads.build("mbs-lift", 1, str(tmp_path))}
    sys_ = docs["lift-sphere-d1"].obj
    del sys_.m1[("s0_2", "s0")][0]
    assert sys_.m1[("s0_2", "s0")] == []
    phi = trivial_cobordism(sys_)
    assert validate_system(sys_) == [] and validate_morphism(phi) == []
    sys_path, phi_path = tmp_path / "broken.json", tmp_path / "broken-phi.json"
    sys_path.write_text(serialize.dumps(sys_))
    phi_path.write_text(serialize.dumps(phi))
    for argv in (["validate", sys_path], ["nch", sys_path],
                 ["nch", sys_path, "--action-bound", "3/2"],
                 ["validate", phi_path], ["morphism", phi_path]):
        for fmt in ("text", "json"):
            assert main([str(a) for a in argv] + ["--format", fmt]) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: d^2 != 0: <d d check:s0_2_5, check:s0> = 1\n"


def test_generator_budget_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # chs1 and compare are bounded by the (class, degree) slots they walk:
    # preq-112 has one class, graded -1..2 by its check and hat generators
    path = write_fixture(tmp_path, "preq-112")
    orbits = fixture("preq-112").payload.orbits.values()
    assert len({o.homotopy_class for o in orbits}) == 1
    gradings = [g for o in orbits for g in (o.grading, o.grading + 1)]
    count = max(gradings) - min(gradings) + 2 * 5 + 1
    assert count == 14
    for budget, code in ((count - 1, 3), (count, 0)):
        monkeypatch.setattr(autonomous, "MAX_GENERATORS", budget)
        for command in ("chs1", "compare"):
            assert main([command, path, "--umax", "5"]) == code
            out, err = capsys.readouterr()
            if code:
                assert out == ""
                assert err == (
                    f"error: truncation K = 5 (--umax) needs {count} (class, degree) "
                    "slots (hi - lo + 2K + 1 per homotopy class), more than "
                    f"{count - 1}\n"
                )


def test_the_shared_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    workloads = bench_workloads(monkeypatch)
    argvs = []
    for name in workloads.WORKLOADS:
        argvs += [r.argv for r in workloads.build(name, 1, str(tmp_path / name))]
    docs = {r.doc.name: r.doc.path for r in workloads.build(
        "autonomous", 1, str(tmp_path / "autonomous"))}
    torus = docs["torus3-d1"]
    argvs += [
        ["nch", torus, "--class", "1T"], ["nch", torus],
        ["nch", torus, "--class", "nowhere"], ["nch", torus],
        ["egh", torus, "--format", "json"], ["egh", torus],
        ["chs1", torus, "--umax", "x"], ["chs1", torus, "--umax", "2"],
        ["nch", torus, "--bogus"], ["nch", torus],
        ["frobnicate"], ["validate", torus, "--format", "json"],
    ]

    def run(clear):
        out = []
        for argv in argvs:
            if clear:
                cli._parser.cache_clear()
            code = main(argv)
            out.append((argv, code) + capsys.readouterr())
        return out

    fresh = run(clear=True)
    assert {code for _argv, code, _out, _err in fresh} == {0, 3}
    assert run(clear=False) + run(clear=False) == fresh + fresh


# --- the collector sits out each command; no command makes cycles ----------


def exit_code_argvs(tmp_path):
    """(argv, exit code) for every way out of main: a command's exit 0, 1, 2
    and 3, and argparse's usage error and help."""
    def mutation(cls):
        m = next(m for m in all_mutations() if m.cls == cls)
        path = tmp_path / f"{cls}.json"
        path.write_text(serialize.dumps(m.payload))
        return str(path)
    ok = write_fixture(tmp_path, "one-interval")
    return [
        (["validate", ok], 0),
        (["validate", mutation("label-sign-flip")], 1),
        (["validate", mutation("square-break")], 2),
        (["validate", str(tmp_path / "missing.json")], 3),
        (["nch", ok, "--bogus"], 3),
        (["--help"], 0),
    ]


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_setting(tmp_path, capsys, monkeypatch,
                                             collecting):
    cases = exit_code_argvs(tmp_path)
    seen, load, failing = [], cli._load, []

    def spy(*args):
        seen.append(gc.isenabled())
        if failing:
            raise RuntimeError("spy")
        return load(*args)
    monkeypatch.setattr(cli, "_load", spy)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        for argv, code in cases:
            assert main(argv) == code, argv
            assert gc.isenabled() is collecting, argv
        failing.append(True)
        with pytest.raises(RuntimeError, match="spy"):
            main(cases[0][0])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    # the four commands that got as far as loading, and the one that raised
    assert seen == [False] * 5


def every_command(tmp_path, monkeypatch):
    """The argv of each command that applies to each fixture, `chs1` and
    `compare` at --umax 1 to 3, and the seed-1 bench requests, all without
    --format."""
    argvs = []
    for name in fixture_names():
        path = write_fixture(tmp_path, name)
        kind = serialize.kind_of(fixture(name).payload)
        argvs.append(["validate", path])
        if kind == "mbs":
            argvs += [["nch", path], ["nch", path, "--basepoints", "3"]]
        elif kind == "autonomous":
            argvs += [["nch", path], ["egh", path]]
            argvs += [[command, path, "--umax", str(k)]
                      for command in ("chs1", "compare") for k in (1, 2, 3)]
        else:
            argvs.append(["morphism", path])
    workloads = bench_workloads(monkeypatch)
    for name in workloads.WORKLOADS:
        for r in workloads.build(name, 1, str(tmp_path / name)):
            at = r.argv.index("--format") if "--format" in r.argv else len(r.argv)
            argvs.append(r.argv[:at] + r.argv[at + 2:])
    return argvs


def test_no_command_leaves_reference_cycles(tmp_path, monkeypatch, capsys):
    # what lets main pause the collector: reference counting frees all that a
    # command drops, text and JSON reports alike
    argvs = every_command(tmp_path, monkeypatch)
    left = {"text": [], "json": []}
    was = gc.isenabled()
    gc.disable()
    try:
        for fmt in left:  # warm-up: the parser, lazy imports
            main(argvs[0] + ["--format", fmt])
        gc.collect()
        for argv in argvs:
            for fmt, counts in left.items():
                assert main(argv + ["--format", fmt]) == 0, argv
                counts.append(gc.collect())
    finally:
        if was:
            gc.enable()
    capsys.readouterr()
    assert set(left["text"]) == {0}
    assert set(left["json"]) == {0}


# --- one orbit table per request --------------------------------------------


def test_each_request_scales_the_actions_once(tmp_path, monkeypatch, capsys):
    # a request scales the actions of all its layers in one scaled_actions
    # call, and makes each basepoint key of each layer at most once
    from cascadeho.mbs import MorseBottSystem
    from cascadeho.morphisms import MorphismData

    workloads = bench_workloads(monkeypatch)
    paths = {}
    for name in workloads.WORKLOADS:
        for r in workloads.build(name, 1, str(tmp_path / name)):
            paths[r.doc.name] = (r.doc.path, r.doc.obj)
    written = {"empty-mbs": MorseBottSystem({}), "empty-autonomous": AutonomousData({}),
               "empty-morphism": MorphismData(MorseBottSystem({}), MorseBottSystem({})),
               "trivial-mbs-lift": trivial_cobordism(paths["lift-torus3-d1"][1])}
    for name, doc in written.items():
        paths[name] = (str(tmp_path / f"{name}.json"), doc)
        Path(paths[name][0]).write_text(serialize.dumps(doc))
    autonomous_requests = [["validate"], ["nch"], ["egh"], ["chs1", "--umax", "3"],
                           ["compare", "--umax", "3"]]
    requests = [
        ("lift-torus3-d1", [["validate"], ["nch"], ["nch", "--basepoints", "5"]]),
        ("trivial-mbs-lift", [["validate"], ["morphism", "--format", "json"]]),
        ("trivial-lift-torus3-d1", [["validate"], ["morphism", "--format", "json"]]),
        ("morphism-interval", [["validate"], ["morphism", "--format", "json"]]),
        ("torus3-d1", autonomous_requests),
        ("empty-mbs", [["validate"], ["nch"]]),
        ("empty-autonomous", autonomous_requests),
        ("empty-morphism", [["validate"], ["morphism"], ["morphism", "--format", "json"]]),
    ]
    scalings, keys = [], []
    original = mbs.scaled_actions

    def scaling(*tables):
        scalings.append(len(tables))
        return original(*tables)

    # every module that bound the function at import
    for name, module in list(sys.modules.items()):
        if name.startswith("cascadeho") and vars(module).get("scaled_actions") is original:
            monkeypatch.setattr(module, "scaled_actions", scaling)
    basepoint = mbs.MorseBottSystem.basepoint

    def counted(self, oid):
        keys.append((id(self), oid))
        return basepoint(self, oid)

    monkeypatch.setattr(mbs.MorseBottSystem, "basepoint", counted)
    for name, argvs in requests:
        path, doc = paths[name]
        layers = [doc.source, doc.target] if isinstance(doc, MorphismData) else [doc]
        for argv in argvs:
            scalings.clear()
            keys.clear()
            assert main([argv[0], path] + argv[1:]) == 0, (name, argv)
            out, err = capsys.readouterr()
            assert out and not err
            # a morphism's two layers are scaled together
            assert scalings == [len(layers)], (name, argv)
            assert len(keys) == len(set(keys)), (name, argv)
            if isinstance(doc, AutonomousData):
                assert keys == []
            else:
                assert len(keys) <= sum(len(layer.orbits) for layer in layers)
