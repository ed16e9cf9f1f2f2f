"""Golden outputs: every command on every fixture and mutation.

For each document of the corpus (the fixtures and their mutations) and each
command below, one sha256 covers the exit code, stdout and stderr of the
text run and of the json run, with the document's path replaced by its file
name.  ``golden_dumps.json`` pins the document format itself: one sha256
of each document's ``serialize.dumps`` text, which catches a key renamed in
both the writer and the reader.  A refactor that claims identical outputs
must leave both files unchanged; a deliberate change regenerates them with
``python tests/test_golden.py`` and says why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cascadeho import serialize
from cascadeho.cli import main
from cascadeho.scenarios import all_mutations, fixture, fixture_names

GOLDEN = Path(__file__).with_name("golden_outputs.json")
DUMPS = Path(__file__).with_name("golden_dumps.json")

COMMANDS = (
    ("validate",),
    ("nch",),
    ("nch", "--basepoints", "7"),
    ("egh",),
    ("chs1", "--umax", "3"),
    ("chs1", "--umax", "12"),
    ("compare", "--umax", "3"),
    ("compare", "--umax", "12"),
    ("morphism",),
)


def corpus():
    """(file name, document text) of every fixture and mutation."""
    docs = [(f"{name}.json", fixture(name).payload) for name in fixture_names()]
    docs += [(f"{m.fixture}--{m.cls}.json", m.payload) for m in all_mutations()]
    return [(name, serialize.dumps(payload)) for name, payload in docs]


def _run(argv, path, name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # an uncaught error exits 1 with a traceback
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return [code, out.getvalue().replace(path, name),
            err.getvalue().replace(path, name)]


def digests(name, text, directory):
    """The command -> sha256 table of one document."""
    path = str(Path(directory) / name)
    Path(path).write_text(text)
    table = {}
    for command in COMMANDS:
        runs = [
            _run([command[0], path, *command[1:], "--format", fmt], path, name)
            for fmt in ("text", "json")
        ]
        blob = json.dumps(runs, sort_keys=True).encode()
        table[" ".join(command)] = hashlib.sha256(blob).hexdigest()
    return table


DOCUMENTS = corpus()


def dumps_digests():
    """The document -> sha256 of its ``serialize.dumps`` text table."""
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in DOCUMENTS}


@pytest.mark.parametrize("name,text", DOCUMENTS, ids=[n for n, _ in DOCUMENTS])
def test_outputs_match_golden(name, text, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert name in golden, f"{name}: no golden entry (regenerate the file)"
    got = digests(name, text, tmp_path)
    changed = [cmd for cmd in got if got[cmd] != golden[name].get(cmd)]
    assert not changed, f"{name}: output changed for {changed}"


def test_golden_file_covers_the_corpus():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(name for name, _ in DOCUMENTS)
    assert all(len(table) == len(COMMANDS) for table in golden.values())


def test_documents_match_golden_dumps():
    golden = json.loads(DUMPS.read_text())
    got = dumps_digests()
    assert sorted(golden) == sorted(got)
    changed = [name for name in got if got[name] != golden[name]]
    assert not changed, f"serialize.dumps changed for {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        table = {name: digests(name, text, directory) for name, text in DOCUMENTS}
    GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    DUMPS.write_text(json.dumps(dumps_digests(), sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(table)} documents x {len(COMMANDS)} commands to {GOLDEN}"
          f" and their dumps digests to {DUMPS}", file=sys.stderr)
