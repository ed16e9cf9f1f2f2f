"""The benchmark's modules and documents, as the tests reach them.

``bench/`` is not a package, and its modules import each other by plain
name (``workloads`` imports ``generators``).  This module puts the directory
first on ``sys.path`` once and imports them from there; every test that
reads the benchmark comes through here, so a change to how the benchmark
builds its documents has one place to land in the tests.
"""

import sys
import tempfile
from pathlib import Path

from cascadeho import serialize

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import generators  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

__all__ = ["generators", "tracing", "workloads", "bench_lifts", "documents"]


def documents(tmp_path, workload, seeds=(1, 2, 3)):
    """The texts of the documents ``workloads.build`` writes for
    ``workload`` at ``seeds``, under ``tmp_path``, by (seed, name)."""
    texts = {}
    for seed in seeds:
        for r in workloads.build(workload, seed, str(tmp_path / f"{workload}-{seed}")):
            texts[(seed, r.doc.name)] = Path(r.doc.path).read_text(encoding="utf-8")
    return texts


def bench_lifts(seed, workload="cobordism"):
    """The Morse-Bott lifts of the ``cobordism`` (or ``mbs-lift``)
    workload at ``seed``, in the order ``workloads.build`` writes them,
    loaded back from its documents: each lift, or the source of each
    trivial cobordism."""
    with tempfile.TemporaryDirectory() as tmp:
        texts = documents(Path(tmp), workload, (seed,))
    docs = [serialize.loads(text) for (_seed, name), text in texts.items()
            if name.startswith(("lift-", "trivial-lift-"))]
    return [doc.source if workload == "cobordism" else doc for doc in docs]
