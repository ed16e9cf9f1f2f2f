"""Tests of the benchmark's own code; not part of the repository's test suite.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cascadeho  # noqa: E402
from cascadeho import autonomous, cascades, cli, exact, mbs, morphisms  # noqa: E402
from cascadeho.autonomous import (  # noqa: E402
    block_differential, egh_homology, validate_data,
)
from cascadeho.exact import homology  # noqa: E402
from cascadeho.mbs import validate_system  # noqa: E402
from cascadeho.morphisms import trivial_cobordism, validate_morphism  # noqa: E402

import generators  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SURFACES = dict(workloads.SURFACES, torus4=(generators.torus_triangles(4), (1, 2, 1)))


def _surface(name, d, seed):
    triangles, _betti = SURFACES[name]
    return generators.surface(triangles, d, f"{d}X", random.Random(seed))


def _entries(complex_):
    gens = complex_.generators
    return {
        (gens[j].gid, gens[i].gid): v
        for (i, j), v in complex_.differential.entries.items()
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_generators_validate_clean(seed):
    rng = random.Random(seed)
    datas = [_surface(name, d, seed) for name in ("torus3", "sphere") for d in (1, 2)]
    datas.append(generators.prequantization_shuffled(24, 1, 2, rng))
    for data in datas:
        assert validate_data(data) == []
        lift = generators.lift_to_mbs(data, rng)
        assert validate_system(lift) == []
        assert validate_morphism(trivial_cobordism(lift)) == []


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_lift_equals_block_differential(n, d):
    data = _surface(f"torus{n}", d, seed=n + d)
    lift = generators.lift_to_mbs(data, random.Random(7))
    assert _entries(cascades.build_ncc(lift)) == _entries(block_differential(data))


@pytest.mark.parametrize("name", ["torus3", "sphere"])
@pytest.mark.parametrize("d", [1, 2])
def test_surface_closed_forms(name, d):
    data = _surface(name, d, seed=3)
    triangles, betti = SURFACES[name]
    nch, egh = workloads.surface_answers(
        generators.surface_simplices(triangles), betti, d, f"{d}X")
    assert homology(block_differential(data)).groups == nch
    assert egh_homology(data) == egh


@pytest.mark.parametrize("g,e,d", [(24, 1, 2), (5, 3, 2)])
def test_prequantization_closed_forms(g, e, d):
    data = generators.prequantization_shuffled(g, e, d, random.Random(4))
    nch, egh = workloads.prequantization_answers(g, e, d)
    assert homology(block_differential(data)).groups == nch
    assert egh_homology(data) == egh


def _small_requests(tmp_path):
    """A few quick requests per workload, covering every layer."""
    keep = {"preq-24-1-2", "lift-sphere-d1", "trivial-lift-sphere-d1",
            "morphism-interval"}
    out = []
    for name in workloads.WORKLOADS:
        out += [r for r in workloads.build(name, 5, str(tmp_path / name))
                if r.doc.name in keep]
    return out


def test_traced_reports_match_untraced(tmp_path):
    runner = run.Runner(cli, _small_requests(tmp_path))
    plain = runner.run_pass().results
    with tracing.Tracer() as tracer:
        traced = runner.run_pass(tracer, tag="0").results
    assert runner.failed == 0
    assert [(c, o) for _r, _s, c, o in plain] == [(c, o) for _r, _s, c, o in traced]
    assert tracer.missing == []
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_count_metrics_repeat_exactly(tmp_path):
    runner = run.Runner(cli, _small_requests(tmp_path))
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            runner.run_pass(tracer)
        metrics = tracing.layer_metrics(tracer, 1)
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit in ("count", "B")})
    assert counts[0] == counts[1]
    for layer in ("exact.snf_calls", "cascades.enumerate_calls",
                  "mbs.preimage_calls", "autonomous.egh_differential_calls",
                  "serialize.bytes_in"):
        assert counts[0][layer] > 0


def _bindings():
    modules = [cascadeho, autonomous, cascades, cli, exact, mbs, morphisms]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()
            if callable(v)} | {("IntMatrix", "__mul__"): exact.IntMatrix.__mul__}


def test_wrappers_are_removed():
    before = _bindings()
    with tracing.Tracer():
        assert cli.homology is not before[("cascadeho.cli", "homology")]
        assert cascades.signed_preimages is not before[
            ("cascadeho.cascades", "signed_preimages")]
        assert morphisms.component_preimages is mbs.component_preimages
        assert exact.IntMatrix.__mul__ is not before[("IntMatrix", "__mul__")]
    assert _bindings() == before


def test_missing_function_reads_zero(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "exact",
                        tracing.SPANS["exact"] + ("no_such_function",))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == ["exact.no_such_function"]
    assert tracing.layer_metrics(tracer, 1)["exact.snf_calls"] == (0, "count")
