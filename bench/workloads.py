"""The benchmark's workloads: documents built from a seed, request lists, checks.

A workload is a fixed list of ``cascadeho`` command lines over documents that
``build`` generates from the seed and writes as JSON.  Every request carries
the closed-form answer it must produce, so a pass over the list both times
the CLI and checks it.

* ``autonomous``: ``validate``, ``nch``, ``egh``, ``chs1`` and ``compare`` on
  autonomous data of the triangulated 3 x 3 torus with d = 1 (dense coupled
  blocks of unit entries) and d = 2 (only +-2 entries, so unit cancellation
  cannot help), and of prequantization(24, 1, 2) (near-diagonal blocks, long
  U-tail).  Walks no cascades.
* ``mbs-lift``: ``validate``, ``nch`` and ``nch --basepoints`` on the
  Morse-Bott lifts of those tori, of the octahedral sphere with d = 1, 2 and
  of the prequantization data: the cascade walk, preimage queries and
  basepoint re-drawing, with a small SNF share.
* ``cobordism``: ``morphism --format json`` on trivial cobordisms over the
  lifts of torus(3, 1), the spheres and the prequantization data, plus the
  ``morphism-interval`` fixture: two ``build_ncc`` calls and the phi walk per
  request, no SNF.

Each pass holds 15, 15 or 5 requests of equal weight, so the median and the
p70 in ``run.py`` fall in the middle of one request's samples rather than on
the edge between two requests of different cost.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from cascadeho import serialize
from cascadeho.morphisms import trivial_cobordism
from cascadeho.scenarios import fixture

import generators

WORKLOADS = ("autonomous", "mbs-lift", "cobordism")

TORUS_UMAX = 3
PREQ = (24, 1, 2)  # (g, e, d)
PREQ_UMAX = 12


@dataclass
class Doc:
    """One generated document and the answers the CLI must give for it."""

    name: str
    obj: object
    gens: int  # generators of its nonequivariant complex(es)
    nch: Dict = field(default_factory=dict)  # {(class, grading): (free, torsion)}
    egh: Dict = field(default_factory=dict)  # {(class, grading): rank}
    chain_map: Optional[Dict] = None  # {(source, target): coeff}; None = identity
    umax: int = 0  # --umax for chs1 and compare
    path: str = ""


@dataclass
class Request:
    argv: List[str]
    doc: Doc
    gens: int  # generators of the complex the command answers
    check: Callable  # (exit_code, stdout, outputs_so_far) -> bool

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join([self.argv[0], self.doc.name] + self.argv[2:])


# ---------------------------------------------------------------------------
# closed-form answers


def surface_answers(simplices, betti, d, cls):
    """NCH and EGH of surface data: H(S; d) shifted into check and hat parts.

    The check part in grading k - 1 and the hat part in grading k are both
    ker(d_k) / d im(d_{k+1}) = Z^(b_k) + (Z/d)^(r_{k+1}), r_k = rank d_k.
    """
    verts, edges, _tris = simplices
    b0, b1, b2 = betti
    r1 = len(verts) - b0
    r2 = len(edges) - r1 - b1
    tors = (lambda r: (d,) * r) if d > 1 else (lambda r: ())
    nch = {
        (cls, -1): (b0, tors(r1)),
        (cls, 0): (b0 + b1, tors(r1 + r2)),
        (cls, 1): (b1 + b2, tors(r2)),
        (cls, 2): (b2, ()),
    }
    egh = {(cls, -1): b0, (cls, 0): b1, (cls, 1): b2}
    return _nonzero(nch), _nonzero(egh)


def prequantization_answers(g, e, d):
    cls = f"{d}G"
    nch = {
        (cls, -1): (1, ()),
        (cls, 0): (2 * g, (d * e,) if d * e > 1 else ()),
        (cls, 1): (2 * g, ()),
        (cls, 2): (1, ()),
    }
    egh = {(cls, -1): 1, (cls, 0): 2 * g, (cls, 1): 1}
    return nch, egh


def _nonzero(groups):
    return {k: v for k, v in groups.items() if v not in (0, (0, ()))}


# ---------------------------------------------------------------------------
# report parsing and checks

_GROUP = re.compile(r"(?:(.+) \| )?(-?\d+): (.*)")
_RANK = re.compile(r"(.*) degree (-?\d+): rank (\d+)")
_STABLE = re.compile(r"stable range: degrees <= (-?\d+)")


def parse_groups(text):
    out = {}
    for line in text.splitlines():
        m = _GROUP.fullmatch(line)
        if not m:
            continue
        free, tors = 0, []
        for part in m.group(3).split(" + "):
            if part == "Z":
                free = 1
            elif part.startswith("Z^"):
                free = int(part[2:])
            elif part.startswith("Z/"):
                tors.append(int(part[2:]))
        out[(m.group(1) or "", int(m.group(2)))] = (free, tuple(tors))
    return out


def parse_ranks(text):
    out = {}
    for line in text.splitlines():
        m = _RANK.fullmatch(line)
        if m:
            cls = "" if m.group(1) == "(trivial class)" else m.group(1)
            out[(cls, int(m.group(2)))] = int(m.group(3))
    return out


def _stable_range(text):
    m = _STABLE.search(text)
    return int(m.group(1)) if m else None


def _check_nch(doc):
    return lambda code, out, _seen: code == 0 and parse_groups(out) == doc.nch


def _check_nch_basepoints(doc):
    plain = f"nch {doc.name}"

    def check(code, out, seen):
        return code == 0 and parse_groups(out) == doc.nch and out == seen.get(plain)

    return check


def _check_egh(doc):
    return lambda code, out, _seen: code == 0 and parse_ranks(out) == doc.egh


def _check_chs1(doc, umax):
    stable = 2 * umax - 2

    def check(code, out, _seen):
        rational = {
            k: free for k, (free, _t) in parse_groups(out).items()
            if free and k[1] <= stable
        }
        expected = {k: r for k, r in doc.egh.items() if k[1] <= stable}
        return code == 0 and _stable_range(out) == stable and rational == expected

    return check


def _check_compare(umax):
    def check(code, out, _seen):
        steps = [line for line in out.splitlines() if line.startswith("[")]
        return (
            code == 0
            and len(steps) == 4
            and all(line.startswith("[ok] ") for line in steps)
            and _stable_range(out) == 2 * umax - 2
        )

    return check


def _check_validate(code, out, _seen):
    return code == 0 and out == "ok\n"


def _check_morphism(doc):
    def check(code, out, _seen):
        if code != 0:
            return False
        report = json.loads(out)
        entries = {
            (e["source"], e["target"]): e["coefficient"] for e in report["entries"]
        }
        if doc.chain_map is None:
            return report["ok"] is True and report["identity"] is True
        return report["ok"] is True and entries == doc.chain_map

    return check


# ---------------------------------------------------------------------------
# workloads


SURFACES = {
    "torus3": (generators.torus_triangles(3), (1, 2, 1)),
    "sphere": (generators.OCTAHEDRON, (1, 0, 1)),
}
TORI = (("torus3", 1), ("torus3", 2))
SPHERES = (("sphere", 1), ("sphere", 2))


def _documents(rng, surfaces):
    """Autonomous surface data for (surface, d) pairs plus prequantization data."""
    docs = []
    for name, d in surfaces:
        triangles, betti = SURFACES[name]
        cls = f"{d}{name[0].upper()}"
        data = generators.surface(triangles, d, cls, rng)
        nch, egh = surface_answers(
            generators.surface_simplices(triangles), betti, d, cls)
        docs.append(Doc(f"{name}-d{d}", data, 2 * len(data.orbits),
                        nch, egh, umax=TORUS_UMAX))
    preq = generators.prequantization_shuffled(*PREQ, rng)
    nch, egh = prequantization_answers(*PREQ)
    docs.append(Doc("preq-{}-{}-{}".format(*PREQ), preq,
                    2 * len(preq.orbits), nch, egh, umax=PREQ_UMAX))
    return docs


def _lift(doc, rng):
    return Doc(f"lift-{doc.name}", generators.lift_to_mbs(doc.obj, rng), doc.gens,
               doc.nch, doc.egh)


def build(workload: str, seed: int, outdir: str):
    """Generate the workload's documents, write them, return its requests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    requests: List[Request] = []

    def add(argv, doc, gens, check):
        requests.append(Request(argv[:1] + [doc.path] + argv[1:], doc, gens, check))

    def write(doc):
        doc.path = os.path.join(outdir, doc.name + ".json")
        with open(doc.path, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(doc.obj))
        return doc

    os.makedirs(outdir, exist_ok=True)
    if workload == "autonomous":
        for doc in map(write, _documents(rng, TORI)):
            n, umax = len(doc.obj.orbits), doc.umax
            add(["validate"], doc, 2 * n, _check_validate)
            add(["nch"], doc, 2 * n, _check_nch(doc))
            add(["egh"], doc, n, _check_egh(doc))
            add(["chs1", "--umax", str(umax)], doc, 2 * n * (umax + 1),
                _check_chs1(doc, umax))
            add(["compare", "--umax", str(umax)], doc, 2 * n * (umax + 1),
                _check_compare(umax))
    elif workload == "mbs-lift":
        basepoint_seed = rng.randrange(1, 1 << 30)
        lifts = [_lift(doc, rng) for doc in _documents(rng, TORI + SPHERES)]
        for doc in map(write, lifts):
            add(["validate"], doc, doc.gens, _check_validate)
            add(["nch"], doc, doc.gens, _check_nch(doc))
            add(["nch", "--basepoints", str(basepoint_seed)], doc, doc.gens,
                _check_nch_basepoints(doc))
    else:
        lifts = [_lift(doc, rng) for doc in _documents(rng, TORI[:1] + SPHERES)]
        docs = [Doc(f"trivial-{lift.name}", trivial_cobordism(lift.obj),
                    2 * lift.gens) for lift in lifts]
        interval = fixture("morphism-interval")
        payload = interval.payload
        docs.append(Doc(
            interval.name, payload,
            2 * (len(payload.source.orbits) + len(payload.target.orbits)),
            chain_map=dict(interval.expected["map"]),
        ))
        for doc in map(write, docs):
            add(["morphism", "--format", "json"], doc, doc.gens,
                _check_morphism(doc))
    return requests
