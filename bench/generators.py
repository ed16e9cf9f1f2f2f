"""Scalable input families for the benchmark.

``surface(triangles, d, cls, rng)`` is autonomous data from a triangulated
closed surface (the n x n torus of ``torus_triangles(n)`` or the
``OCTAHEDRON`` sphere), ``lift_to_mbs(data, rng)`` is its Morse-Bott lift
(one S^1-family circle per cylinder record), and ``prequantization_shuffled``
permutes the saddle actions of the library's prequantization data.  No
choice the rng makes (simplex orientations, action tie-breaks, basepoints)
changes the homology, so the closed forms in ``workloads.py`` hold for every
seed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from cascadeho.autonomous import AutonomousData, CylinderRecord
from cascadeho.mbs import MorseBottSystem, Orbit, PLComponent
from cascadeho.scenarios import prequantization

# offsets of the lift circles: e+ starts at p_a + ALPHA, e- at p_b + ALPHA +
# DELTA.  DELTA has a prime denominator no basepoint uses, so no residual can
# meet a basepoint or another residual after ``assign_basepoints``.
ALPHA = Fraction(1, 3)
DELTA = Fraction(1, 10007)
BASEPOINT_DENOMINATOR = 1009


def _parity(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def torus_triangles(n: int):
    """Triangles of the n x n triangulated torus (n >= 3): V = n^2, F = 2 n^2."""
    if n < 3:
        raise ValueError("the triangulated torus needs n >= 3")

    def v(i, j):
        return (i % n) * n + (j % n)

    tris = []
    for i in range(n):
        for j in range(n):
            tris += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                     (v(i, j), v(i, j + 1), v(i + 1, j + 1))]
    return tris


# boundary of the octahedron, a triangulated sphere: V = 6, E = 12, F = 8
OCTAHEDRON = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]


def surface_simplices(triangles):
    """Vertices, edges and triangles of a triangulated closed surface.

    Each simplex is a tuple of vertex ids in its reference orientation
    (sorted for vertices and edges, as given for triangles).
    """
    edges = sorted({tuple(sorted(pair)) for t in triangles
                    for pair in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))})
    verts = sorted({(x,) for t in triangles for x in t})
    return [verts, edges, list(triangles)]


def _boundary(simplices):
    """Simplicial boundary {(sigma, tau): +-1} between consecutive dimensions."""
    out = {}
    for dim in (1, 2):
        lower = {frozenset(s): s for s in simplices[dim - 1]}
        for s in simplices[dim]:
            for k in range(len(s)):
                face = s[:k] + s[k + 1:]
                ref = lower[frozenset(face)]
                perm = [ref.index(x) for x in face]
                out[(s, ref)] = (-1) ** k * _parity(perm)
    return out


def _oid(simplex) -> str:
    return "s" + "_".join(map(str, simplex))


def surface(triangles, d: int, cls: str, rng: random.Random) -> AutonomousData:
    """Autonomous data of a triangulated closed surface, multiplicity d.

    Each simplex is a good orbit (grading dim - 1, parity (dim + 1) mod 2,
    action dim + 1 plus a tie-break below 1) and each boundary coefficient a
    CylinderRecord(epsilon, 1).  The rng flips simplex orientations and
    permutes the tie-breaks inside each dimension.
    """
    simplices = surface_simplices(triangles)
    flip = {s: rng.choice((1, -1)) for level in simplices for s in level}
    orbits = {}
    for dim, level in enumerate(simplices):
        ranks = list(range(1, len(level) + 1))
        rng.shuffle(ranks)
        for s, r in zip(level, ranks):
            oid = _oid(s)
            orbits[oid] = Orbit(
                oid, d, (dim + 1) % 2, True,
                Fraction(dim + 1) + Fraction(r, len(level) + 1), cls, dim - 1,
            )
    mj1 = {
        (_oid(s), _oid(t)): [CylinderRecord(eps * flip[s] * flip[t], 1)]
        for (s, t), eps in _boundary(simplices).items()
    }
    return AutonomousData(orbits=orbits, mj1=mj1)


def lift_to_mbs(data: AutonomousData, rng: random.Random) -> MorseBottSystem:
    """Morse-Bott lift: each record a -> b becomes an m1 circle.

    Its e+ lift runs x -> x + d(a)/du and its e- lift y -> y + d(b)/du with
    x = p_a + ALPHA and y = p_b + ALPHA + DELTA.  Every incoming residual at
    b is then p_b + DELTA and every outgoing one p_b - DELTA, so the check ->
    hat two-step cascades cancel and build_ncc of the lift equals the block
    differential of the data entry for entry.  An extra check a -> hat b
    entry becomes the count m2cc(a, b); other extra slots have no lift here.
    """
    points = rng.sample(range(1, BASEPOINT_DENOMINATOR), len(data.orbits))
    basepoints = {
        oid: Fraction(k, BASEPOINT_DENOMINATOR)
        for oid, k in zip(sorted(data.orbits), points)
    }
    m1 = {}
    for (a, b), records in data.mj1.items():
        da, db = data.orbit(a).d, data.orbit(b).d
        comps = []
        for rec in records:
            x = basepoints[a] + ALPHA
            y = basepoints[b] + ALPHA + DELTA
            comps.append(PLComponent(
                "circle", rec.epsilon,
                ((Fraction(0), x), (Fraction(1), x + Fraction(da, rec.du))),
                ((Fraction(0), y), (Fraction(1), y + Fraction(db, rec.du))),
            ))
        m1[(a, b)] = comps
    m2cc = {}
    for ((sf, a), (tf, b)), coeff in data.extra.items():
        if (sf, tf) != ("check", "hat"):
            raise ValueError(f"no lift for the extra {sf} -> {tf} entry")
        m2cc[(a, b)] = coeff
    return MorseBottSystem(orbits=dict(data.orbits), basepoints=basepoints,
                           m1=m1, m2cc=m2cc)


def prequantization_shuffled(g: int, e: int, d: int, rng: random.Random):
    """The library's prequantization data with the saddle actions permuted."""
    data = prequantization(g, e, d)
    saddles = [oid for oid in data.orbits if oid.startswith("q")]
    actions = [data.orbits[oid].action for oid in saddles]
    rng.shuffle(actions)
    for oid, action in zip(saddles, actions):
        data.orbits[oid] = replace(data.orbits[oid], action=action)
    return data
