"""Vertex enumeration for rational polytopes inside the nonnegative orthant.

Double description method on the homogenization cone: start from the orthant
(whose extreme rays are the coordinate axes), insert one constraint at a
time, and combine adjacent positive/negative ray pairs on each new
hyperplane.  Adjacency uses the standard combinatorial test on tight sets.
All arithmetic is exact; rays are primitive integer vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


class UnboundedPolytopeError(ValueError):
    """The feasible set has a recession direction, so it has no vertex list."""


def _homogenized_row(coeffs: Sequence, rhs) -> tuple[int, ...]:
    """Scale (a, -b) to integers; rays live in homogenized (x, t) space."""
    parts = [Fraction(c) for c in coeffs] + [-Fraction(rhs)]
    denom = 1
    for p in parts:
        denom = denom * p.denominator // gcd(denom, p.denominator)
    return tuple(int(p * denom) for p in parts)


def _primitive(vec: list[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


def polytope_vertices(
    num_vars: int,
    equalities: Sequence[tuple[Sequence, object]],
    inequalities: Sequence[tuple[Sequence, object]] = (),
) -> list[tuple[Fraction, ...]]:
    """Vertices of {x >= 0 : a.x == b for equalities, a.x <= b for inequalities}.

    Returns the sorted vertex list (empty when the polytope is empty); raises
    UnboundedPolytopeError when a recession direction survives, since then the
    vertex list does not describe the set.
    """
    dim = num_vars + 1
    rows = [(_homogenized_row(c, b), True) for c, b in equalities]
    rows += [(_homogenized_row(c, b), False) for c, b in inequalities]

    rays: list[tuple[int, ...]] = [
        tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)
    ]

    def tight_set(ray: tuple[int, ...], upto: int) -> frozenset[int]:
        tight = {j for j in range(dim) if ray[j] == 0}
        for k in range(upto):
            row = rows[k][0]
            if sum(r * x for r, x in zip(row, ray)) == 0:
                tight.add(dim + k)
        return frozenset(tight)

    for k, (row, is_eq) in enumerate(rows):
        values = [sum(r * x for r, x in zip(row, ray)) for ray in rays]
        zero = [ray for ray, s in zip(rays, values) if s == 0]
        pos = [(ray, s) for ray, s in zip(rays, values) if s > 0]
        neg = [(ray, s) for ray, s in zip(rays, values) if s < 0]
        kept = list(zero) if is_eq else zero + [ray for ray, _ in neg]
        fresh: list[tuple[int, ...]] = []
        if pos and neg:
            tights = {ray: tight_set(ray, k) for ray in rays}
            for rp, sp in pos:
                for rn, sn in neg:
                    common = tights[rp] & tights[rn]
                    adjacent = not any(
                        other is not rp and other is not rn and common <= tights[other]
                        for other in rays
                    )
                    if adjacent:
                        combo = [sp * b - sn * a for a, b in zip(rp, rn)]
                        fresh.append(_primitive(combo))
        seen = set()
        next_rays = []
        for ray in kept + fresh:
            if ray not in seen:
                seen.add(ray)
                next_rays.append(ray)
        rays = next_rays

    vertices = set()
    for ray in rays:
        t = ray[-1]
        if t > 0:
            vertices.add(tuple(Fraction(x, t) for x in ray[:-1]))
        elif any(ray):
            raise UnboundedPolytopeError(
                "feasible set has a recession direction; no vertex description"
            )
    return sorted(vertices)
