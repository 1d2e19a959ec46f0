"""Seeded smooth fans and expected answers that do not use the engine.

Every fan is built combinatorially from a family (P^n, (P^1)^k, the
Hirzebruch surfaces H_a, the blow-up Bl_pt of a fixed point, C^a x P^b,
(P^1)^n minus a maximal cone, and k-ray surfaces made by repeated star
subdivision of P^2).  ``scramble`` then applies a random signed
permutation of the coordinates (a small GL(n, Z) change) and permutes the
order of rays and cones, driven by the seed.  Neither changes any expected answer: Betti numbers, the
semi-projectivity verdict and the exit code are lattice invariants.

Betti numbers come from the f-vector for complete fans (Danilov 1978;
Fulton, *Introduction to Toric Varieties*, section 5.2):

    b_2k = sum_{i=k..n} (-1)^(i-k) C(i, k) f_{n-i}

where f_j counts the j-dimensional cones; odd Betti numbers vanish.  For
the two non-complete families they come from the family itself:
C^a x P^b retracts onto P^b, and (P^1)^n minus the fixed point of one
maximal cone loses only the top class.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class FanCase:
    """One generated fan file and what the CLI must say about it.

    ``betti`` lists b_0..b_2n.  ``error`` is set for inputs the CLI must
    reject with exit code 2; such cases have no Betti numbers.
    """

    name: str
    rank: int
    rays: tuple[IntVec, ...]
    cones: tuple[IntVec, ...]  # maximal cones, 1-based ray indices
    betti: tuple[int, ...] | None
    semiprojective: bool | None
    polyhedron: dict | None = None
    error: str | None = None

    def file_data(self) -> dict:
        data = {"rank": self.rank, "rays": [list(r) for r in self.rays],
                "max_cones": [list(c) for c in self.cones]}
        if self.polyhedron is not None:
            data["polyhedron"] = self.polyhedron
        return data


def _unit(n: int, i: int) -> IntVec:
    return tuple(1 if t == i else 0 for t in range(n))


def faces(cones) -> set[IntVec]:
    """All faces (sorted index tuples, the zero cone included) of the cones."""
    out: set[IntVec] = set()
    for c in cones:
        c = tuple(sorted(c))
        for k in range(len(c) + 1):
            out.update(itertools.combinations(c, k))
    return out


def betti_from_fvector(rank: int, cones) -> tuple[int, ...]:
    """b_0..b_2n of the complete smooth toric variety of these maximal cones."""
    f = [0] * (rank + 1)
    for face in faces(cones):
        f[len(face)] += 1
    out = []
    for k in range(rank + 1):
        h = sum((-1) ** (i - k) * math.comb(i, k) * f[rank - i] for i in range(k, rank + 1))
        out.extend([h, 0])
    return tuple(out[:-1])


def _complete(name: str, rank: int, rays, cones) -> FanCase:
    cones = tuple(tuple(sorted(c)) for c in cones)
    return FanCase(name, rank, tuple(rays), cones, betti_from_fvector(rank, cones), True)


# -- families ----------------------------------------------------------------


def projective_space(n: int) -> FanCase:
    rays = [_unit(n, i) for i in range(n)] + [tuple(-1 for _ in range(n))]
    return _complete(f"P{n}", n, rays, itertools.combinations(range(1, n + 2), n))


def p1_power(k: int) -> FanCase:
    rays = []
    for i in range(k):
        rays += [_unit(k, i), tuple(-x for x in _unit(k, i))]
    cones = [tuple(2 * i + 1 + s for i, s in enumerate(signs))
             for signs in itertools.product((0, 1), repeat=k)]
    return _complete(f"P1^{k}", k, rays, cones)


def hirzebruch(a: int) -> FanCase:
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return _complete(f"H{a}", 2, rays, [(1, 2), (2, 3), (3, 4), (1, 4)])


def blowup(case: FanCase, cone: IntVec, name: str) -> FanCase:
    """Star subdivision of a maximal cone: blow up its torus-fixed point."""
    new = tuple(sum(case.rays[i - 1][t] for i in cone) for t in range(case.rank))
    v = len(case.rays) + 1
    cones = [c for c in case.cones if c != tuple(sorted(cone))]
    cones += [tuple(sorted(set(cone) - {i} | {v})) for i in cone]
    return _complete(name, case.rank, case.rays + (new,), cones)


def blowup_projective_space(n: int) -> FanCase:
    return blowup(projective_space(n), tuple(range(1, n + 1)), f"BlP{n}")


def surface(k: int) -> FanCase:
    """Complete smooth surface with k >= 3 rays, by star subdivisions of P^2.

    Each step subdivides the 2-cone whose new ray has the smallest
    entries (first such cone in counter-clockwise order), which keeps the
    coordinates small.
    """
    ring = [(1, 0), (0, 1), (-1, -1)]  # counter-clockwise
    while len(ring) < k:
        sums = [(ring[i][0] + ring[(i + 1) % len(ring)][0],
                 ring[i][1] + ring[(i + 1) % len(ring)][1]) for i in range(len(ring))]
        i = min(range(len(ring)), key=lambda j: (max(map(abs, sums[j])), j))
        ring.insert(i + 1, sums[i])
    cones = [(i + 1, (i + 1) % k + 1) for i in range(k)]
    return _complete(f"S{k}", 2, ring, cones)


def affine_times_projective(a: int, b: int) -> FanCase:
    """C^a x P^b: not complete; retracts onto P^b."""
    n = a + b
    rays = [_unit(n, i) for i in range(n)] + [tuple([0] * a + [-1] * b)]
    pb = range(a + 1, n + 2)
    cones = tuple(tuple(range(1, a + 1)) + c for c in itertools.combinations(pb, b))
    betti = tuple(1 if (d % 2 == 0 and d <= 2 * b) else 0 for d in range(2 * n + 1))
    name = f"C{a}xP{b}" if a > 1 else f"CxP{b}"
    return FanCase(name, n, tuple(rays), cones, betti, True)


def p1_power_minus_cone(n: int) -> FanCase:
    """(P^1)^n minus the fixed point of one maximal cone: no top class.

    Its support is not convex, so it is not semi-projective.
    """
    full = p1_power(n)
    cones = tuple(c for c in full.cones if c != tuple(range(1, 2 * n + 1, 2)))
    betti = full.betti[:-1] + (0,)
    return FanCase(f"P1^{n}-cone", n, full.rays, cones, betti, False)


# -- inputs that are wrong or that expose a known defect ------------------------


def overlapping_cones() -> FanCase:
    """Two smooth cones that meet beyond a common face: exit 2."""
    return FanCase("overlap", 2, ((1, 0), (0, 1), (1, 1)), ((1, 2), (1, 3)),
                   None, None, error="fan condition")


def non_smooth_cone() -> FanCase:
    """A cone of lattice index 2: exit 2."""
    return FanCase("nonsmooth", 2, ((1, 0), (1, 2), (-1, -1)), ((1, 2), (2, 3), (1, 3)),
                   None, None, error="not smooth")


def p2_non_inducing_polyhedron() -> FanCase:
    """P^2 with a polyhedron that induces no certificate.

    The fan is semi-projective whatever the optional polyhedron says; at
    the time this benchmark was written the engine answers
    ``no-strictly-convex-phi`` (a known wrong verdict).
    """
    poly = {"vertices": [[0, 0]], "recession_rays": [[1, 0], [0, 1]]}
    return replace(projective_space(2), name="P2-poly", polyhedron=poly)


# -- seeded change of coordinates --------------------------------------------------


def scramble(case: FanCase, seed: int) -> FanCase:
    """Apply a seeded change of coordinates and permute rays and cones.

    The change of coordinates is a signed permutation matrix, the
    smallest kind of GL(n, Z) element.  Shears are left out on purpose:
    one elementary shear row_i += row_j per coordinate made the same
    ``cohomology --ring`` job on P^3 take from 0.9 s to 2.7 s depending
    on the seed, which would swamp any change a later commit makes.  A
    polyhedron moves by the inverse transpose, which for a signed
    permutation is the same matrix, so every pairing is kept.
    """
    rng = random.Random(f"{seed}:{case.name}")
    n = case.rank
    axes = list(range(n))
    rng.shuffle(axes)
    signs = [rng.choice((-1, 1)) for _ in range(n)]

    def move(v):
        return tuple(signs[r] * v[axes[r]] for r in range(n))

    rays = [move(u) for u in case.rays]
    order = list(range(len(rays)))
    rng.shuffle(order)  # new position p holds old ray order[p]
    new_index = {old + 1: p + 1 for p, old in enumerate(order)}
    cones = [tuple(new_index[i] for i in c) for c in case.cones]
    rng.shuffle(cones)
    cones = [tuple(rng.sample(c, len(c))) for c in cones]
    poly = case.polyhedron
    if poly is not None:
        poly = {"vertices": [list(move(v)) for v in poly["vertices"]],
                "recession_rays": [list(move(r)) for r in poly.get("recession_rays", [])]}
    return replace(case, rays=tuple(rays[i] for i in order), cones=tuple(cones),
                   polyhedron=poly)
