"""Semi-projectivity certificates and one-parameter degeneration exponents.

A fan is certified semi-projective by a strictly convex piecewise linear
support function with integral slopes, stored as one integer covector per
maximal cone.  Certificates are either derived from a lattice polyhedron
(the function v -> -min over the polyhedron of <m, v>) or found by exact
Fourier-Motzkin elimination on the continuity/strictness constraints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .fan import Cone, Fan, FanError, PolyhedronInput, ray_coordinates_in_cone_basis
from .linalg import Vector, dot, kernel_basis, solve_system, vector
# solve_system runs the Fourier-Motzkin step; perfbench/tracer.py times it by this name
from .linalg import solve_inequalities  # noqa: F401

REASON_NOT_FULL_DIM = "not-full-dimensional"
REASON_NOT_CONVEX = "support-not-convex"
REASON_NO_PHI = "no-strictly-convex-phi"


@dataclass(frozen=True)
class PLCertificate:
    """Strictly convex piecewise linear function, one covector per max cone.

    The covectors are denominator-cleared, so every pairing with a ray is
    an integer and every strictness margin is >= 1.
    """

    fan: Fan
    functionals: tuple[tuple[int, ...], ...]  # aligned with fan.max_cones

    def functional(self, cone: Cone) -> tuple[int, ...]:
        return self.functionals[self.fan.max_cones.index(cone)]

    def value(self, ray_index: int) -> int:
        """phi at a ray generator, evaluated on any maximal cone containing it."""
        for cone, m in zip(self.fan.max_cones, self.functionals):
            if ray_index in cone.index_set:
                return int(dot(m, self.fan.ray(ray_index)))
        raise FanError(f"ray {ray_index} lies in no maximal cone")


@dataclass(frozen=True)
class SemiprojectiveReport:
    semiprojective: bool
    certificate: PLCertificate | None = None
    reason: str | None = None
    witnesses: tuple = ()


@dataclass(frozen=True)
class DegenerationRelation:
    """z_l * prod z_i^(-a_i) = t^m over the rays of a full-dimensional cone."""

    cone: Cone
    ray_index: int
    coefficients: tuple[int, ...]  # aligned with cone.ray_indices
    exponent: int

    def as_string(self) -> str:
        factors = [f"z{self.ray_index}"]
        for i, a in zip(self.cone.ray_indices, self.coefficients):
            if a == 0:
                continue
            e = -a
            factors.append(f"z{i}^{e}" if e != 1 else f"z{i}")
        return " * ".join(factors) + f" = t^{self.exponent}"


def adjacent_max_pairs(fan: Fan) -> list[tuple[Cone, Cone]]:
    """Unordered pairs of maximal cones sharing a facet (n-1 common rays)."""
    out = []
    for a, b in itertools.combinations(fan.max_cones, 2):
        if len(a.index_set & b.index_set) == fan.rank - 1:
            out.append((a, b))
    return out


def _certificate_constraints(fan: Fan) -> tuple[list[Vector], list[tuple[Vector, Fraction]], int]:
    """Continuity equalities and strictness inequalities for a certificate.

    Unknowns: a covector per maximal cone except the first, which is
    pinned to zero (certificates are only defined up to a global linear
    function).  Continuity rows are homogeneous equalities; strictness
    rows demand margin >= 1 across every facet.
    """
    n = fan.rank
    cones = fan.max_cones
    nvars = n * (len(cones) - 1)

    def covector_coeffs(cone_pos: int, ray: tuple[int, ...], sign: int) -> list[Fraction]:
        coeffs = [Fraction(0)] * nvars
        if cone_pos == 0:
            return coeffs
        base = (cone_pos - 1) * n
        for t in range(n):
            coeffs[base + t] = Fraction(sign * ray[t])
        return coeffs

    eqs: list[Vector] = []
    ineqs: list[tuple[Vector, Fraction]] = []
    for a, b in adjacent_max_pairs(fan):
        ia, ib = cones.index(a), cones.index(b)
        for i in sorted(a.index_set & b.index_set):
            ray = fan.ray(i)
            diff = tuple(p + q for p, q in zip(covector_coeffs(ia, ray, 1),
                                               covector_coeffs(ib, ray, -1)))
            if any(x != 0 for x in diff):
                eqs.append(diff)
        for first, second in ((a, b), (b, a)):
            i1, i2 = cones.index(first), cones.index(second)
            for i in sorted(second.index_set - first.index_set):
                ray = fan.ray(i)
                coeffs = [p + q for p, q in zip(covector_coeffs(i2, ray, 1),
                                                covector_coeffs(i1, ray, -1))]
                ineqs.append((tuple(coeffs), Fraction(1)))
    return eqs, ineqs, nvars


def validate_certificate(fan: Fan, functionals: list[Vector]) -> str | None:
    """Return a violation message, or None when the certificate is valid.

    Checks continuity on every shared ray of every pair of maximal cones
    (stronger than facet continuity, and implied by it on convex support)
    and strictness margin >= 1 across every facet.
    """
    cones = fan.max_cones
    for (pa, a), (pb, b) in itertools.combinations(enumerate(cones), 2):
        for i in sorted(a.index_set & b.index_set):
            va = dot(functionals[pa], fan.ray(i))
            vb = dot(functionals[pb], fan.ray(i))
            if va != vb:
                return f"continuity fails on ray {i} shared by {a} and {b}"
    for a, b in adjacent_max_pairs(fan):
        pa, pb = cones.index(a), cones.index(b)
        for first, fp, second, sp in ((a, pa, b, pb), (b, pb, a, pa)):
            for i in sorted(second.index_set - first.index_set):
                margin = dot(functionals[sp], fan.ray(i)) - dot(functionals[fp], fan.ray(i))
                if margin < 1:
                    return (f"strict convexity fails across {first}|{second} "
                            f"at ray {i} (margin {margin})")
    return None


def _clear_denominators(functionals: list[Vector]) -> tuple[tuple[int, ...], ...]:
    denoms = [f.denominator for fun in functionals for f in fun]
    lam = math.lcm(*denoms) if denoms else 1
    return tuple(tuple(int(f * lam) for f in fun) for fun in functionals)


def _support_convexity_failure(fan: Fan) -> tuple | None:
    """Supporting-hyperplane check on boundary facets.

    A facet contained in a single maximal cone must lie on the boundary of
    the cone hull of all rays: its normal, oriented towards the cone, must
    be nonnegative on every ray of the fan.
    """
    n = fan.rank
    for facet in fan.cones_of_dim(n - 1):
        containing = fan.max_cones_containing(facet)
        if len(containing) != 1:
            continue
        cone = containing[0]
        normal = kernel_basis(fan.ray_matrix(facet))[0]
        extra = next(iter(cone.index_set - facet.index_set))
        orient = dot(normal, fan.ray(extra))
        if orient < 0:
            normal = tuple(-x for x in normal)
        for i in range(1, fan.num_rays + 1):
            if dot(normal, fan.ray(i)) < 0:
                return (facet, i)
    return None


def certificate_from_polyhedron(fan: Fan, poly: PolyhedronInput) -> PLCertificate | str:
    """Certificate induced by a full-dimensional lattice polyhedron.

    On each maximal cone the support function -min over the polyhedron of
    the pairing is linear; the linearising vertex gives the covector.
    Returns a violation message when the polyhedron does not induce a
    strictly convex function for this fan.
    """
    for r in poly.recession_rays:
        for cone in fan.max_cones:
            for i in cone.ray_indices:
                if dot(r, fan.ray(i)) < 0:
                    return (f"recession ray {list(r)} makes the support function "
                            f"unbounded on cone {cone}")
    functionals: list[Vector] = []
    for cone in fan.max_cones:
        barycenter = [sum(fan.ray(i)[t] for i in cone.ray_indices) for t in range(fan.rank)]
        best = min(poly.vertices, key=lambda v: (dot(v, barycenter), v))
        m = vector([-x for x in best])
        for i in cone.ray_indices:
            want = -min(dot(v, fan.ray(i)) for v in poly.vertices)
            if dot(m, fan.ray(i)) != want:
                return (f"vertex {list(best)} does not minimise the pairing on all "
                        f"rays of cone {cone}")
        functionals.append(m)
    violation = validate_certificate(fan, functionals)
    if violation is not None:
        return violation
    return PLCertificate(fan, _clear_denominators(functionals))


def search_certificate(fan: Fan) -> PLCertificate | None:
    """Exact rational feasibility search for a strictly convex certificate.

    The continuity equalities and strictness inequalities go to the one LP
    entry point ``solve_system``.
    """
    n = fan.rank
    x = solve_system(*_certificate_constraints(fan))
    if x is None:
        return None
    functionals: list[Vector] = [vector([0] * n)]
    for pos in range(1, len(fan.max_cones)):
        base = (pos - 1) * n
        functionals.append(tuple(x[base:base + n]))
    violation = validate_certificate(fan, functionals)
    if violation is not None:  # pragma: no cover - search satisfies its own constraints
        raise FanError(f"internal error: searched certificate invalid ({violation})")
    return PLCertificate(fan, _clear_denominators(functionals))


def check_semiprojective(fan: Fan, polyhedron: PolyhedronInput | None = None) -> SemiprojectiveReport:
    """Decide semi-projectivity and produce a certificate or a failure reason.

    Checks, in order: all maximal cones full-dimensional, convex support,
    existence of a strictly convex piecewise linear function.  A given
    polyhedron is tried first; when it induces no certificate the search
    decides, and the polyhedron's failure message is kept in
    ``witnesses``, so the verdict does not depend on the optional input.
    """
    low = tuple(c for c in fan.max_cones if c.dim != fan.rank)
    if low:
        return SemiprojectiveReport(False, reason=REASON_NOT_FULL_DIM, witnesses=low)
    bad = _support_convexity_failure(fan)
    if bad is not None:
        facet, ray_i = bad
        return SemiprojectiveReport(False, reason=REASON_NOT_CONVEX, witnesses=(facet, ray_i))
    witnesses: tuple = ()
    if polyhedron is not None:
        result = certificate_from_polyhedron(fan, polyhedron)
        if not isinstance(result, str):
            return SemiprojectiveReport(True, certificate=result)
        witnesses = (result,)
    cert = search_certificate(fan)
    if cert is None:
        return SemiprojectiveReport(False, reason=REASON_NO_PHI, witnesses=witnesses)
    return SemiprojectiveReport(True, certificate=cert, witnesses=witnesses)


def degeneration_exponent(fan: Fan, cert: PLCertificate, cone_m: Cone, ray_l: int) -> DegenerationRelation:
    """Degeneration data z_l * prod z_i^(-a_i) = t^m for a ray outside cone_m.

    a is the integer coordinate vector of the ray in the cone basis and
    m = phi(ray) - sum a_i phi(cone ray); strict convexity forces m >= 1.
    """
    if cone_m.dim != fan.rank:
        raise FanError(f"cone {cone_m} is not full-dimensional")
    if ray_l in cone_m.index_set:
        raise FanError(f"ray {ray_l} generates cone {cone_m}; the relation degenerates")
    coeffs = ray_coordinates_in_cone_basis(fan, cone_m, ray_l)
    m = cert.value(ray_l) - sum(a * cert.value(i) for a, i in zip(coeffs, cone_m.ray_indices))
    if m < 1:
        raise FanError(f"internal error: certificate not strictly convex at ray {ray_l} (m = {m})")
    return DegenerationRelation(cone_m, ray_l, coeffs, int(m))
