"""Semi-projectivity certificates and one-parameter degeneration exponents.

A fan is certified semi-projective by a strictly convex piecewise linear
support function with integral slopes, stored as one integer covector per
maximal cone.  Certificates are either derived from a lattice polyhedron
(the function v -> -min over the polyhedron of <m, v>) or found by exact
Fourier-Motzkin elimination on the continuity/strictness constraints.
Those constraints are written once, as one table of sparse ``solve_system``
rows over the stacked covectors (``_certificate_rows``, at most 2n entries
a row): the search solves it with n unit rows pinning the first covector,
and the check of any certificate reads it row by row.
"""

from __future__ import annotations

import itertools
import math

from .fan import Cone, Fan, FanError, PolyhedronInput, ray_coordinates_in_cone_basis
from .linalg import Vector, dot, first_violated_row, row_value, solve_system, vector
# solve_system runs the Fourier-Motzkin step; perfbench/tracer.py times it by this name
from .linalg import solve_inequalities  # noqa: F401

REASON_NOT_FULL_DIM = "not-full-dimensional"
REASON_NOT_CONVEX = "support-not-convex"
REASON_NO_PHI = "no-strictly-convex-phi"


class PLCertificate:
    """Strictly convex piecewise linear function, one covector per max cone.

    The covectors are denominator-cleared, so every pairing with a ray is
    an integer and every strictness margin is >= 1.  Immutable by convention.
    """

    __slots__ = ("fan", "functionals")

    def __init__(self, fan: Fan, functionals: tuple[tuple[int, ...], ...]):
        self.fan = fan
        self.functionals = functionals  # aligned with fan.max_cones

    def __eq__(self, other):
        return NotImplemented if type(other) is not PLCertificate else (
            (self.fan, self.functionals) == (other.fan, other.functionals))

    def value(self, ray_index: int) -> int:
        """phi at a ray generator, evaluated on any maximal cone containing it."""
        for cone, m in zip(self.fan.max_cones, self.functionals):
            if ray_index in cone.index_set:
                return int(dot(m, self.fan.ray(ray_index)))
        raise FanError(f"ray {ray_index} lies in no maximal cone")


class SemiprojectiveReport:
    """Verdict, with a certificate or a failure reason.  Immutable by convention."""

    __slots__ = ("semiprojective", "certificate", "reason", "witnesses")

    def __init__(self, semiprojective: bool, certificate: PLCertificate | None = None,
                 reason: str | None = None, witnesses: tuple = ()):
        self.semiprojective = semiprojective
        self.certificate = certificate
        self.reason = reason
        self.witnesses = witnesses


class DegenerationRelation:
    """z_l * prod z_i^(-a_i) = t^m over the rays of a full-dimensional cone.  Immutable."""

    __slots__ = ("cone", "ray_index", "coefficients", "exponent")

    def __init__(self, cone: Cone, ray_index: int, coefficients: tuple[int, ...], exponent: int):
        self.cone = cone
        self.ray_index = ray_index
        self.coefficients = coefficients  # aligned with cone.ray_indices
        self.exponent = exponent

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
    return [(a, b) for a, b in itertools.combinations(fan.max_cones, 2)
            if len(a.index_set & b.index_set) == fan.rank - 1]


def _certificate_rows(fan: Fan) -> tuple[list, list, list[str]]:
    """The certificate conditions as sparse ``solve_system`` rows over the stacked covectors.

    Block p of the columns is the covector m_p of maximal cone p.  Continuity
    <m_a - m_b, u_i> = 0 on every ray shared by a pair, in combinations order
    (implied by facet continuity on convex support), comes before strictness
    <m_second - m_first, u_i> >= 1 across every facet both ways, in
    ``adjacent_max_pairs`` order.  Row k (eqs first) fails with messages[k].
    """
    n, cones = fan.rank, fan.max_cones

    def row(i: int, plus: int, minus: int) -> dict[int, int]:  # <m_plus - m_minus, u_i>, its nonzeros
        return {p * n + t: s * x for p, s in ((plus, 1), (minus, -1)) for t, x in enumerate(fan.ray(i)) if x}

    names = [str(c) for c in cones]
    eqs, ineqs, messages = [], [], []
    for (pa, a), (pb, b) in itertools.combinations(enumerate(cones), 2):
        for i in sorted(a.index_set & b.index_set):
            eqs.append(row(i, pa, pb))
            messages.append(f"continuity fails on ray {i} shared by {names[pa]} and {names[pb]}")
    for a, b in adjacent_max_pairs(fan):
        pa, pb = cones.index(a), cones.index(b)
        for first, second in ((pa, pb), (pb, pa)):
            for i in sorted(cones[second].index_set - cones[first].index_set):
                ineqs.append((row(i, second, first), 1))
                messages.append(f"strict convexity fails across {names[first]}|{names[second]} at ray {i}")
    return eqs, ineqs, messages


def validate_certificate(fan: Fan, functionals: list[Vector]) -> str | None:
    """Return a violation message, or None when the certificate is valid.

    The message is that of the first row of ``_certificate_rows`` that the
    stacked covectors violate, with the margin for a strictness row.
    """
    eqs, ineqs, messages = _certificate_rows(fan)
    x = [v for m in functionals for v in m]
    k = first_violated_row(eqs, ineqs, x)
    if k is None or k < len(eqs):
        return None if k is None else messages[k]
    return f"{messages[k]} (margin {row_value(ineqs[k - len(eqs)][0], x)})"


def _clear_denominators(functionals: list[Vector]) -> tuple[tuple[int, ...], ...]:
    denoms = [f.denominator for fun in functionals for f in fun]
    lam = math.lcm(*denoms) if denoms else 1
    return tuple(tuple(int(f * lam) for f in fun) for fun in functionals)


def _support_convexity_failure(fan: Fan) -> tuple | None:
    """Supporting-hyperplane check on boundary facets.

    A facet contained in a single maximal cone must lie on the boundary of
    the cone hull of all rays: its normal, oriented towards the cone, must
    be nonnegative on every ray of the fan.  That normal is the cone's
    dual-frame row (``Fan.frame``) of its ray outside the facet, which is
    0 on the facet and 1 on that ray.
    """
    for facet in fan.cones_of_dim(fan.rank - 1):
        containing = fan.max_cones_containing(facet)
        if len(containing) != 1:
            continue
        cone = containing[0]
        normal = fan.frame(cone)[next(k for k, i in enumerate(cone.ray_indices)
                                      if i not in facet.index_set)]
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

    The one LP entry point ``solve_system`` solves ``_certificate_rows``, the first
    covector pinned to zero by unit rows {t: 1}: a certificate is only defined up to a linear function.
    """
    n = fan.rank
    eqs, ineqs, messages = _certificate_rows(fan)
    x = solve_system([{t: 1} for t in range(n)] + eqs, ineqs, n * len(fan.max_cones))
    if x is None:
        return None
    cert = PLCertificate(fan, _clear_denominators([x[p:p + n] for p in range(0, len(x), n)]))
    k = first_violated_row(eqs, ineqs, [v for m in cert.functionals for v in m])
    if k is not None:  # pragma: no cover - search satisfies its own constraints
        raise FanError(f"internal error: searched certificate invalid ({messages[k]})")
    return cert


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
