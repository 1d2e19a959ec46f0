"""Semi-projectivity certificates and one-parameter degeneration exponents.

A certificate is a strictly convex piecewise linear function phi with
integral slopes, stored as its values at the rays: on a maximal cone sigma
it is the covector m_sigma = sum_k phi(u_sigma_k) * (row k of
``Fan.frame(sigma)``), integral exactly when those values are.  With full-dimensional cones and
convex support, phi is strictly convex exactly when it is across every
interior wall (Cox-Little-Schenck, Toric Varieties, 6.1 and 6.4), and
``_wall_rows`` writes that as one sparse ``solve_system`` row over the ray
values per wall (at most n + 1 entries).  A certificate is induced by a
lattice polyhedron or found by exact Fourier-Motzkin elimination on those
rows, the first cone's rays pinned to 0; the check of given covectors
reads phi at each ray from the first cone that holds it, which every
later holder must agree with, and then tests the rows.
"""

from __future__ import annotations

import math

from .fan import Cone, Fan, FanError, PolyhedronInput, ray_coordinates_in_cone_basis
from .linalg import Vector, dot, first_violated_row, row_value, solve_system
# solve_system runs the Fourier-Motzkin step; perfbench/tracer.py times it by this name
from .linalg import solve_inequalities  # noqa: F401

REASON_NOT_FULL_DIM = "not-full-dimensional"
REASON_NOT_CONVEX = "support-not-convex"
REASON_NO_PHI = "no-strictly-convex-phi"


class PLCertificate:
    """Strictly convex piecewise linear function: its integer values at the rays,
    and the covector of each maximal cone read from them through ``Fan.frame``.

    Every wall margin is >= 1.  Immutable by convention.
    """

    __slots__ = ("fan", "values", "functionals")

    def __init__(self, fan: Fan, values: tuple[int, ...]):
        self.fan = fan
        self.values = values  # phi at rays 1..r
        self.functionals = tuple(  # aligned with fan.max_cones
            tuple(sum(values[i - 1] * f for i, f in zip(cone.ray_indices, column))
                  for column in zip(*fan.frame(cone)))
            for cone in fan.max_cones)

    def __eq__(self, other):
        return NotImplemented if type(other) is not PLCertificate else (
            (self.fan, self.values) == (other.fan, other.values))

    def value(self, ray_index: int) -> int:
        """phi at a ray generator."""
        return self.values[ray_index - 1]


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


def _facet_holders(fan: Fan) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Each facet of a maximal cone (its sorted ray indices) -> the maximal cones
    that hold it, as (position in ``fan.max_cones``, position of the cone's ray
    outside the facet), in cone order.  A wall has two holders, a boundary facet one."""
    holders: dict = {}
    for p, cone in enumerate(fan.max_cones):
        rays = cone.ray_indices
        for k in range(len(rays)):
            holders.setdefault(rays[:k] + rays[k + 1:], []).append((p, k))
    return holders


def _wall_rows(fan: Fan) -> tuple[list, list[str]]:
    """Strict convexity as sparse ``solve_system`` rows over the ray values, one a wall.

    The wall of the maximal cones a and b (a first in ``fan.max_cones``) gives
    phi_l - sum a_i phi_i >= 1, with l the ray of b outside a and a_i its
    coordinates in a's basis: at most n + 1 nonzeros.  The walls come in the
    order of their pairs of cones; row k fails with messages[k].  Its readers
    keep the rows and the facets (``_facet_holders``) in ``Fan.table``, once per fan.
    """
    cones = fan.max_cones
    holders = fan.table(("facet holders",), lambda: _facet_holders(fan))
    walls = sorted((w for w in holders.values() if len(w) == 2), key=lambda w: (w[0][0], w[1][0]))
    rows, messages = [], []
    for (pa, _), (pb, kb) in walls:
        a, b = cones[pa], cones[pb]
        l = b.ray_indices[kb]
        coords = ray_coordinates_in_cone_basis(fan, a, l)
        rows.append(({l - 1: 1} | {i - 1: -c for i, c in zip(a.ray_indices, coords) if c}, 1))
        messages.append(f"strict convexity fails across {a}|{b} at ray {l}")
    return rows, messages


def _ray_values(fan: Fan, functionals: list[Vector]) -> list | str:
    """phi at each ray, read from the covector of the first maximal cone that holds it,
    or the message naming the first ray on which a later holder disagrees."""
    first: dict[int, tuple] = {}
    for cone, m in zip(fan.max_cones, functionals):
        for i in cone.ray_indices:
            value = dot(m, fan.ray(i))
            holder, fixed = first.setdefault(i, (cone, value))
            if fixed != value:
                return f"continuity fails on ray {i} shared by {holder} and {cone}"
    return [first[i][1] for i in range(1, fan.num_rays + 1)]


def _wall_violation(fan: Fan, values: list) -> str | None:
    """The message of the first wall row (``_wall_rows``) the ray values violate, with its margin."""
    rows, messages = fan.table(("wall rows",), lambda: _wall_rows(fan))
    k = first_violated_row((), rows, values)
    return None if k is None else f"{messages[k]} (margin {row_value(rows[k][0], values)})"


def validate_certificate(fan: Fan, functionals: list[Vector]) -> str | None:
    """Return a violation message, or None when the certificate is valid:
    continuity first (``_ray_values``), then the walls (``_wall_violation``)."""
    values = _ray_values(fan, functionals)
    return values if isinstance(values, str) else _wall_violation(fan, values)


def _clear_denominators(values: list) -> tuple[int, ...]:
    lam = math.lcm(*(v.denominator for v in values))
    return tuple(int(v * lam) for v in values)


def _support_convexity_failure(fan: Fan) -> tuple | None:
    """Supporting-hyperplane check on boundary facets.

    A facet contained in a single maximal cone must lie on the boundary of
    the cone hull of all rays: its normal, oriented towards the cone, must
    be nonnegative on every ray of the fan.  That normal is the cone's
    dual-frame row (``Fan.frame``) of its ray k outside the facet, whose pairing
    with ray i is coordinate k of ray i (``Fan.coordinates``).  Facets come in the order of their rays.
    """
    holders = fan.table(("facet holders",), lambda: _facet_holders(fan))
    for facet in sorted(f for f, w in holders.items() if len(w) == 1):
        (p, k), = holders[facet]
        for i, coords in enumerate(fan.coordinates(fan.max_cones[p]), 1):
            if coords[k] < 0:
                return (Cone(facet), i)
    return None


def certificate_from_polyhedron(fan: Fan, poly: PolyhedronInput) -> PLCertificate | str:
    """Certificate induced by a full-dimensional lattice polyhedron.

    phi at a ray is -min over the polyhedron of its pairing, and on each
    maximal cone a vertex must attain every such min (phi is linear there).
    Returns a violation message when the polyhedron does not induce a
    strictly convex function for this fan.
    """
    for r in poly.recession_rays:
        for cone in fan.max_cones:
            for i in cone.ray_indices:
                if dot(r, fan.ray(i)) < 0:
                    return (f"recession ray {list(r)} makes the support function "
                            f"unbounded on cone {cone}")
    values = [-min(dot(v, u) for v in poly.vertices) for u in fan.rays]
    for cone in fan.max_cones:
        barycenter = [sum(fan.ray(i)[t] for i in cone.ray_indices) for t in range(fan.rank)]
        best = min(poly.vertices, key=lambda v: (dot(v, barycenter), v))
        if any(dot(best, fan.ray(i)) != -values[i - 1] for i in cone.ray_indices):
            return (f"vertex {list(best)} does not minimise the pairing on all "
                    f"rays of cone {cone}")
    violation = _wall_violation(fan, values)
    return violation if violation is not None else PLCertificate(fan, _clear_denominators(values))


def search_certificate(fan: Fan) -> PLCertificate | None:
    """Exact rational feasibility search for a strictly convex certificate.

    The one LP entry point ``solve_system`` solves ``_wall_rows`` over the
    ray values, those of the first maximal cone pinned to zero by unit rows
    {i: 1}: a certificate is only defined up to a linear function.  The
    covectors read back from the answer go through ``validate_certificate``.
    """
    rows, _ = fan.table(("wall rows",), lambda: _wall_rows(fan))
    x = solve_system([{i - 1: 1} for i in fan.max_cones[0].ray_indices], rows, fan.num_rays)
    if x is None:
        return None
    cert = PLCertificate(fan, _clear_denominators(x))
    violation = validate_certificate(fan, cert.functionals)
    if violation is not None:  # pragma: no cover - search satisfies its own constraints
        raise FanError(f"internal error: searched certificate invalid ({violation})")
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
    return DegenerationRelation(cone_m, ray_l, coeffs, m)
