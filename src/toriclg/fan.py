"""Smooth fans: parsing, validation and combinatorial queries.

A fan is given by primitive integer ray generators and a list of maximal
cones (sets of 1-based ray indices).  Validation checks primitivity,
smoothness (ray generators of every cone extend to a lattice basis, by
integer column reduction: ``lattice_index``), and the fan condition (any
two cones meet in a common face).  A pair of maximal cones meets in its
common face exactly when some covector vanishes on the common rays and
separates the other rays; ``separation_rows`` writes those conditions as
``linalg.solve_system`` rows.  A covector built from the dual frame of
either cone that violates none of them settles a pair, and any other pair
gets the exact separation problem.  A failing pair is named with a point
of both cones found by one more.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property

from . import linalg
from .linalg import (
    ZERO,
    LinearSolver,
    RationalMatrix,
    Vector,
    dot,
    first_violated_row,
    inverse,
    kernel_basis,
    primitive_vector,
    solve_system,
    vector,
)

IntVec = tuple[int, ...]

FAN_FILE_KEYS = ("rank", "rays", "max_cones", "polyhedron")
POLYHEDRON_KEYS = ("vertices", "recession_rays")

# Largest sum of 2^dim over the maximal cones, the subsets that the face
# closure enumerates.  Validating the single cone C^17 (2^17) takes 1.8 s and
# 162 MB, within the 5 s / 250 MB that bounds MAX_DEGREE in the CLI; C^18
# took 4.7 s and 314 MB, and each further ray doubles both (median of 3 runs,
# peak RSS of the child; 2-core VM, Python 3.11.7).
MAX_FACE_SUBSETS = 2 ** 17


class FanError(ValueError):
    pass


class FanParseError(FanError):
    """Malformed fan file."""


class FanValidationError(FanError):
    """Structurally valid file describing an invalid fan."""


class Cone:
    """A cone of the fan: its sorted 1-based ray indices.  Immutable by convention.

    ``index_set`` (the indices as a frozenset) and the hash are computed once.
    """

    __slots__ = ("ray_indices", "index_set", "_hash")

    def __init__(self, ray_indices: IntVec):
        self.ray_indices = ray_indices
        self.index_set = frozenset(ray_indices)
        self._hash = hash((ray_indices,))

    def __eq__(self, other):
        return self.ray_indices == other.ray_indices if type(other) is Cone else NotImplemented

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.ray_indices)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.ray_indices) + "}" if self.ray_indices else "{0}"


def _as_cone(indices: Iterable[int]) -> Cone:
    return Cone(tuple(sorted(set(indices))))


class PolyhedronInput:
    """A lattice polyhedron: convex hull of vertices plus recession rays.  Immutable."""

    __slots__ = ("vertices", "recession_rays")

    def __init__(self, vertices: tuple[IntVec, ...], recession_rays: tuple[IntVec, ...]):
        self.vertices = vertices
        self.recession_rays = recession_rays


class Fan:
    """Validated smooth fan.  Immutable by convention; safe for concurrent reads.

    ``_tables`` caches tables computed from the fan alone: the monomial
    bases of ``srring``, the Koszul index maps of ``twisted`` and the
    ray coordinates of ``ray_coordinates_in_cone_basis``.  Each entry
    is written once and never mutated, so concurrent reads stay safe.
    """

    def __init__(self, rank: int, rays: tuple[IntVec, ...], max_cones: tuple[Cone, ...],
                 all_cones: tuple[Cone, ...]):
        self.rank = rank
        self.rays = rays
        self.max_cones = max_cones
        self.all_cones = all_cones
        self._tables: dict = {}

    def __eq__(self, other):
        return NotImplemented if type(other) is not Fan else (
            (self.rank, self.rays, self.max_cones, self.all_cones)
            == (other.rank, other.rays, other.max_cones, other.all_cones))

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    def table(self, key: tuple, build):
        """The cached table under key, built by ``build()`` on first use; the first one stored wins."""
        value = self._tables.get(key)
        return value if value is not None else self._tables.setdefault(key, build())

    def ray(self, i: int) -> IntVec:
        """Ray generator for a 1-based ray index."""
        return self.rays[i - 1]

    @cached_property
    def _face_set(self) -> frozenset[frozenset[int]]:
        return frozenset(c.index_set for c in self.all_cones)

    def is_face(self, indices: Iterable[int]) -> bool:
        return frozenset(indices) in self._face_set

    def cone(self, indices: Iterable[int]) -> Cone:
        c = _as_cone(indices)
        if c.index_set not in self._face_set:
            raise FanError(f"{sorted(c.ray_indices)} is not a cone of the fan")
        return c

    def cones_of_dim(self, k: int) -> tuple[Cone, ...]:
        return tuple(c for c in self.all_cones if c.dim == k)

    def max_cones_containing(self, cone: Cone) -> tuple[Cone, ...]:
        s = cone.index_set
        return tuple(m for m in self.max_cones if s <= m.index_set)

    def ray_matrix(self, cone: Cone) -> RationalMatrix:
        """Rows are the generators of the cone's rays."""
        return RationalMatrix.from_rows([self.ray(i) for i in cone.ray_indices]) \
            if cone.ray_indices else RationalMatrix.zeros(0, self.rank)


# -- lattice helpers ------------------------------------------------------


def _is_primitive(v: IntVec) -> bool:
    nz = [abs(x) for x in v if x]
    return bool(nz) and math.gcd(*nz) == 1


def lattice_index(rows: Sequence[Sequence[int]], rank: int) -> int:
    """gcd of the maximal minors of the integer matrix with these rows.

    It is 1 exactly when the rows extend to a basis of Z^rank (1 for no
    rows) and 0 when they are linearly dependent, which includes more rows
    than ``rank``.  Euclid's algorithm on the columns brings the matrix to
    [L | 0] with L lower triangular; unimodular column operations keep the
    gcd of the maximal minors, so it is the product of the |L_ii|.  Polynomial in the rank.
    """
    cols = [[row[j] for row in rows] for j in range(rank)]
    index = 1
    for i in range(len(rows)):
        # columns < i are done, and rows < i are zero in the others; no
        # column is left for a row past the rank
        live = [j for j in range(i, rank) if cols[j][i]]
        if not live:
            return 0
        while len(live) > 1:
            p = min(live, key=lambda j: abs(cols[j][i]))
            for j in live:
                if j != p:
                    q = cols[j][i] // cols[p][i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
            live = [j for j in live if cols[j][i]]
        cols[i], cols[live[0]] = cols[live[0]], cols[i]
        index *= abs(cols[i][i])
    return index


def ray_coordinates_in_cone_basis(fan: Fan, cone: Cone, ray_index: int) -> tuple[int, ...]:
    """Integer coordinates of a ray in the basis given by a full-dim smooth cone.

    Returns a_1..a_n with ray = sum a_i * (i-th cone ray): column ray_index
    of one exact solve of every ray against the cone's rays, made once per
    cone and cached on the fan.  Raises on a non-integral solve, which
    cannot happen for a unimodular cone and signals an internal error.
    """
    if cone.dim != fan.rank:
        raise FanError(f"cone {cone} is not full-dimensional")

    def solve():
        basis = RationalMatrix.from_columns([fan.ray(i) for i in cone.ray_indices], rows=fan.rank)
        return LinearSolver(basis).solve(RationalMatrix.from_columns(fan.rays, rows=fan.rank))

    coords = fan.table(("cone coordinates", cone.ray_indices), solve).column(ray_index - 1)
    if any(type(c) is not int for c in coords):
        raise FanError(f"non-integral lattice solve for ray {ray_index} in cone {cone}")
    return coords


# -- cone geometry (exact) ------------------------------------------------


def _extend_to_basis(rays: list[IntVec], rank: int) -> list[Vector]:
    """Extend independent rows to a basis of Q^rank by greedy unit vectors."""
    rows = [vector(r) for r in rays]
    for j in range(rank):
        if len(rows) == rank:
            break
        e = tuple(Fraction(1 if t == j else 0) for t in range(rank))
        cand = rows + [e]
        if linalg.rank(RationalMatrix.from_rows(cand)) == len(cand):
            rows.append(e)
    if len(rows) != rank:  # pragma: no cover - rays assumed independent
        raise FanError("could not extend rays to a basis")
    return rows


def halfspace_representation(fan: Fan, cone: Cone) -> tuple[list[Vector], list[Vector]]:
    """(equalities, inequalities) cutting out a smooth cone exactly.

    x lies in the cone iff every equality functional vanishes on x and
    every inequality functional is >= 0 on x.  The functionals are the
    dual basis of the cone rays extended to a basis.
    """
    k = cone.dim
    n = fan.rank
    rays = [fan.ray(i) for i in cone.ray_indices]
    basis = _extend_to_basis(rays, n)
    dual_rows = inverse(RationalMatrix.from_rows(basis).transpose()).to_rows()
    ineqs = [tuple(dual_rows[i]) for i in range(k)]
    eqs = [tuple(dual_rows[i]) for i in range(k, n)]
    return eqs, ineqs


def extreme_rays(eqs: list[Vector], ineqs: list[Vector], rank: int) -> set[IntVec]:
    """Extreme rays of a pointed cone {x : eqs x = 0, ineqs x >= 0}.

    Brute-force enumeration over active sets; fine at desk scale.
    """
    found: set[IntVec] = set()
    m = len(ineqs)
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            rows = list(eqs) + [ineqs[i] for i in subset]
            mat = RationalMatrix.from_rows(rows) if rows else RationalMatrix.zeros(0, rank)
            ker = kernel_basis(mat)
            if len(ker) != 1:
                continue
            v = ker[0]
            for cand in (v, tuple(-x for x in v)):
                if all(dot(a, cand) >= 0 for a in ineqs):
                    found.add(primitive_vector(cand))
    return found


def cone_intersection_extreme_rays(fan: Fan, c1: Cone, c2: Cone) -> set[IntVec]:
    e1, i1 = halfspace_representation(fan, c1)
    e2, i2 = halfspace_representation(fan, c2)
    return extreme_rays(e1 + e2, i1 + i2, fan.rank)


def separation_rows(rays: Sequence[IntVec], a: Cone, b: Cone) -> tuple[list, list]:
    """The separation problem of two simplicial cones as ``solve_system`` rows.

    A separating covector vanishes on the common rays, is >= 1 on the other
    rays of ``a`` and <= -1 on the other rays of ``b`` (negated to >= 1).
    """
    common = a.index_set & b.index_set
    ineqs = [(tuple(sign * x for x in rays[i - 1]), 1)
             for cone, sign in ((a, 1), (b, -1)) for i in cone.ray_indices if i not in common]
    return [rays[i - 1] for i in sorted(common)], ineqs


def separating_covector(rank: int, rays: Sequence[IntVec], a: Cone, b: Cone) -> Vector | None:
    """A solution of ``separation_rows``, or None.  By the separation lemma
    (Cox-Little-Schenck, *Toric Varieties*, Lemma 1.2.13) it exists exactly
    when the cones meet in the cone on their common rays."""
    return solve_system(*separation_rows(rays, a, b), rank)


def overlap_witness(rank: int, rays: Sequence[IntVec], a: Cone, b: Cone) -> IntVec:
    """A primitive point of both cones outside their common face.

    It is sum(alpha_i u_i) = sum(beta_j v_j) over the rays u of ``a`` and v
    of ``b``, with alpha, beta >= 0 and the alpha of the rays of ``a``
    outside ``b`` summing to at least 1; a has independent rays, so that
    point is not on the common face.  Such a point exists exactly when
    ``separating_covector`` finds none.
    """
    us = [rays[i - 1] for i in a.ray_indices]
    vs = [rays[i - 1] for i in b.ray_indices]
    nvars = len(us) + len(vs)
    eqs = [tuple(u[t] for u in us) + tuple(-v[t] for v in vs) for t in range(rank)]
    ineqs = [(tuple(int(j == k) for j in range(nvars)), 0) for k in range(nvars)]
    ineqs.append((tuple(int(i not in b.index_set) for i in a.ray_indices) + (0,) * len(vs), 1))
    alpha = solve_system(eqs, ineqs, nvars)[:len(us)]
    return primitive_vector([sum((c * u[t] for c, u in zip(alpha, us)), ZERO) for t in range(rank)])


def dual_frame(rays: Sequence[IntVec], cone: Cone) -> tuple[IntVec, ...]:
    """The covector frame dual to a full-dimensional smooth cone's rays.

    Row i is 1 on the cone's i-th ray and 0 on its other rays: the inverse
    of the matrix whose columns are the rays, integral because a smooth
    cone's rays form a lattice basis.
    """
    basis = RationalMatrix.from_columns([rays[i - 1] for i in cone.ray_indices], rows=cone.dim)
    return tuple(tuple(map(int, row)) for row in inverse(basis).to_rows())


def _frame_separates(rays: Sequence[IntVec], frames: dict[Cone, tuple[IntVec, ...]],
                     a: Cone, b: Cone) -> bool:
    """Whether a dual-frame covector satisfies the pair's ``separation_rows``.

    The candidates are the sum of a's frame over a's rays outside b, and
    minus the sum of b's frame over b's rays outside a (for each cone that
    has a frame); a candidate counts once it violates none of the rows.
    """
    eqs, ineqs = separation_rows(rays, a, b)
    for cone, other, sign in ((a, b, 1), (b, a, -1)):
        frame = frames.get(cone)
        if frame is not None:
            own = [row for i, row in zip(cone.ray_indices, frame) if i not in other.index_set]
            if first_violated_row(eqs, ineqs, [sign * sum(col) for col in zip(*own)]) is None:
                return True
    return False


def _check_fan_condition(fan_rank: int, rays: tuple[IntVec, ...], cones: Sequence[Cone]) -> None:
    """Every pairwise intersection of maximal cones is the common-ray face.

    A pair passes when it has a separating covector.  The two dual-frame
    candidates of ``_frame_separates`` (frames computed once per
    full-dimensional cone) are tried first; a pair that neither passes
    goes to ``separating_covector``, which finds one exactly when one
    exists, so the verdict is that of the separation problem alone.  A
    failing pair solves one more problem for a point to name in the error.
    """
    frames = {c: dual_frame(rays, c) for c in cones if c.dim == fan_rank}
    for a, b in itertools.combinations(cones, 2):
        if not _frame_separates(rays, frames, a, b) and separating_covector(fan_rank, rays, a, b) is None:
            raise FanValidationError(
                f"fan condition fails: cones {a} and {b} intersect beyond their "
                f"common face (both contain {list(overlap_witness(fan_rank, rays, a, b))})")


# -- construction ----------------------------------------------------------


def _is_int(x) -> bool:
    """A JSON integer.  bool is a subclass of int in Python but not a number here."""
    return type(x) is int


def _is_int_vector(v, length: int) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == length and all(_is_int(x) for x in v)


def fan_from_data(rank: int, rays: Sequence[Sequence[int]],
                  max_cones: Sequence[Sequence[int]]) -> Fan:
    """Validate raw data and build a Fan with computed face closure."""
    if not _is_int(rank) or rank < 1:
        raise FanValidationError(f"rank must be a positive integer, got {rank!r}")
    if not isinstance(rays, (list, tuple)):
        raise FanParseError("rays must be a list of integer vectors")
    ray_tuples: list[IntVec] = []
    for idx, r in enumerate(rays, start=1):
        if not _is_int_vector(r, rank):
            raise FanParseError(f"ray {idx} is not an integer vector of length {rank}")
        t = tuple(r)
        if all(x == 0 for x in t):
            raise FanValidationError(f"ray {idx} is zero")
        if not _is_primitive(t):
            raise FanValidationError(f"ray {idx} = {list(t)} is not primitive")
        if t in ray_tuples:
            raise FanValidationError(f"ray {idx} duplicates ray {ray_tuples.index(t) + 1}")
        ray_tuples.append(t)
    d = len(ray_tuples)

    if not isinstance(max_cones, (list, tuple)) or not max_cones:
        raise FanParseError("max_cones must list at least one cone")
    seen: set[IntVec] = set()
    listed: list[Cone] = []
    for pos, raw in enumerate(max_cones, start=1):
        if not (isinstance(raw, (list, tuple)) and all(_is_int(i) for i in raw)):
            raise FanParseError(f"cone #{pos} is not a list of integer ray indices")
        if not all(1 <= i <= d for i in raw):
            raise FanParseError(f"cone #{pos} has ray indices outside 1..{d}")
        cone = _as_cone(raw)
        if len(raw) != len(cone.ray_indices):
            raise FanParseError(f"cone #{pos} repeats a ray index")
        index = lattice_index([ray_tuples[i - 1] for i in cone.ray_indices], rank)
        if index == 0:
            raise FanValidationError(f"cone {cone} has linearly dependent rays")
        if index != 1:
            raise FanValidationError(
                f"cone {cone} is not smooth: its rays do not extend to a lattice basis")
        if cone.ray_indices not in seen:
            seen.add(cone.ray_indices)
            listed.append(cone)

    # keep only inclusion-maximal listed cones; faces are recovered below
    maximal = [c for c in listed
               if not any(c is not o and c.index_set < o.index_set for o in listed)]
    maximal.sort(key=lambda c: c.ray_indices)

    covered = set()
    for c in maximal:
        covered |= c.index_set
    missing = sorted(set(range(1, d + 1)) - covered)
    if missing:
        raise FanValidationError(f"rays {missing} appear in no cone")

    subsets = sum(2 ** c.dim for c in maximal)
    if subsets > MAX_FACE_SUBSETS:
        raise FanValidationError(
            f"the maximal cones have {subsets} subsets, more than the limit "
            f"MAX_FACE_SUBSETS = {MAX_FACE_SUBSETS} that face enumeration allows")
    faces: set[IntVec] = set()
    for c in maximal:
        for k in range(c.dim + 1):
            for sub in itertools.combinations(c.ray_indices, k):
                faces.add(sub)
    all_cones = tuple(Cone(f) for f in sorted(faces))

    _check_fan_condition(rank, tuple(ray_tuples), maximal)

    return Fan(rank, tuple(ray_tuples), tuple(maximal), all_cones)


def _refuse_unknown_keys(data: dict, keys: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise FanParseError(f"unknown key(s) {', '.join(map(repr, unknown))}; "
                            f"{what} has only {', '.join(map(repr, keys))}")


def parse_fan_file(text: str) -> tuple[Fan, PolyhedronInput | None]:
    """Parse a fan file, returning the fan and the optional polyhedron."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise FanParseError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise FanParseError("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise FanParseError("fan file must be a JSON object")
    _refuse_unknown_keys(data, FAN_FILE_KEYS, "a fan file")
    for key in ("rank", "rays", "max_cones"):
        if key not in data:
            raise FanParseError(f"missing key {key!r}")
    fan = fan_from_data(data["rank"], data["rays"], data["max_cones"])
    poly = None
    if data.get("polyhedron") is not None:
        pdata = data["polyhedron"]
        if not isinstance(pdata, dict) or "vertices" not in pdata:
            raise FanParseError("polyhedron must be an object with a 'vertices' list")
        _refuse_unknown_keys(pdata, POLYHEDRON_KEYS, "a polyhedron")
        verts, rec = pdata["vertices"], pdata.get("recession_rays", [])
        if not (isinstance(verts, list) and isinstance(rec, list)):
            raise FanParseError("polyhedron vertices and recession_rays must be lists")
        if not verts:
            raise FanValidationError("polyhedron has no vertices")
        for v in verts + rec:
            if not _is_int_vector(v, fan.rank):
                raise FanParseError("polyhedron entries must be integer vectors of fan rank")
        verts = [tuple(v) for v in verts]
        rec = [tuple(r) for r in rec]
        base = verts[0]
        spanning = [tuple(a - b for a, b in zip(v, base)) for v in verts[1:]] + list(rec)
        if not spanning or linalg.rank(RationalMatrix.from_rows(spanning)) != fan.rank:
            raise FanValidationError("polyhedron is not full-dimensional")
        poly = PolyhedronInput(tuple(verts), tuple(rec))
    return fan, poly


# -- combinatorial queries --------------------------------------------------


def primitive_collections(fan: Fan) -> tuple[IntVec, ...]:
    """Minimal ray sets lying in no cone while all proper subsets do.

    Removing the largest ray of a primitive collection leaves a face, so
    each collection is found exactly once as a face plus one larger ray.
    Returned as sorted tuples in lexicographic order.
    """
    out: list[IntVec] = []
    for face in fan.all_cones:
        f = face.ray_indices
        for r in range((f[-1] if f else 0) + 1, fan.num_rays + 1):
            cand = f + (r,)
            if not fan.is_face(cand) and all(fan.is_face(cand[:i] + cand[i + 1:])
                                             for i in range(len(f))):
                out.append(cand)
    return tuple(sorted(out))
