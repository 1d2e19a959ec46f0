import itertools
import json
import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FAN_DIR, cn_data, fan_text, load_fan_and_polyhedron
from toriclg import (
    FanParseError,
    FanValidationError,
    cone_of_simplex,
    parse_fan,
    parse_fan_file,
    primitive_collections,
)
from toriclg.fan import (
    Cone,
    Fan,
    cone_intersection_extreme_rays,
    fan_from_data,
    lattice_index,
    ray_coordinates_in_cone_basis,
    separating_covector,
)
from toriclg.linalg import RationalMatrix, det, dot, rank


def fan_json(rank, rays, max_cones, **extra):
    return json.dumps({"rank": rank, "rays": rays, "max_cones": max_cones, **extra})


class TestParsing:
    def test_p1(self, p1):
        assert p1.rank == 1
        assert [c.ray_indices for c in p1.all_cones] == [(), (1,), (2,)]
        assert [c.ray_indices for c in p1.max_cones] == [(1,), (2,)]

    def test_non_smooth_rejected(self):
        with pytest.raises(FanValidationError, match="smooth"):
            parse_fan(fan_json(2, [[1, 0], [1, 2]], [[1, 2]]))

    def test_blowup_face_closure(self, blowup):
        assert len(blowup.all_cones) == 6
        assert [c.ray_indices for c in blowup.all_cones] == \
            [(), (1,), (1, 3), (2,), (2, 3), (3,)]

    def test_zero_fan(self, zero2):
        assert zero2.num_rays == 0
        assert [c.ray_indices for c in zero2.all_cones] == [()]

    def test_zero_ray_rejected(self):
        with pytest.raises(FanValidationError, match="zero"):
            parse_fan(fan_json(2, [[0, 0], [1, 0]], [[1, 2]]))

    def test_non_primitive_ray_rejected(self):
        with pytest.raises(FanValidationError, match="primitive"):
            parse_fan(fan_json(2, [[2, 0], [0, 1]], [[1, 2]]))

    def test_duplicate_ray_rejected(self):
        with pytest.raises(FanValidationError, match="duplicates"):
            parse_fan(fan_json(2, [[1, 0], [1, 0]], [[1], [2]]))

    def test_unused_ray_rejected(self):
        with pytest.raises(FanValidationError, match="no cone"):
            parse_fan(fan_json(2, [[1, 0], [0, 1]], [[1]]))

    def test_fan_condition_rejected(self):
        # the diagonal ray meets the interior of the quadrant cone
        with pytest.raises(FanValidationError, match=re.escape(
                "fan condition fails: cones {1,2} and {3} intersect beyond their "
                "common face (extra extreme ray [1, 1])")):
            parse_fan(fan_json(2, [[1, 0], [0, 1], [1, 1]], [[1, 2], [3]]))

    def test_overlapping_max_cones_rejected(self):
        # the message names the pair and a ray of the intersection outside
        # their common face, found only once the pair has failed
        with pytest.raises(FanValidationError, match=re.escape(
                "fan condition fails: cones {1,2} and {2,3} intersect beyond their "
                "common face (extra extreme ray [1, 1])")):
            parse_fan(fan_json(2, [[1, 0], [0, 1], [1, 1]], [[1, 2], [2, 3]]))
        with pytest.raises(FanValidationError, match=re.escape(
                "fan condition fails: cones {1,2} and {1,3} intersect beyond their "
                "common face (extra extreme ray [1, 1])")):
            parse_fan(fan_json(2, [[1, 0], [0, 1], [1, 1]], [[1, 2], [1, 3]]))

    def test_unknown_key_rejected(self):
        with pytest.raises(FanParseError, match="unknown key.*'polyhedra'"):
            parse_fan_file(fan_json(1, [[1], [-1]], [[1], [2]], polyhedra=None))

    def test_bad_index_rejected(self):
        with pytest.raises(FanParseError):
            parse_fan(fan_json(1, [[1]], [[2]]))

    def test_not_json(self):
        with pytest.raises(FanParseError):
            parse_fan("not json at all")

    def test_listed_face_normalised_away(self):
        fan = parse_fan(fan_json(2, [[1, 0], [0, 1]], [[1, 2], [1]]))
        assert [c.ray_indices for c in fan.max_cones] == [(1, 2)]

    def test_polyhedron_parsing(self):
        fan, poly = load_fan_and_polyhedron("p1")
        assert poly.vertices == ((0,), (1,))
        with pytest.raises(FanValidationError, match="full-dimensional"):
            parse_fan_file(fan_json(2, [[1, 0], [0, 1]], [[1, 2]],
                                    polyhedron={"vertices": [[0, 0], [1, 0]]}))

    def test_canonical_cone_order(self, suite):
        for fan in suite.values():
            cones = [c.ray_indices for c in fan.all_cones]
            assert cones == sorted(cones)


def _primitive(v) -> bool:
    return any(v) and math.gcd(*v) == 1


@st.composite
def simplicial_cone_pairs(draw):
    """Two simplicial cones on distinct primitive rays, sharing up to rank - 1 rays.

    Cones may be lower-dimensional or contain one another's rays, and
    random rays with entries in [-2, 2] often overlap beyond the common
    face.
    """
    n = draw(st.integers(2, 4))
    shared = n - 1 - draw(st.integers(0, n - 1))
    # Hypothesis favours small draws; drawing the rank each cone lacks
    # keeps full-dimensional, overlapping pairs common
    only_a = n - shared - draw(st.integers(0, n - shared))
    only_b = n - shared - draw(st.integers(0, n - shared - (1 if only_a == 0 else 0)))
    entries = st.tuples(*[st.integers(-2, 2)] * n)
    rays = draw(st.lists(entries, min_size=shared + only_a + only_b,
                         max_size=shared + only_a + only_b, unique=True))
    assume(all(_primitive(r) for r in rays))
    a = Cone(tuple(range(1, shared + only_a + 1)))
    b = Cone(tuple(range(1, shared + 1)) +
             tuple(range(shared + only_a + 1, shared + only_a + only_b + 1)))
    for cone in (a, b):
        gens = [rays[i - 1] for i in cone.ray_indices]
        assume(rank(RationalMatrix.from_rows(gens)) == len(gens))
    return n, tuple(rays), a, b


class TestSeparation:
    @settings(max_examples=150, deadline=None)
    @given(simplicial_cone_pairs())
    def test_verdict_matches_extreme_ray_enumeration(self, pair):
        n, rays, a, b = pair
        common = a.index_set & b.index_set
        allowed = {rays[i - 1] for i in common}
        brute = cone_intersection_extreme_rays(Fan(n, rays, (a, b), (a, b)), a, b) <= allowed
        m = separating_covector(n, rays, a, b)
        assert (m is not None) == brute
        if m is not None:
            for i in a.ray_indices:
                assert dot(m, rays[i - 1]) == 0 if i in common else dot(m, rays[i - 1]) >= 1
            for i in b.ray_indices:
                assert dot(m, rays[i - 1]) == 0 if i in common else dot(m, rays[i - 1]) <= -1


def projective_space_data(n: int) -> dict:
    rays = [[int(j == i) for j in range(n)] for i in range(n)] + [[-1] * n]
    return {"rank": n, "rays": rays,
            "max_cones": [list(c) for c in itertools.combinations(range(1, n + 2), n)]}


def p1_power_data(k: int) -> dict:
    rays = [[s * int(j == i) for j in range(k)] for i in range(k) for s in (1, -1)]
    return {"rank": k, "rays": rays,
            "max_cones": [[2 * i + 1 + side for i, side in enumerate(sides)]
                          for sides in itertools.product((0, 1), repeat=k)]}


def star_subdivision(data: dict, cone: list[int]) -> dict:
    """Blow up the cone: add the sum of its rays and subdivide every cone containing it."""
    new_ray = [sum(data["rays"][i - 1][t] for i in cone) for t in range(data["rank"])]
    new = len(data["rays"]) + 1
    cones = []
    for c in data["max_cones"]:
        if set(cone) <= set(c):
            cones += [[j for j in c if j != i] + [new] for i in cone]
        else:
            cones.append(c)
    return {"rank": data["rank"], "rays": data["rays"] + [new_ray], "max_cones": cones}


def all_subsets_primitive_collections(fan) -> tuple:
    """The definition, over all 2^d ray subsets."""
    d = fan.num_rays
    return tuple(sorted(
        subset for size in range(2, d + 1)
        for subset in itertools.combinations(range(1, d + 1), size)
        if not fan.is_face(subset)
        and all(fan.is_face(subset[:i] + subset[i + 1:]) for i in range(size))))


class TestPrimitiveCollections:
    def test_p1(self, p1):
        assert primitive_collections(p1) == ((1, 2),)

    def test_cn(self):
        for n in (1, 2, 3):
            fan = fan_from_data(**cn_data(n))
            assert primitive_collections(fan) == ()

    def test_cxp1(self, cxp1):
        assert primitive_collections(cxp1) == ((2, 3),)

    def test_hirzebruch(self, hirzebruch):
        assert primitive_collections(hirzebruch) == ((1, 3), (2, 4))

    def test_antichain(self, suite):
        for fan in suite.values():
            pcs = primitive_collections(fan)
            for a, b in itertools.combinations(pcs, 2):
                assert not set(a) <= set(b) and not set(b) <= set(a)

    def test_equals_all_subsets_definition(self):
        fans = [parse_fan(fan_text(path.stem)) for path in sorted(FAN_DIR.glob("*.json"))]
        datas = [projective_space_data(n) for n in (1, 2, 3, 4)]
        datas += [p1_power_data(k) for k in (1, 2, 3)]
        datas += [star_subdivision(projective_space_data(n), list(range(1, n + 1)))
                  for n in (2, 3)]
        datas.append(star_subdivision(star_subdivision(p1_power_data(2), [1, 3]), [3, 5]))
        datas.append(star_subdivision(p1_power_data(3), [1, 3]))
        fans += [fan_from_data(**data) for data in datas]
        for fan in fans:
            assert primitive_collections(fan) == all_subsets_primitive_collections(fan)

    def test_generates_nonface_ideal(self, suite):
        # every squarefree non-face is divisible by a collection monomial,
        # and every collection is a non-face: brute force over all subsets
        for fan in suite.values():
            assert fan.num_rays <= 8
            pcs = [set(p) for p in primitive_collections(fan)]
            for size in range(fan.num_rays + 1):
                for subset in itertools.combinations(range(1, fan.num_rays + 1), size):
                    if fan.is_face(subset):
                        assert not any(p <= set(subset) for p in pcs)
                    else:
                        assert any(p <= set(subset) for p in pcs)


class TestConeOfSimplex:
    def test_p1_overlap(self, p1):
        cover = list(p1.max_cones)
        assert cone_of_simplex(p1, cover, [1, 2]).ray_indices == ()

    def test_blowup_overlap(self, blowup):
        cover = list(blowup.max_cones)
        assert cone_of_simplex(blowup, cover, [1, 2]).ray_indices == (3,)

    def test_singleton_identity(self, suite):
        for fan in suite.values():
            cover = list(fan.max_cones)
            for i, cone in enumerate(cover, start=1):
                assert cone_of_simplex(fan, cover, [i]) == cone

    def test_inclusion_reversing(self, suite):
        rng = random.Random(23)
        for fan in suite.values():
            cover = list(fan.max_cones) + list(fan.cones_of_dim(1))[:2]
            s = len(cover)
            for _ in range(25):
                size_big = rng.randint(1, s)
                tau = rng.sample(range(1, s + 1), size_big)
                sub = rng.sample(tau, rng.randint(1, len(tau)))
                big = cone_of_simplex(fan, cover, tau)
                small = cone_of_simplex(fan, cover, sub)
                assert big.index_set <= small.index_set


class TestFaceClosure:
    def test_closed_under_faces_and_intersections(self, suite):
        for fan in suite.values():
            faces = {c.index_set for c in fan.all_cones}
            for f in faces:
                for size in range(len(f) + 1):
                    for sub in itertools.combinations(sorted(f), size):
                        assert frozenset(sub) in faces
            for a, b in itertools.combinations(faces, 2):
                assert a & b in faces


@st.composite
def integer_matrices(draw):
    """(rows, rank): up to rank + 1 rows of length rank <= 5, entries in [-3, 3]."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n + 1))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=k, max_size=k)), n


class TestLatticeIndex:
    @settings(max_examples=400, deadline=None)
    @given(integer_matrices())
    def test_equals_gcd_of_maximal_minors(self, case):
        rows, n = case
        # no column set of size k when k > n: the gcd of no minors is 0
        g = 0
        for cols in itertools.combinations(range(n), len(rows)):
            g = math.gcd(g, int(det(RationalMatrix.from_rows([[r[c] for c in cols] for r in rows]))))
        assert lattice_index(rows, n) == g

    def test_dependent_rows_give_zero(self):
        assert lattice_index([[1, 2, 3], [2, 4, 6]], 3) == 0
        assert lattice_index([[1, 0], [0, 1], [1, 1]], 2) == 0


class TestLatticeCoordinates:
    def test_blowup(self, blowup):
        assert ray_coordinates_in_cone_basis(blowup, blowup.cone([1, 3]), 2) == (-1, 1)

    def test_cxp1(self, cxp1):
        assert ray_coordinates_in_cone_basis(cxp1, cxp1.cone([1, 2]), 3) == (0, -1)

    def test_reconstruction(self, suite):
        for fan in suite.values():
            for cone in fan.max_cones:
                if cone.dim != fan.rank:
                    continue
                for l in range(1, fan.num_rays + 1):
                    if l in cone.index_set:
                        continue
                    coeffs = ray_coordinates_in_cone_basis(fan, cone, l)
                    rebuilt = [0] * fan.rank
                    for a, i in zip(coeffs, cone.ray_indices):
                        for t in range(fan.rank):
                            rebuilt[t] += a * fan.ray(i)[t]
                    assert tuple(rebuilt) == fan.ray(l)
