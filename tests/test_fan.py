import itertools
import json
import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FAN_DIR, cn_data, fan_text, load_fan_and_polyhedron
from helpers import INLINE_FANS, inline_fan_file, leibniz_det, scrambled_data
from toriclg import (
    FanError,
    FanParseError,
    FanValidationError,
    parse_fan_file,
    primitive_collections,
)
from toriclg import fan as fan_module
from toriclg import linalg
from toriclg.cli import main
from toriclg.fan import (
    Cone,
    Fan,
    _frame_separates,
    cone_intersection_extreme_rays,
    dual_frame,
    fan_from_data,
    lattice_index,
    overlap_witness,
    ray_coordinates_in_cone_basis,
    separating_covector,
    separation_rows,
)
from toriclg.cech import CoverSimplex
from toriclg.linalg import RationalMatrix, dot, lift, rank


def fan_json(rank, rays, max_cones, **extra):
    return json.dumps({"rank": rank, "rays": rays, "max_cones": max_cones, **extra})


class TestParsing:
    def test_p1(self, p1):
        assert p1.rank == 1
        assert [c.ray_indices for c in p1.all_cones] == [(), (1,), (2,)]
        assert [c.ray_indices for c in p1.max_cones] == [(1,), (2,)]

    def test_non_smooth_rejected(self):
        with pytest.raises(FanValidationError, match="smooth"):
            parse_fan_file(fan_json(2, [[1, 0], [1, 2]], [[1, 2]]))

    def test_blowup_face_closure(self, blowup):
        assert len(blowup.all_cones) == 6
        assert [c.ray_indices for c in blowup.all_cones] == \
            [(), (1,), (1, 3), (2,), (2, 3), (3,)]

    def test_zero_fan(self, zero2):
        assert zero2.num_rays == 0
        assert [c.ray_indices for c in zero2.all_cones] == [()]

    def test_zero_ray_rejected(self):
        with pytest.raises(FanValidationError, match="zero"):
            parse_fan_file(fan_json(2, [[0, 0], [1, 0]], [[1, 2]]))

    def test_non_primitive_ray_rejected(self):
        with pytest.raises(FanValidationError, match="primitive"):
            parse_fan_file(fan_json(2, [[2, 0], [0, 1]], [[1, 2]]))

    def test_duplicate_ray_rejected(self):
        with pytest.raises(FanValidationError, match="duplicates"):
            parse_fan_file(fan_json(2, [[1, 0], [1, 0]], [[1], [2]]))

    def test_unused_ray_rejected(self):
        with pytest.raises(FanValidationError, match="no cone"):
            parse_fan_file(fan_json(2, [[1, 0], [0, 1]], [[1]]))

    def test_fan_condition_rejected(self):
        # the diagonal ray meets the interior of the quadrant cone
        with pytest.raises(FanValidationError, match=re.escape(
                "fan condition fails: cones {1,2} and {3} intersect beyond their "
                "common face (both contain [1, 1])")):
            parse_fan_file(fan_json(2, [[1, 0], [0, 1], [1, 1]], [[1, 2], [3]]))

    def test_overlapping_max_cones_rejected(self):
        # the message names the pair and a point of the intersection outside
        # their common face, found only once the pair has failed
        with pytest.raises(FanValidationError, match=re.escape(
                "fan condition fails: cones {1,2} and {2,3} intersect beyond their "
                "common face (both contain [1, 1])")):
            parse_fan_file(fan_json(2, [[1, 0], [0, 1], [1, 1]], [[1, 2], [2, 3]]))
        with pytest.raises(FanValidationError, match=re.escape(
                "fan condition fails: cones {1,2} and {1,3} intersect beyond their "
                "common face (both contain [1, 1])")):
            parse_fan_file(fan_json(2, [[1, 0], [0, 1], [1, 1]], [[1, 2], [1, 3]]))

    def test_unknown_key_rejected(self):
        with pytest.raises(FanParseError, match="unknown key.*'polyhedra'"):
            parse_fan_file(fan_json(1, [[1], [-1]], [[1], [2]], polyhedra=None))

    def test_bad_index_rejected(self):
        with pytest.raises(FanParseError):
            parse_fan_file(fan_json(1, [[1]], [[2]]))

    def test_not_json(self):
        with pytest.raises(FanParseError):
            parse_fan_file("not json at all")

    def test_listed_face_normalised_away(self):
        fan, _ = parse_fan_file(fan_json(2, [[1, 0], [0, 1]], [[1, 2], [1]]))
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
        m = separating_covector(n, *separation_rows(rays, a, b))
        assert (m is not None) == brute
        if m is not None:
            for i in a.ray_indices:
                assert dot(m, rays[i - 1]) == 0 if i in common else dot(m, rays[i - 1]) >= 1
            for i in b.ray_indices:
                assert dot(m, rays[i - 1]) == 0 if i in common else dot(m, rays[i - 1]) <= -1

    @settings(max_examples=300, deadline=None)
    @given(simplicial_cone_pairs())
    def test_overlap_witness_lies_in_both_cones_off_the_common_face(self, pair):
        n, rays, a, b = pair
        if separating_covector(n, *separation_rows(rays, a, b)) is not None:
            return  # about one pair in eight overlaps
        point = overlap_witness(n, rays, a, b)
        alpha, beta = (lift(RationalMatrix.from_columns([rays[i - 1] for i in c.ray_indices], rows=n),
                            point) for c in (a, b))
        assert min(alpha) >= 0 and min(beta) >= 0
        assert any(x > 0 for x, i in zip(alpha, a.ray_indices) if i not in b.index_set)


def fan_file_data(path) -> tuple:
    data = json.loads(path.read_text(encoding="utf-8"))
    return data["rank"], data["rays"], data["max_cones"]


ALL_FAN_DATA = {**{p.stem: fan_file_data(p) for p in sorted(FAN_DIR.glob("*.json"))},
                **INLINE_FANS}


def lp_pairs(monkeypatch, data) -> tuple[Fan, list[tuple[Cone, Cone]]]:
    """The fan, and the pairs of maximal cones that its fan-condition check sent to the LP."""
    built, seen = [], []

    def build(rays, a, b):
        built.append(((a, b), separation_rows(rays, a, b)))
        return built[-1][1]

    def spy(rank, eqs, ineqs):
        seen.append(next(pair for pair, rows in built if rows[0] is eqs))
        return separating_covector(rank, eqs, ineqs)

    with monkeypatch.context() as m:
        m.setattr(fan_module, "separation_rows", build)
        m.setattr(fan_module, "separating_covector", spy)
        fan = fan_from_data(*data)
    return fan, seen


class TestFrameCertificates:
    # pairs sent to the LP: the dual frames settle the others, and a change of
    # coordinates or of the order of rays and cones keeps both candidates
    LP_PAIRS = {"S18": (48, 153), "S7": (8, 21)}

    @pytest.mark.parametrize("name", ["S18", "S7"])
    def test_frames_decide_some_pairs_of_a_surface(self, monkeypatch, name):
        for seed in (None, 1, 7):
            data = INLINE_FANS[name] if seed is None else scrambled_data(*INLINE_FANS[name], seed)
            fan, seen = lp_pairs(monkeypatch, data)
            assert (len(seen), math.comb(len(fan.max_cones), 2)) == self.LP_PAIRS[name], seed

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_frames_decide_every_pair_of_a_p1_power(self, monkeypatch, k):
        data = tuple(p1_power_data(k).values())
        for seed in (None, 7):
            fan, seen = lp_pairs(monkeypatch, data if seed is None else scrambled_data(*data, seed))
            assert (len(fan.max_cones), seen) == (2 ** k, [])

    @pytest.mark.parametrize("name", sorted(ALL_FAN_DATA))
    def test_frame_acceptance_implies_a_separating_covector(self, monkeypatch, name):
        fan, seen = lp_pairs(monkeypatch, ALL_FAN_DATA[name])
        for a, b in itertools.combinations(fan.max_cones, 2):
            if (a, b) not in seen:
                rows = separation_rows(fan.rays, a, b)
                assert separating_covector(fan.rank, *rows) is not None, (name, a, b)

    def test_dual_frame_refuses_a_non_unimodular_cone(self):
        # index 2: the inverse of [[1, 1], [0, 2]] has entries 1/2
        with pytest.raises(FanError, match="not unimodular"):
            dual_frame(((1, 0), (1, 2)), Cone((1, 2)))

    def test_separation_rows_built_once_per_pair(self, monkeypatch):
        # rows are built at most once a pair, and only for the pairs that reach the LP
        built, seen = [], []

        def build(rays, a, b):
            built.append((a, b))
            return separation_rows(rays, a, b)

        def spy(rank, eqs, ineqs):
            seen.append(built[-1])
            return separating_covector(rank, eqs, ineqs)

        monkeypatch.setattr(fan_module, "separation_rows", build)
        monkeypatch.setattr(fan_module, "separating_covector", spy)
        fan_from_data(*INLINE_FANS["S18"])
        assert built == seen and len(set(built)) == len(built) == 48

    def test_coordinates_refuse_a_cone_that_is_not_full_dimensional(self, cxp1):
        with pytest.raises(FanError, match="not full-dimensional"):
            cxp1.coordinates(cxp1.cone([1]))

    def test_dual_frame_pairs_to_the_identity(self):
        for rank, rays, cones in ALL_FAN_DATA.values():
            for raw in cones:
                cone = Cone(tuple(sorted(raw)))
                if cone.dim == rank:
                    frame = dual_frame(rays, cone)
                    assert [[dot(f, rays[j - 1]) for j in cone.ray_indices] for f in frame] == \
                        [[int(i == j) for j in cone.ray_indices] for i in cone.ray_indices]

    @settings(max_examples=300, deadline=None)
    @given(simplicial_cone_pairs())
    def test_accepted_candidate_agrees_with_the_lp_on_any_pair(self, pair):
        # overlapping pairs included: a candidate passes only when it separates
        n, rays, a, b = pair
        fan = Fan(n, rays, (a, b), (a, b))
        coords = {c: fan.coordinates(c) for c in (a, b)
                  if c.dim == n and lattice_index([rays[i - 1] for i in c.ray_indices], n) == 1}
        if _frame_separates(coords, a, b):
            assert separating_covector(n, *separation_rows(rays, a, b)) is not None

    @settings(max_examples=300, deadline=None)
    @given(simplicial_cone_pairs())
    def test_coordinate_sums_decide_as_the_candidate_covectors(self, pair):
        # the integer sums accept a pair exactly when a candidate covector, the
        # signed sum of one cone's frame rows over its rays outside the other,
        # violates none of the pair's separation rows
        n, rays, a, b = pair
        fan = Fan(n, rays, (a, b), (a, b))
        coords = {c: fan.coordinates(c) for c in (a, b)
                  if c.dim == n and lattice_index([rays[i - 1] for i in c.ray_indices], n) == 1}
        candidates = [[sign * sum(col) for col in zip(*(f for i, f in zip(c.ray_indices, fan.frame(c))
                                                        if i not in o.index_set))]
                      for c, o, sign in ((a, b, 1), (b, a, -1)) if c in coords]
        rows = separation_rows(rays, a, b)
        assert _frame_separates(coords, a, b) == any(
            linalg.first_violated_row(*rows, m) is None for m in candidates)


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
        fans = [parse_fan_file(fan_text(path.stem))[0] for path in sorted(FAN_DIR.glob("*.json"))]
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
    """CoverSimplex.cone_of: the cone where the cover cones of a simplex meet."""

    def test_p1_overlap(self, p1):
        assert CoverSimplex(p1).cone_of((0, 1)).ray_indices == ()

    def test_blowup_overlap(self, blowup):
        assert CoverSimplex(blowup).cone_of((0, 1)).ray_indices == (3,)

    def test_singleton_identity(self, suite):
        for fan in suite.values():
            cs = CoverSimplex(fan)
            for i, cone in enumerate(fan.max_cones):
                assert cs.cone_of((i,)) == cone

    def test_inclusion_reversing(self, suite):
        rng = random.Random(23)
        for fan in suite.values():
            cs = CoverSimplex(fan, list(fan.max_cones) + [c for c in fan.all_cones if c.dim == 1][:2])
            for _ in range(25):
                tau = sorted(rng.sample(range(cs.size), rng.randint(1, cs.size)))
                sub = sorted(rng.sample(tau, rng.randint(1, len(tau))))
                big = cs.cone_of(tuple(tau))
                small = cs.cone_of(tuple(sub))
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

    def test_subset_limit(self, monkeypatch):
        # C^3 has 2^3 subsets; P^2 has three cones of 2^2 subsets each
        monkeypatch.setattr(fan_module, "MAX_FACE_SUBSETS", 8)
        assert len(fan_from_data(**cn_data(3)).all_cones) == 8
        with pytest.raises(FanValidationError, match="12 subsets, more than the limit "
                                                     "MAX_FACE_SUBSETS = 8"):
            fan_from_data(2, [[1, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [1, 3]])

    def test_one_cone_of_forty_rays_is_refused_at_once(self, capsys, tmp_path):
        # its face closure would hold 2^40 cones
        path = tmp_path / "c40.json"
        path.write_text(json.dumps(cn_data(40)))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the maximal cones have 1099511627776 subsets, more than "
                                "the limit MAX_FACE_SUBSETS = 131072 that face enumeration allows\n")


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
            g = math.gcd(g, leibniz_det([[r[c] for c in cols] for r in rows]))
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

    def test_one_solver_per_cone(self, monkeypatch, capsys, tmp_path):
        # degenerate on the 18-ray surface: the fan check inverts the 18 ray
        # matrices for the dual frames, and the coordinates of the 16 rays
        # outside the reference cone, log_derivations and the support check
        # read the frames kept on the fan
        built = []
        init = linalg.LinearSolver.__init__

        def spy(self, b):
            built.append((b.rows, b.cols, tuple(sorted(b.entries.items()))))
            init(self, b)

        monkeypatch.setattr(linalg.LinearSolver, "__init__", spy)
        assert main(["degenerate", inline_fan_file(tmp_path, "S18"), "--json"]) == 0
        capsys.readouterr()
        assert (len(built), len(set(built))) == (18, 18)
