import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import FAN_DIR, cn_data, load_fan
from cech_helpers import (
    Cochain,
    cochain_delta,
    cochain_to_vector,
    from_total,
    functions_cochain,
    glue_sections,
    local_basis,
    poly_components,
    slot_rows,
    split_cocycle,
    split_cocycle_generic,
    to_total,
    vertical_matrix,
    zero_cochain,
)
from helpers import (
    lg_differential,
    minors_matrix,
    random_block_columns,
    random_closed_cochain,
    random_cochain,
    random_polynomial,
    random_total_columns,
    scrambled_data,
    sr_one,
    sr_variable,
    total_leibniz_sides,
)
from toriclg import (
    RationalMatrix,
    SRPolynomial,
    build_twisted,
    constant_total_cohomology,
    cup,
    forms_total_cohomology,
    restrict,
    verify_exactness,
    verify_quasi_iso,
)
from toriclg import cech, linalg, sr_basis
from toriclg.cech import (
    TAG_CONST,
    TAG_FORMS,
    CechError,
    CoverSimplex,
)
from toriclg.fan import fan_from_data
from toriclg.twisted import default_t_max


@pytest.fixture(scope="module")
def covers(suite):
    return {name: CoverSimplex(fan) for name, fan in suite.items()}


class TestCoverValidation:
    def test_missing_max_cone_rejected(self, p2):
        with pytest.raises(CechError, match="misses"):
            CoverSimplex(p2, [p2.cone([1, 2]), p2.cone([2, 3])])

    def test_extra_cones_allowed(self, p2):
        cs = CoverSimplex(p2, list(p2.max_cones) + [p2.cone([1])])
        assert cs.size == 4

    def test_large_cover_guard(self, p1xp1, monkeypatch):
        cones = list(p1xp1.all_cones)
        assert len(cones) == 9
        with pytest.raises(CechError, match="MAX_COVER_DEFAULT = 8"):
            CoverSimplex(p1xp1, cones)
        monkeypatch.setattr(cech, "MAX_COVER_DEFAULT", 9)
        assert CoverSimplex(p1xp1, cones).size == 9


class TestConstMatrix:
    """Independent oracle: the columns of const_matrix(cone, k) are a basis
    of the k-forms that contraction with every ray of the cone kills."""

    @staticmethod
    def contract(u, column, n, k):
        # iota_u e_S = sum_i (-1)^i u[s_i] e_(S minus s_i), S lex-ordered
        rows = list(itertools.combinations(range(n), k))
        out = {}
        for subset, coeff in zip(rows, column):
            for pos, j in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1:]
                out[rest] = out.get(rest, 0) + (-1) ** pos * u[j] * coeff
        return out

    @pytest.mark.parametrize("name", sorted(p.stem for p in FAN_DIR.glob("*.json")))
    def test_basis_of_annihilator_wedges(self, name):
        fan = load_fan(name)
        cs = CoverSimplex(fan)
        n = fan.rank
        for cone in fan.all_cones:
            for k in range(n + 1):
                a = cs.const_matrix(cone, k)
                assert a.shape == (math.comb(n, k), math.comb(n - cone.dim, k)), (cone, k)
                assert linalg.rank(a) == a.cols, (cone, k)
                for j in range(a.cols):
                    col = a.column(j)
                    for ray in cone.ray_indices:
                        image = self.contract(fan.ray(ray), col, n, k)
                        assert all(v == 0 for v in image.values()), (cone, k, ray)

    @pytest.mark.parametrize("seed", [None, 1, 7])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FAN_DIR.glob("*.json")))
    def test_equals_minors_of_the_annihilator_basis(self, name, seed):
        # the wedges are the minors, entry for entry, and their columns come
        # in lex order of the annihilator basis; a seed scrambles the fan
        fan = load_fan(name) if seed is None else scrambled(load_fan(name), seed)
        cs = CoverSimplex(fan)
        for cone in fan.all_cones:
            ann = [list(v) for v in cs._ann_basis(cone)]
            columns_as_rows = [[v[i] for v in ann] for i in range(fan.rank)]
            for k in range(fan.rank + 2):
                assert cs.const_matrix(cone, k) == minors_matrix(columns_as_rows, k), (cone, k)


def scrambled(fan, seed: int):
    """The fan in coordinates changed by a seeded unimodular matrix, its rays
    listed in a seeded order."""
    return fan_from_data(*scrambled_data(fan.rank, fan.rays, [c.ray_indices for c in fan.max_cones], seed))


class TestDelta:
    def test_p1_degree2_is_zero_map(self, covers):
        mat = covers["p1"].delta_matrix(TAG_FORMS, 0, 0, 2)
        assert mat.shape == (0, 2) and mat.is_zero()

    def test_p1_degree0(self, covers):
        mat = covers["p1"].delta_matrix(TAG_FORMS, 0, 0, 0)
        assert mat.to_rows() == [[Fraction(-1), Fraction(1)]]

    def test_delta_squared_zero_all_tags(self, covers):
        for name, cs in covers.items():
            n = cs.fan.rank
            for tag, ks in ((TAG_FORMS, range(n + 1)), (TAG_CONST, range(n + 1))):
                for k in ks:
                    for m in ((0, 2, 4) if tag != TAG_CONST else (0,)):
                        for p in range(cs.size - 1):
                            a = cs.delta_matrix(tag, p, k, m)
                            b = cs.delta_matrix(tag, p + 1, k, m)
                            assert (b @ a).is_zero(), (name, tag, p, k, m)

    def test_delta_commutes_with_vertical(self, covers):
        for name, cs in covers.items():
            n = cs.fan.rank
            for p in range(cs.size - 1):
                for k in range(1, n + 1):
                    for m in (0, 2):
                        left = cs.delta_matrix(TAG_FORMS, p, k - 1, m + 2) @ vertical_matrix(cs, p, k, m)
                        right = vertical_matrix(cs, p + 1, k, m) @ cs.delta_matrix(TAG_FORMS, p, k, m)
                        assert left == right, (name, p, k, m)


class TestExactness:
    def test_suite_small_degrees(self, covers):
        for name, cs in covers.items():
            rep = verify_exactness(cs, 4)
            assert rep.exact, name

    def test_forms_delta_is_copies_of_the_functions_delta(self, covers):
        # delta on the forms of exterior degree k is C(n, k) copies of delta on
        # the functions (k = 0), one per wedge: exactness at k = 0 gives every k
        def positions(cs, p, k, m):
            # per wedge, the index at exterior degree k of each index at k = 0
            total, offsets = cs.slot_layout(TAG_FORMS, p, 0, m)
            starts = [offsets[tau] for tau in cs.simplices(p)] + [total]
            wedges = math.comb(cs.fan.rank, k)
            return [[wedges * o + a * (e - o) + i - o for o, e in zip(starts, starts[1:])
                     for i in range(o, e)] for a in range(wedges)]

        for name, cs in covers.items():
            n = cs.fan.rank
            for p in range(cs.size):
                for m in (0, 2, 4):
                    base = cs.delta_matrix(TAG_FORMS, p, 0, m)
                    for k in range(1, n + 1):
                        want = {(rows[i], cols[j]): v
                                for rows, cols in zip(positions(cs, p + 1, k, m), positions(cs, p, k, m))
                                for (i, j), v in base.entries.items()}
                        delta = cs.delta_matrix(TAG_FORMS, p, k, m)
                        assert delta.shape == (math.comb(n, k) * base.rows, math.comb(n, k) * base.cols)
                        assert delta.entries == want, (name, p, k, m)

    def test_single_cone_cover_trivial(self):
        fan = fan_from_data(**cn_data(2))
        cs = CoverSimplex(fan)
        rep = verify_exactness(cs, 6)
        assert rep.exact
        assert cs.size == 1

    def test_report_structure(self, covers):
        rep = verify_exactness(covers["p1"], 2)
        assert rep.augmentation[0]["injective"]
        assert rep.entries[(2, 1)]["exact"]

    def test_rank_count_alone_is_not_exactness(self, p2, monkeypatch):
        # P^2, m = 0: C^0 -> C^1 -> C^2 has dims 3, 3, 1 and ranks 2, 1.  Swap
        # delta_1 for another rank-1 map that does not kill the image of delta_0.
        cs = CoverSimplex(p2)
        assert verify_exactness(cs, 0).exact
        honest = cs.delta_matrix
        broken = linalg.RationalMatrix(1, 3, {(0, 0): 1})
        assert linalg.rank(broken) == linalg.rank(honest(TAG_FORMS, 1, 0, 0)) == 1
        assert not (broken @ honest(TAG_FORMS, 0, 0, 0)).is_zero()

        def patched(tag, p, k, m):
            return broken if (tag, p, k, m) == (TAG_FORMS, 1, 0, 0) else honest(tag, p, k, m)

        monkeypatch.setattr(cs, "delta_matrix", patched)
        rep = verify_exactness(cs, 0)
        joint = rep.entries[(0, 1)]
        assert joint["rank_in"] + joint["rank_out"] == joint["dim"]
        assert not joint["exact"] and not rep.exact


class TestGlue:
    def test_p1_example(self, p1, covers):
        one = sr_one(p1)
        g1 = one + sr_variable(p1, 1)
        g2 = one + sr_variable(p1, 2)
        assert str(glue_sections(covers["p1"], [g1, g2])) == "z1 + z2 + 1"

    def test_constant_cochain(self, covers):
        for name, cs in covers.items():
            c = sr_one(cs.fan).scale(Fraction(7, 3))
            comps = [restrict(c, cone) for cone in cs.cover]
            assert glue_sections(cs, comps) == c

    def test_cxp1_example(self, cxp1, covers):
        z1 = sr_variable(cxp1, 1)
        z2 = sr_variable(cxp1, 2)
        z3 = sr_variable(cxp1, 3)
        glued = glue_sections(covers["c_x_p1"], [z1 + z2, z1 + z3])
        assert glued == z1 + z2 + z3

    def test_disagreement_rejected(self, p1, covers):
        one = sr_one(p1)
        with pytest.raises(CechError, match="disagree"):
            glue_sections(covers["p1"], [one, SRPolynomial(p1, ())])

    def test_random_global_sections_roundtrip(self, covers):
        rng = random.Random(61)
        for name, cs in covers.items():
            for _ in range(10):
                g = random_polynomial(rng, cs.fan)
                comps = [restrict(g, cone) for cone in cs.cover]
                glued = glue_sections(cs, comps)
                for comp, cone in zip(comps, cs.cover):
                    assert restrict(glued, cone) == comp


class TestSplit:
    def test_roundtrip_staged_and_generic(self, covers):
        rng = random.Random(67)
        for name, cs in covers.items():
            for p in range(1, min(3, cs.size - 1) + 1):
                for m in (0, 2, 4):
                    g = random_closed_cochain(rng, cs, TAG_FORMS, p, 0, m)
                    h = split_cocycle(cs, g)
                    assert cochain_to_vector(cs, cochain_delta(cs, h)) == cochain_to_vector(cs, g)
                    h2 = split_cocycle_generic(cs, g)
                    assert cochain_to_vector(cs, cochain_delta(cs, h2)) == cochain_to_vector(cs, g)

    def test_zero_maps_to_zero(self, covers):
        cs = covers["p2"]
        g = zero_cochain(cs, TAG_FORMS, 1, 0, 2)
        h = split_cocycle(cs, g)
        assert all(not any(v) for v in h.components.values())

    def test_higher_exterior_degree_rejected(self, covers):
        # functions are the forms of exterior degree 0; only those split
        cs = covers["p2"]
        for k in (1, 2):
            g = zero_cochain(cs, TAG_FORMS, 1, k, 2)
            with pytest.raises(CechError, match="exterior degree 0"):
                split_cocycle(cs, g)
            with pytest.raises(CechError, match="exterior degree 0"):
                poly_components(cs, g)
        with pytest.raises(CechError, match="exterior degree 0"):
            split_cocycle(cs, zero_cochain(cs, TAG_CONST, 1, 0, 0))

    def test_functions_cochain_is_degree_zero_forms(self, covers):
        cs = covers["p1"]
        c = functions_cochain(cs, 0, 2, {(0,): sr_variable(cs.fan, 1)})
        assert (c.tag, c.k) == (TAG_FORMS, 0)
        assert poly_components(cs, c)[(0,)] == sr_variable(cs.fan, 1)

    def test_not_closed_rejected(self, covers):
        # at m = 0 the top Cech space of the three-cone cover is nonzero,
        # so non-closed 1-cochains exist
        cs = covers["p2"]
        rng = random.Random(71)
        g = None
        for _ in range(50):
            cand = random_cochain(rng, cs, TAG_FORMS, 1, 0, 0)
            if any(cochain_to_vector(cs, cochain_delta(cs, cand))):
                g = cand
                break
        assert g is not None
        with pytest.raises(CechError, match="not closed"):
            split_cocycle(cs, g)


class TestTotals:
    def test_p1_constant_forms(self, covers):
        assert constant_total_cohomology(covers["p1"], 2).dims == (1, 0, 1)

    def test_zero_fan_full_exterior_algebra(self, covers):
        cs = covers["zero2"]
        assert constant_total_cohomology(cs, 3).dims == (1, 2, 1, 0)

    def test_cxp1(self, covers):
        assert constant_total_cohomology(covers["c_x_p1"], 2).dims == (1, 0, 1)

    def test_total_differentials_square_to_zero(self, covers):
        for name, cs in covers.items():
            for t in range(2 * cs.fan.rank + 2):
                assert (cs.forms_total_matrix(t + 1) @ cs.forms_total_matrix(t)).is_zero()
                assert (cs.const_total_matrix(t + 1) @ cs.const_total_matrix(t)).is_zero()

    def test_totals_match_block_assembly(self, covers, p2):
        # the totals and the augmentation are written straight from the delta
        # plans and the local blocks; each must equal the matrix assembled
        # block by block from delta_matrix, vertical_matrix and const_matrix
        def assembled(cs, src_tag, dst_tag, t_src, t_dst, arrows):
            src = cs.total_blocks(src_tag, t_src)
            dst = cs.total_blocks(dst_tag, t_dst)
            blocks = {(dst.index(target), j): blk for j, slot in enumerate(src)
                      for target, blk in arrows(*slot) if target in dst}
            return linalg.block_matrix([cs.slot_layout(dst_tag, *b)[0] for b in dst],
                                       [cs.slot_layout(src_tag, *b)[0] for b in src], blocks)

        def forms_arrows(cs):
            def arrows(p, k, m):
                yield (p + 1, k, m), cs.delta_matrix(TAG_FORMS, p, k, m)
                if k >= 1:
                    yield (p, k - 1, m + 2), vertical_matrix(cs, p, k, m).scale((-1) ** p)
            return arrows

        def inclusion_arrows(cs):
            def arrows(p, k, m):
                blocks = [cs.const_matrix(cs.cone_of(tau), k) for tau in cs.simplices(p)]
                yield (p, k, m), linalg.block_matrix(
                    [b.rows for b in blocks], [b.cols for b in blocks],
                    {(i, i): b for i, b in enumerate(blocks)})
            return arrows

        extra = CoverSimplex(p2, list(p2.max_cones) + [p2.cone([1]), p2.cone([1, 2])])
        for name, cs in [*covers.items(), ("p2 with extra cones", extra)]:
            n = cs.fan.rank
            for t in range(2 * n + 3):
                assert cs.forms_total_matrix(t) == assembled(
                    cs, TAG_FORMS, TAG_FORMS, t, t + 1, forms_arrows(cs)), (name, t)
                assert cs.const_total_matrix(t) == assembled(
                    cs, TAG_CONST, TAG_CONST, t, t + 1,
                    lambda p, k, m: [((p + 1, k, m), cs.delta_matrix(TAG_CONST, p, k, m))]), (name, t)
                assert cs.inclusion_matrix(t) == assembled(
                    cs, TAG_CONST, TAG_FORMS, t, t, inclusion_arrows(cs)), (name, t)
            # the functions (k = 0); the forms of degree k are C(n, k) copies of them
            for m in range(0, 2 * n + 5, 2):
                src = [(mono, ()) for mono in sr_basis(cs.fan, m)]
                want = {}
                for tau in cs.simplices(0):
                    local = local_basis(cs, TAG_FORMS, tau, 0, m)
                    off = cs.slot_layout(TAG_FORMS, 0, 0, m)[1][tau]
                    for j, b in enumerate(src):
                        if b in local:
                            want[(off + local.index(b), j)] = 1
                aug = cs.augmentation_matrix(m)
                assert (aug.rows, aug.cols) == (cs.slot_layout(TAG_FORMS, 0, 0, m)[0], len(src))
                assert aug.entries == want, (name, m)

    @pytest.mark.parametrize("data", [
        load_fan("c2"), load_fan("c3"),
        # rank 4, one maximal cone of dimension 2
        fan_from_data(4, [[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 2]]),
    ], ids=["c2", "c3", "c2_x_torus2"])
    def test_one_cone_cover_total_is_the_twisted_total(self, data):
        # on a cover of one cone the forms double complex is the twisted
        # complex in Cech degree 0: both callers of total_matrix write one matrix
        cs, tc = CoverSimplex(data), build_twisted(data)
        assert cs.size == 1
        for t in range(default_t_max(data) + 1):
            assert cs.forms_total_matrix(t) == tc.total_differential(t), t

    def test_alternative_sign_convention_same_dims(self, covers):
        # D' = vertical + (-1)^k delta also squares to zero and yields the
        # same cohomology dimensions
        cs = covers["c_x_p1"]
        t_max = 6

        def alt_total(t):
            src = cs.total_blocks(TAG_FORMS, t)
            dst = cs.total_blocks(TAG_FORMS, t + 1)
            dst_pos = {b: i for i, b in enumerate(dst)}
            row_sizes = [cs.slot_layout(TAG_FORMS, *b)[0] for b in dst]
            col_sizes = [cs.slot_layout(TAG_FORMS, *b)[0] for b in src]
            blocks = {}
            for j, (p, k, m) in enumerate(src):
                if (p + 1, k, m) in dst_pos:
                    d = cs.delta_matrix(TAG_FORMS, p, k, m)
                    if k % 2:
                        d = d.scale(-1)
                    blocks[(dst_pos[(p + 1, k, m)], j)] = d
                if k >= 1 and (p, k - 1, m + 2) in dst_pos:
                    blocks[(dst_pos[(p, k - 1, m + 2)], j)] = vertical_matrix(cs, p, k, m)
            return linalg.block_matrix(row_sizes, col_sizes, blocks)

        for t in range(t_max):
            assert (alt_total(t + 1) @ alt_total(t)).is_zero()
        base = forms_total_cohomology(cs, t_max).dims
        alt = []
        for t in range(t_max + 1):
            d_in = alt_total(t - 1) if t else linalg.RationalMatrix.zeros(
                sum(cs.slot_layout(TAG_FORMS, *b)[0] for b in cs.total_blocks(TAG_FORMS, 0)), 0)
            alt.append(linalg.cohomology_at(d_in, alt_total(t)).dim)
        assert tuple(alt) == base


class TestQuasiIso:
    def test_p1(self, covers):
        rep = verify_quasi_iso(covers["p1"])
        assert rep.agree
        assert rep.dims_twisted == (1, 0, 1, 0, 0)

    def test_cn(self):
        fan = fan_from_data(**cn_data(3))
        rep = verify_quasi_iso(CoverSimplex(fan))
        assert rep.agree
        assert rep.dims_twisted[0] == 1 and all(d == 0 for d in rep.dims_twisted[1:])

    def test_p2(self, covers):
        rep = verify_quasi_iso(covers["p2"])
        assert rep.agree
        assert rep.dims_twisted == (1, 0, 1, 0, 1, 0, 0)

    def test_repeated_intersection_cover(self, p2):
        # adding a face to the cover repeats simplex cones; nothing breaks
        cs = CoverSimplex(p2, list(p2.max_cones) + [p2.cone([1])])
        cones = [cs.cone_of(tau) for tau in cs.simplices(1)]
        assert len(set(cones)) < len(cones)
        assert verify_exactness(cs, 4).exact
        rep = verify_quasi_iso(cs)
        assert rep.agree
        assert rep.dims_const_total == (1, 0, 1, 0, 1, 0, 0)

    def test_rank_three_product_fan(self):
        # projective line times an affine plane
        fan = fan_from_data(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            [[1, 3, 4], [2, 3, 4]])
        cs = CoverSimplex(fan)
        assert verify_exactness(cs, 6).exact
        rep = verify_quasi_iso(cs)
        assert rep.agree
        assert rep.dims_twisted == (1, 0, 1, 0, 0, 0, 0, 0, 0)

    def test_half_plane_fan(self):
        fan = fan_from_data(2, [[1, 0], [0, 1], [-1, 0]], [[1, 2], [2, 3]])
        rep = verify_quasi_iso(CoverSimplex(fan))
        assert rep.agree
        assert rep.dims_twisted == (1, 0, 1, 0, 0, 0, 0)


class TestCup:
    """The cup on total-complex columns (``cech.cup``)."""

    def test_unit_cochain_acts_trivially(self, covers):
        rng = random.Random(73)
        for (name, cs), tag in itertools.product(covers.items(), (TAG_FORMS, TAG_CONST)):
            unit = to_total(cs, 2 * [Cochain(tag, 0, 0, 0, {tau: (1,) for tau in cs.simplices(0)})])
            if tag == TAG_FORMS:  # functions in one slot
                p = min(1, cs.size - 1)
                beta = random_block_columns(rng, cs, tag, p, 0, 2)
                assert cup(cs, tag, 0, unit, p + 2, beta) == beta, name
            for t in range(4):
                y = random_total_columns(rng, cs, tag, t)
                assert cup(cs, tag, 0, unit, t, y) == y, (name, t)
                assert cup(cs, tag, t, y, 0, unit) == y, (name, t)

    def test_pointwise_products_degree_zero(self, covers, p1):
        cs = covers["p1"]
        z1 = sr_variable(p1, 1)
        z2 = sr_variable(p1, 2)
        a = to_total(cs, [functions_cochain(cs, 0, 2, {(0,): z1, (1,): z2})])
        prod = cup(cs, TAG_FORMS, 2, a, 2, a)
        square = from_total(cs, TAG_FORMS, prod.column(0), 0, 0, 4)
        assert prod == to_total(cs, [square])  # nothing outside the slot of functions
        polys = poly_components(cs, square)
        assert polys[(0,)] == restrict(z1 * z1, p1.cone([1]))
        assert polys[(1,)] == restrict(z2 * z2, p1.cone([2]))

    def test_leibniz_functions(self, covers):
        # single-slot columns of functions: D is delta there, and (-1)^t1 = (-1)^p
        rng = random.Random(79)
        for name, cs in covers.items():
            if cs.size < 2:
                continue
            for (p, q, ma, mb) in ((0, 0, 2, 2), (0, 1, 2, 0), (1, 0, 0, 2)):
                a = random_block_columns(rng, cs, TAG_FORMS, p, 0, ma)
                b = random_block_columns(rng, cs, TAG_FORMS, q, 0, mb)
                left, right = total_leibniz_sides(cs, TAG_FORMS, p + ma, a, q + mb, b)
                assert left == right, (name, p, q)

    def test_leibniz_const(self, covers):
        rng = random.Random(83)
        cs = covers["p1xp1"]
        for (p, ka, q, kb) in ((0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1)):
            a = random_block_columns(rng, cs, TAG_CONST, p, ka, 0)
            b = random_block_columns(rng, cs, TAG_CONST, q, kb, 0)
            left, right = total_leibniz_sides(cs, TAG_CONST, p + ka, a, q + kb, b)
            assert left == right, (p, ka, q, kb)

    def test_total_leibniz_forms(self, covers):
        # D = delta + (-1)^p vertical is a derivation for the cup with sign (-1)^t1
        rng = random.Random(89)
        cs = covers["c_x_p1"]
        for (pa, ka, ma, pb, kb, mb) in ((0, 1, 0, 0, 1, 0), (0, 1, 2, 1, 1, 0),
                                         (1, 1, 0, 0, 2, 0), (0, 2, 0, 0, 1, 2)):
            a = random_block_columns(rng, cs, TAG_FORMS, pa, ka, ma)
            b = random_block_columns(rng, cs, TAG_FORMS, pb, kb, mb)
            left, right = total_leibniz_sides(cs, TAG_FORMS, pa + ka + ma, a, pb + kb + mb, b)
            assert left == right, (pa, ka, ma, pb, kb, mb)

    @pytest.mark.parametrize("name", [*sorted(p.stem for p in FAN_DIR.glob("*.json")),
                                      "p2 with an extra cone"])
    def test_total_leibniz_every_cover(self, name):
        fan = load_fan(name.split()[0])
        cs = CoverSimplex(fan, [*fan.max_cones, fan.cone([1])] if " " in name else None)
        rng = random.Random(97)
        nonzero = 0
        for tag in (TAG_FORMS, TAG_CONST):
            for t1 in range(4):
                for t2 in range(4):
                    x = random_total_columns(rng, cs, tag, t1)
                    y = random_total_columns(rng, cs, tag, t2)
                    left, right = total_leibniz_sides(cs, tag, t1, x, t2, y)
                    assert left == right, (tag, t1, t2)
                    nonzero += not left.is_zero()
        assert nonzero or name == "zero2"  # both total differentials of the zero fan vanish

    def test_products_outside_the_complex_vanish(self, covers):
        # on P^1, k = 2 is above the rank and p = 2 is past the two-cone cover
        cs = covers["p1"]
        rng = random.Random(101)
        for p, k in ((0, 1), (1, 0)):
            x = random_block_columns(rng, cs, TAG_CONST, p, k, 0)
            prod = cup(cs, TAG_CONST, p + k, x, p + k, x)
            assert prod.shape == (slot_rows(cs, TAG_CONST, 2, 1, 1, 0)[0], 2) and prod.is_zero()

    def test_wrong_shapes_rejected(self, covers):
        cs = covers["p2"]
        rng = random.Random(103)
        for tag in (TAG_FORMS, TAG_CONST):
            x = random_total_columns(rng, cs, tag, 2)
            with pytest.raises(CechError, match="no cup"):
                cup(cs, tag, 2, x, 1, x)
            one = RationalMatrix.from_columns([x.column(0)], rows=x.rows)
            with pytest.raises(CechError, match="no cup"):
                cup(cs, tag, 2, x, 2, one)

    def test_p2_square_of_generator_spans_top(self, covers):
        cs = covers["p2"]
        coh = constant_total_cohomology(cs, 4)
        assert coh.dims == (1, 0, 1, 0, 1)
        g = coh.slots[2].representatives
        square = cup(cs, TAG_CONST, 2, g, 2, g)
        assert (cs.const_total_matrix(4) @ square).is_zero()
        coords = coh.slots[4].reduce(square)
        assert coords.shape == (1, 1) and not coords.is_zero()

    def test_p1xp1_mixed_products(self, covers):
        # two middle classes multiply to the top class; squares vanish
        cs = covers["p1xp1"]
        coh = constant_total_cohomology(cs, 4)
        assert coh.dims == (1, 0, 2, 0, 1)
        g = coh.slots[2].representatives

        def pick(*js):
            return RationalMatrix.from_columns([g.column(j) for j in js], rows=g.rows)

        products = coh.slots[4].reduce(cup(cs, TAG_CONST, 2, pick(0, 0, 1, 1), 2, pick(0, 1, 0, 1)))
        assert products.column(0) == (0,)
        assert products.column(3) == (0,)
        assert products.column(1)[0] != 0
        assert products.column(1) == products.column(2)  # even classes commute


@pytest.mark.parametrize("name", ["p2", "hirzebruch1"])
def test_local_vertical_matches_element_differential(name):
    # the index-map blocks on every simplex cone against helpers.lg_differential,
    # with the coefficient forms restricted to the cone
    fan = load_fan(name)
    cs = CoverSimplex(fan)
    tc = build_twisted(fan)
    n = fan.rank
    for tau in {tau for p in range(cs.size) for tau in cs.simplices(p)}:
        cone = cs.cone_of(tau)
        forms = [restrict(f, cone) for f in tc.linear_forms]
        for m in range(0, 2 * n + 5, 2):
            for k in range(1, n + 1):
                columns: dict = {}
                for (i, j), v in cs._local_vertical(cone, k, m).entries.items():
                    columns.setdefault(j, {})[i] = v
                row = {b: i for i, b in enumerate(local_basis(cs, TAG_FORMS, tau, k - 1, m + 2))}
                for j, b in enumerate(local_basis(cs, TAG_FORMS, tau, k, m)):
                    want = {row[key]: v for key, v in lg_differential(tc, {b: 1}, forms).items()}
                    assert columns.get(j, {}) == want, (name, cone, k, m, j)
