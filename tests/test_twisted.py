import math
import random
from fractions import Fraction

import pytest

from conftest import cn_data
from helpers import random_unimodular
from toriclg import (
    build_twisted,
    lg_cohomology,
    log_derivations,
    lsop_check,
    ring_structure,
    sr_basis,
)
from toriclg.fan import FanError, fan_from_data
from toriclg import linalg
from toriclg.linalg import RationalMatrix
from toriclg.twisted import lg_degree, lg_differential, lg_multiply


def random_element(rng, tc, t):
    basis = tc.total_basis(t)
    return {b: Fraction(rng.randint(-3, 3)) for b in basis if rng.random() < 0.6}


class TestLinearForms:
    def test_p1(self, p1):
        assert [str(f) for f in build_twisted(p1).linear_forms] == ["z1 - z2"]

    def test_cn(self):
        for n in (1, 2, 3):
            tc = build_twisted(fan_from_data(**cn_data(n)))
            assert [str(f) for f in tc.linear_forms] == [f"z{i}" for i in range(1, n + 1)]

    def test_cxp1(self, cxp1):
        assert [str(f) for f in build_twisted(cxp1).linear_forms] == ["z1", "z2 - z3"]

    def test_non_unimodular_frame_rejected(self, p2):
        with pytest.raises(FanError, match="unimodular"):
            build_twisted(p2, [[1, 0], [0, 2]])

    @pytest.mark.parametrize("frame", [
        [[1.9, 0], [0, 1]],  # a float is refused, not truncated to 1
        [["1", 0], [0, 1]],
        [[True, 0], [0, 1]],
        [[1, 0], [0]],
        [[1, 1], [-1, 1]],  # det 2
    ])
    def test_frame_must_be_a_unimodular_int_matrix(self, p2, frame):
        with pytest.raises(FanError, match="unimodular"):
            build_twisted(p2, frame)


class TestCohomology:
    def test_cn_concentrated_in_degree_zero(self):
        for n in (1, 2, 3, 4):
            fan = fan_from_data(**cn_data(n))
            dims = lg_cohomology(build_twisted(fan)).dims
            assert dims[0] == 1 and all(d == 0 for d in dims[1:])

    def test_cxp1(self, cxp1):
        assert lg_cohomology(build_twisted(cxp1)).dims == (1, 0, 1, 0, 0, 0, 0)

    def test_zero_fan_exterior_algebra(self):
        for n in (1, 2, 3):
            fan = fan_from_data(n, [], [[]])
            dims = lg_cohomology(build_twisted(fan)).dims
            expect = tuple(math.comb(n, t) for t in range(2 * n + 3))
            assert dims == expect

    def test_square_zero(self, suite):
        for fan in suite.values():
            assert build_twisted(fan).verify_square_zero(2 * fan.rank + 2)

    def test_even_concentration_complete_fans(self, suite):
        for name in ("p1", "p2", "p1xp1", "hirzebruch1"):
            fan = suite[name]
            dims = lg_cohomology(build_twisted(fan)).dims
            assert all(d == 0 for t, d in enumerate(dims) if t % 2 == 1)
            assert all(d == 0 for t, d in enumerate(dims) if t > 2 * fan.rank)


class TestDerivationAndProduct:
    def test_leibniz(self, suite):
        rng = random.Random(41)
        for fan in suite.values():
            tc = build_twisted(fan)
            for _ in range(8):
                ta = rng.randint(0, 3)
                tb = rng.randint(0, 3)
                x = random_element(rng, tc, ta)
                y = random_element(rng, tc, tb)
                lhs = lg_differential(tc, lg_multiply(fan, x, y))
                dx_y = lg_multiply(fan, lg_differential(tc, x), y)
                x_dy = lg_multiply(fan, x, lg_differential(tc, y))
                sign = -1 if ta % 2 else 1
                rhs = dict(dx_y)
                for key, v in x_dy.items():
                    rhs[key] = rhs.get(key, Fraction(0)) + sign * v
                rhs = {k: v for k, v in rhs.items() if v != 0}
                assert lhs == rhs, (ta, tb)

    def test_homogeneous_degree(self, p2):
        tc = build_twisted(p2)
        x = {b: Fraction(1) for b in tc.total_basis(3)}
        assert lg_degree(x) == 3
        assert lg_degree(lg_differential(tc, x)) in (4, None)


class TestFrameIndependence:
    def test_dims_agree(self, suite):
        rng = random.Random(43)
        for fan in suite.values():
            base = lg_cohomology(build_twisted(fan), 2 * fan.rank).dims
            for _ in range(3):
                frame = random_unimodular(rng, fan.rank)
                dims = lg_cohomology(build_twisted(fan, frame), 2 * fan.rank).dims
                assert dims == base

    def test_conjugation_by_wedge_power(self, cxp1):
        # the frame complex is the standard complex written in the wedge
        # basis of the frame covectors
        rng = random.Random(47)
        fan = cxp1
        frame = random_unimodular(rng, fan.rank)
        tc_std = build_twisted(fan)
        tc_frm = build_twisted(fan, frame)
        u = RationalMatrix.from_rows(frame)
        for k in (1, 2):
            for m in (0, 2, 4):
                # change of basis on wedges tensor identity on monomials
                monos = len(sr_basis(fan, m))
                monos2 = len(sr_basis(fan, m + 2))
                ck = linalg.exterior_power(u, k).transpose()
                ck1 = linalg.exterior_power(u, k - 1).transpose()

                def widen(c, nm):
                    subs_r = c.rows
                    subs_c = c.cols
                    blocks = {}
                    for (i, j), v in c.entries.items():
                        blocks[(i, j)] = RationalMatrix.identity(nm).scale(v)
                    return linalg.block_matrix([nm] * subs_r, [nm] * subs_c, blocks)

                lhs = tc_std.block(k, m) @ widen(ck, monos)
                rhs = widen(ck1, monos2) @ tc_frm.block(k, m)
                assert lhs == rhs


class TestRingStructure:
    def test_p1_truncated_polynomial_ring(self, p1):
        ring = ring_structure(build_twisted(p1))
        assert ring.dims == (1, 0, 1, 0, 0)
        assert ring.basis == ((0, 0), (2, 0))
        assert ring.product((2, 0), (2, 0)) == ()  # degree-4 slot is zero
        assert ring.check_axioms() == []

    def test_p2_height_three(self, p2):
        ring = ring_structure(build_twisted(p2))
        assert ring.dims == (1, 0, 1, 0, 1, 0, 0)
        h_sq = ring.product((2, 0), (2, 0))
        assert len(h_sq) == 1 and h_sq[0] != 0
        assert ring.product((2, 0), (4, 0)) == ()  # h^3 lives in the zero slot
        assert ring.check_axioms() == []

    def test_unit_row(self, suite):
        for name in ("p1xp1", "hirzebruch1", "blowup_c2"):
            ring = ring_structure(build_twisted(suite[name]))
            assert ring.check_axioms() == []


class TestLsop:
    def test_p2(self, p2):
        rep = lsop_check(build_twisted(p2))
        assert rep.regular
        assert rep.dims == (1, 1, 1, 0, 0)

    def test_cxp1(self, cxp1):
        rep = lsop_check(build_twisted(cxp1))
        assert rep.regular
        assert rep.dims == (1, 1, 0, 0, 0)

    def test_hirzebruch(self, hirzebruch):
        rep = lsop_check(build_twisted(hirzebruch))
        assert rep.regular
        assert rep.dims == (1, 2, 1, 0, 0)

    def test_zero_fan_rejected(self, zero2):
        rep = lsop_check(build_twisted(zero2))
        assert not rep.regular  # zero forms are never regular

    def test_quotient_matches_cohomology_dims(self, suite):
        for name in ("p1", "p2", "p1xp1", "hirzebruch1", "blowup_c2", "c_x_p1"):
            fan = suite[name]
            tc = build_twisted(fan)
            rep = lsop_check(tc)
            assert rep.regular, name
            dims = lg_cohomology(tc).dims
            for t, d in enumerate(dims):
                if t % 2 == 0 and t <= rep.max_degree:
                    assert d == rep.dims[t // 2], (name, t)
                elif t % 2 == 1:
                    assert d == 0

    def test_quotient_ring_constants_match(self, p2, cxp1, hirzebruch):
        # transport the quotient presentation into the twisted complex and
        # compare products; the embedding of polynomial degree m at
        # exterior degree zero occupies the first coordinates at total
        # degree m
        for fan in (p2, cxp1, hirzebruch):
            tc = build_twisted(fan)
            rep = lsop_check(tc)
            coh = lg_cohomology(tc, 2 * rep.max_degree)

            def embed(m, vec):
                total = len(tc.total_basis(m))
                out = list(vec) + [Fraction(0)] * (total - len(vec))
                return tuple(out)

            for ma in range(0, rep.max_degree + 1, 2):
                for mb in range(0, rep.max_degree + 1, 2):
                    if ma + mb > rep.max_degree:
                        continue
                    sa, sb, st = rep.slots[ma], rep.slots[mb], rep.slots[ma + mb]
                    basis_a = sr_basis(fan, ma)
                    basis_b = sr_basis(fan, mb)
                    basis_t = sr_basis(fan, ma + mb)
                    idx_t = {mono: i for i, mono in enumerate(basis_t)}
                    change = [coh.slots[ma + mb].reduce(embed(ma + mb, r))
                              for r in st.representatives]
                    for ra in sa.representatives:
                        for rb in sb.representatives:
                            prod = [Fraction(0)] * len(basis_t)
                            for i, ca in enumerate(ra):
                                if not ca:
                                    continue
                                for j, cb in enumerate(rb):
                                    if not cb:
                                        continue
                                    mono = basis_a[i].times(basis_b[j])
                                    if fan.is_face(mono.support):
                                        prod[idx_t[mono]] += ca * cb
                            q_coords = st.reduce(tuple(prod))
                            lg_coords = coh.slots[ma + mb].reduce(embed(ma + mb, prod))
                            transported = [Fraction(0)] * len(lg_coords)
                            for c, col in zip(q_coords, change):
                                for t_i, v in enumerate(col):
                                    transported[t_i] += c * v
                            assert tuple(transported) == lg_coords


class TestDerivationPresentation:
    def test_cxp1(self, cxp1):
        pres = log_derivations(cxp1, cxp1.cone([1, 2]))
        assert pres.coefficients == ((0, -1),)
        assert [str(f) for f in pres.differential_coeffs] == ["z1", "z2 - z3"]
        assert pres.generator(0) == [(1, 1)]
        assert pres.generator(1) == [(2, 1), (3, -1)]

    def test_cn(self):
        fan = fan_from_data(**cn_data(3))
        pres = log_derivations(fan, fan.cone([1, 2, 3]))
        assert pres.extra == ()
        assert [str(f) for f in pres.differential_coeffs] == ["z1", "z2", "z3"]

    def test_blowup(self, blowup):
        pres = log_derivations(blowup, blowup.cone([1, 3]))
        assert pres.coefficients == ((-1, 1),)
        assert [str(f) for f in pres.differential_coeffs] == ["z1 - z2", "z2 + z3"]

    def test_low_dimensional_cone_rejected(self, blowup):
        with pytest.raises(FanError, match="full-dimensional"):
            log_derivations(blowup, blowup.cone([3]))

    def test_every_max_cone(self, suite):
        for name, fan in suite.items():
            if name == "zero2":
                continue
            for cone in fan.max_cones:
                pres = log_derivations(fan, cone, check_degree=2 * fan.rank)
                assert pres.checked_degree == 2 * fan.rank


class TestLocalKoszul:
    def test_subfan_cohomology_is_annihilator_wedge(self, suite):
        # for a single smooth cone the twisted complex retracts onto the
        # wedge algebra of the cone annihilator
        for name, fan in suite.items():
            for cone in fan.all_cones:
                if cone.dim == 0 and fan.num_rays > 0:
                    continue
                rays = [list(fan.ray(i)) for i in cone.ray_indices]
                sub = fan_from_data(fan.rank, rays,
                                    [list(range(1, cone.dim + 1))] if cone.dim else [[]])
                dims = lg_cohomology(build_twisted(sub), fan.rank + 1).dims
                expect = tuple(math.comb(fan.rank - cone.dim, t)
                               for t in range(fan.rank + 2))
                assert dims == expect, (name, cone)
