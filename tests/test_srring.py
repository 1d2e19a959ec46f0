import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cn_data
from cech_helpers import cochain_from_vector
from helpers import hilbert_series, random_polynomial, sr_one, sr_variable
from toriclg import (
    Monomial,
    SRPolynomial,
    multiply,
    primitive_collections,
    restrict,
    sr_basis,
)
from toriclg.cech import TAG_FORMS, CoverSimplex
from toriclg.fan import fan_from_data
from toriclg.linalg import LinalgError, RationalMatrix
from toriclg.srring import cone_monomial_basis
from toriclg.twisted import build_twisted, ring_structure


def names(monos):
    return [str(m) for m in monos]


class TestBasis:
    def test_p1_degree4(self, p1):
        assert names(sr_basis(p1, 4)) == ["z1^2", "z2^2"]

    def test_c2_degree4(self):
        c2 = fan_from_data(**cn_data(2))
        assert names(sr_basis(c2, 4)) == ["z1^2", "z1*z2", "z2^2"]

    def test_degree0(self, suite):
        for fan in suite.values():
            assert names(sr_basis(fan, 0)) == ["1"]

    def test_odd_empty(self, p2):
        assert sr_basis(p2, 3) == []

    def test_cone_basis(self, blowup):
        cone = blowup.cone([1, 3])
        assert names(cone_monomial_basis(blowup, cone, 4)) == ["z1^2", "z1*z3", "z3^2"]

    def test_brute_force_against_collection_divisibility(self, suite):
        # independent oracle: count exponent vectors not divisible by any
        # primitive-collection monomial
        for fan in suite.values():
            if fan.num_rays > 6:
                continue
            pcs = [set(p) for p in primitive_collections(fan)]
            for m in (0, 2, 4, 6):
                expected = set()
                for combo in itertools.product(range(m // 2 + 1), repeat=fan.num_rays):
                    if sum(combo) != m // 2:
                        continue
                    support = {i + 1 for i, e in enumerate(combo) if e}
                    if any(p <= support for p in pcs):
                        continue
                    expected.add(Monomial.from_map({i + 1: e for i, e in enumerate(combo) if e}))
                assert set(sr_basis(fan, m)) == expected


class TestRestrict:
    def test_kills_outside_support(self, blowup):
        p = SRPolynomial.build(blowup, {
            Monomial.from_map({1: 2}): 1, Monomial.from_map({1: 1, 3: 1}): 1})
        assert str(restrict(p, blowup.cone([1]))) == "z1^2"

    def test_identity_when_supported(self, blowup):
        cone = blowup.cone([1, 3])
        p = SRPolynomial.build(blowup, {Monomial.from_map({1: 1, 3: 2}): Fraction(5, 2)})
        assert restrict(p, cone) == p

    def test_cxp1_example(self, cxp1):
        p = sr_variable(cxp1, 2) - sr_variable(cxp1, 3)
        assert str(restrict(p, cxp1.cone([1, 2]))) == "z2"


class TestMultiply:
    def test_p1_relation(self, p1):
        z1 = sr_variable(p1, 1)
        z2 = sr_variable(p1, 2)
        assert multiply(z1, z2).is_zero()

    def test_unit(self, suite):
        rng = random.Random(5)
        for fan in suite.values():
            p = random_polynomial(rng, fan)
            assert multiply(sr_one(fan), p) == p

    def test_blowup_example(self, blowup):
        z1 = sr_variable(blowup, 1)
        z2 = sr_variable(blowup, 2)
        z3 = sr_variable(blowup, 3)
        assert str(multiply(z1 + z3, z2)) == "z2*z3"

    def test_normal_form_drops_nonfaces(self, p1):
        p = SRPolynomial.build(p1, {Monomial.from_map({1: 1, 2: 1}): 7})
        assert p.is_zero()


class TestCoefficients:
    def test_integral_coefficients_are_ints(self, p2):
        z1, z2 = Monomial.variable(1), Monomial.variable(2)
        p = SRPolynomial.build(p2, [(z1, Fraction(1, 2)), (z1, Fraction(1, 2)),
                                    (z2, Fraction(1, 3))])
        assert p.terms == ((z1, 1), (z2, Fraction(1, 3)))
        assert type(p.terms[0][1]) is int
        square = multiply(p, p)  # z1^2 + 2/3 z1*z2 + 1/9 z2^2
        assert [type(c) for _, c in square.terms] == [int, Fraction, Fraction]
        assert [type(c) for _, c in multiply(p + p, p + p).terms] == [int, Fraction, Fraction]

    def test_float_coefficient_refused(self, p2):
        with pytest.raises(LinalgError, match="float"):
            SRPolynomial.build(p2, {Monomial.variable(1): 0.5})
        with pytest.raises(LinalgError, match="float"):
            sr_variable(p2, 1).scale(0.5)

    def test_float_element_coordinate_refused(self, p2):
        # a ring element holds the entries of its representative's column, and a
        # float cannot enter the matrix of representatives
        tc = build_twisted(p2)
        ring = ring_structure(tc)
        reps = tc._slots[2].representatives
        basis = tc.total_basis(2)
        assert ring.representatives[(2, 0)] == {basis[i]: v for (i, _), v in reps.entries.items()}
        assert {type(v) for elt in ring.representatives.values() for v in elt.values()} <= {int, Fraction}
        with pytest.raises(LinalgError, match="float"):
            RationalMatrix.from_columns([[0.1, 0, 0]], rows=3)

    def test_float_cochain_coordinate_refused(self, p2):
        cs = CoverSimplex(p2)  # three maximal cones, constants in degree m = 0
        assert cochain_from_vector(cs, TAG_FORMS, 0, 0, 0, [1, Fraction(1, 2), 0]).components == {
            (0,): (1,), (1,): (Fraction(1, 2),), (2,): (0,)}
        with pytest.raises(LinalgError, match="float"):
            cochain_from_vector(cs, TAG_FORMS, 0, 0, 0, [1, 0.1, 0])


class TestHilbert:
    def test_p1(self, p1):
        assert hilbert_series(p1, 6) == (1, 2, 2, 2)

    def test_c1(self):
        c1 = fan_from_data(**cn_data(1))
        assert hilbert_series(c1, 6) == (1, 1, 1, 1)

    def test_p2(self, p2):
        assert hilbert_series(p2, 6) == (1, 3, 6, 9)

    def test_zero_fan(self, zero2):
        assert hilbert_series(zero2, 4) == (1, 0, 0)


class TestRingMapProperties:
    def test_restrict_is_ring_map(self, suite):
        rng = random.Random(31)
        for fan in suite.values():
            for cone in fan.all_cones:
                p = random_polynomial(rng, fan)
                q = random_polynomial(rng, fan)
                assert restrict(multiply(p, q), cone) == \
                    multiply(restrict(p, cone), restrict(q, cone))

    def test_restriction_functoriality(self, suite):
        # restricting in stages agrees with restricting directly
        rng = random.Random(37)
        for fan in suite.values():
            cones = fan.all_cones
            for _ in range(10):
                a = rng.choice(cones)
                b = rng.choice(cones)
                overlap = fan.cone(a.index_set & b.index_set)
                p = random_polynomial(rng, fan)
                assert restrict(restrict(p, a), overlap) == restrict(p, overlap)


@st.composite
def p2_polynomials(draw):
    from conftest import load_fan
    fan = load_fan("p2")
    n_terms = draw(st.integers(min_value=1, max_value=4))
    acc = {}
    for _ in range(n_terms):
        face = draw(st.sampled_from([c.ray_indices for c in fan.all_cones]))
        exps = {}
        for i in face:
            exps[i] = draw(st.integers(min_value=0, max_value=2))
        mono = Monomial.from_map({i: e for i, e in exps.items() if e})
        acc[mono] = acc.get(mono, 0) + draw(st.integers(min_value=-3, max_value=3))
    return SRPolynomial.build(fan, {m: Fraction(c) for m, c in acc.items()})


@settings(max_examples=80, deadline=None)
@given(p2_polynomials(), p2_polynomials(), p2_polynomials())
def test_ring_axioms_random(p, q, r):
    fan = p.fan
    assert multiply(p, q) == multiply(q, p)
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
    assert multiply(p + q, r) == multiply(p, r) + multiply(q, r)
