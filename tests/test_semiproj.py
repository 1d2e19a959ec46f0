import json
from fractions import Fraction

import pytest

from conftest import cn_data, load_fan_and_polyhedron
from toriclg import check_semiprojective, degeneration_exponent, parse_fan_file
from toriclg.fan import FanError, fan_from_data
from toriclg.linalg import dot
from toriclg.semiproj import (
    REASON_NOT_CONVEX,
    REASON_NOT_FULL_DIM,
    adjacent_max_pairs,
    solve_inequalities,
    validate_certificate,
)


def fan_json(rank, rays, max_cones, **extra):
    return json.dumps({"rank": rank, "rays": rays, "max_cones": max_cones, **extra})


class TestFourierMotzkin:
    def test_feasible_point_satisfies(self):
        ineqs = [((1, 0), Fraction(1)), ((-1, 0), Fraction(-3)), ((0, 1), Fraction(2)),
                 ((1, 1), Fraction(2))]
        x = solve_inequalities(ineqs, 2)
        assert x is not None
        for c, r in ineqs:
            assert dot(c, x) >= r

    def test_infeasible(self):
        assert solve_inequalities([((1,), Fraction(1)), ((-1,), Fraction(0))], 1) is None

    def test_empty_system(self):
        assert solve_inequalities([], 2) == (0, 0)


class TestCertificates:
    def test_p1_values_forced(self):
        fan, poly = load_fan_and_polyhedron("p1")
        rep = check_semiprojective(fan, poly)
        assert rep.semiprojective
        assert rep.certificate.functionals == ((0,), (-1,))
        assert rep.certificate.value(1) == 0
        assert rep.certificate.value(2) == 1

    def test_not_full_dimensional(self):
        fan, _ = parse_fan_file(fan_json(2, [[1, 0], [-1, 0]], [[1], [2]]))
        rep = check_semiprojective(fan)
        assert not rep.semiprojective
        assert rep.reason == REASON_NOT_FULL_DIM
        assert rep.witnesses

    def test_support_not_convex(self):
        fan, _ = parse_fan_file(fan_json(2, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                         [[1, 2], [3, 4]]))
        rep = check_semiprojective(fan)
        assert not rep.semiprojective
        assert rep.reason == REASON_NOT_CONVEX

    def test_zero_fan_not_semiprojective(self, zero2):
        rep = check_semiprojective(zero2)
        assert not rep.semiprojective
        assert rep.reason == REASON_NOT_FULL_DIM

    def test_suite_certificates(self, suite):
        for name, fan in suite.items():
            rep = check_semiprojective(fan)
            if name == "zero2":
                assert not rep.semiprojective
                continue
            assert rep.semiprojective, name
            assert validate_certificate(fan, [tuple(map(Fraction, f))
                                              for f in rep.certificate.functionals]) is None

    def test_cn_trivial_certificate(self):
        for n in (1, 2, 3, 4):
            fan = fan_from_data(**cn_data(n))
            rep = check_semiprojective(fan)
            assert rep.semiprojective
            assert adjacent_max_pairs(fan) == []

    def test_certificate_integrality_and_margin(self, suite):
        for name, fan in suite.items():
            rep = check_semiprojective(fan)
            if not rep.semiprojective:
                continue
            cert = rep.certificate
            for fun in cert.functionals:
                assert all(isinstance(x, int) for x in fun)
            for a, b in adjacent_max_pairs(fan):
                fa = cert.functionals[fan.max_cones.index(a)]
                fb = cert.functionals[fan.max_cones.index(b)]
                for i in sorted(b.index_set - a.index_set):
                    assert dot(fb, fan.ray(i)) - dot(fa, fan.ray(i)) >= 1

    def test_polyhedron_with_coarser_normal_fan_falls_back_to_search(self, hirzebruch):
        # the unit square's support function is linear across one wall of
        # this fan, hence induces no certificate; the search still finds one
        _, poly = parse_fan_file(fan_json(
            2, [[1, 0], [0, 1], [-1, 1], [0, -1]],
            [[1, 2], [2, 3], [3, 4], [1, 4]],
            polyhedron={"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
        rep = check_semiprojective(hirzebruch, poly)
        assert rep.semiprojective
        assert rep.reason is None
        assert validate_certificate(hirzebruch, list(rep.certificate.functionals)) is None
        assert rep.certificate == check_semiprojective(hirzebruch).certificate
        assert len(rep.witnesses) == 1 and "does not minimise" in rep.witnesses[0]

    def test_verdict_does_not_depend_on_a_non_inducing_polyhedron(self, p2):
        # a translated orthant has a one-cone normal fan: unbounded on P^2's cones
        _, poly = parse_fan_file(fan_json(
            2, [[1, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [1, 3]],
            polyhedron={"vertices": [[0, 0]], "recession_rays": [[1, 0], [0, 1]]}))
        rep = check_semiprojective(p2, poly)
        assert rep.semiprojective
        assert rep.certificate == check_semiprojective(p2).certificate
        assert len(rep.witnesses) == 1 and "unbounded" in rep.witnesses[0]

    def test_matching_polyhedron_works(self):
        fan, poly = load_fan_and_polyhedron("p2")
        rep = check_semiprojective(fan, poly)
        assert rep.semiprojective


class TestDegeneration:
    def test_p1(self, p1):
        fan, poly = load_fan_and_polyhedron("p1")
        cert = check_semiprojective(fan, poly).certificate
        rel = degeneration_exponent(fan, cert, fan.cone([1]), 2)
        assert rel.coefficients == (-1,)
        assert rel.exponent == 1
        assert rel.as_string() == "z2 * z1 = t^1"

    def test_blowup(self, blowup):
        cert = check_semiprojective(blowup).certificate
        rel = degeneration_exponent(blowup, cert, blowup.cone([1, 3]), 2)
        assert rel.coefficients == (-1, 1)
        assert rel.exponent >= 1

    def test_cxp1(self, cxp1):
        cert = check_semiprojective(cxp1).certificate
        rel = degeneration_exponent(cxp1, cert, cxp1.cone([1, 2]), 3)
        assert rel.coefficients == (0, -1)
        assert rel.exponent >= 1

    def test_ray_inside_cone_rejected(self, blowup):
        cert = check_semiprojective(blowup).certificate
        with pytest.raises(FanError, match="degenerates"):
            degeneration_exponent(blowup, cert, blowup.cone([1, 3]), 1)

    def test_exponent_positive_everywhere(self, suite):
        for name, fan in suite.items():
            rep = check_semiprojective(fan)
            if not rep.semiprojective:
                continue
            for cone in fan.max_cones:
                for l in range(1, fan.num_rays + 1):
                    if l in cone.index_set:
                        continue
                    rel = degeneration_exponent(fan, rep.certificate, cone, l)
                    assert rel.exponent >= 1
