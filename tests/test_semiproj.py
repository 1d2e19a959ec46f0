import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import cn_data, load_fan_and_polyhedron
from helpers import INLINE_FANS, random_unimodular
from toriclg import check_semiprojective, degeneration_exponent, parse_fan_file
from toriclg.fan import FanError, fan_from_data
from toriclg import semiproj
from toriclg.cli import main
from toriclg.linalg import dot, row_value
from toriclg.semiproj import (
    REASON_NO_PHI,
    REASON_NOT_CONVEX,
    REASON_NOT_FULL_DIM,
    _support_convexity_failure,
    _wall_rows,
    search_certificate,
    solve_inequalities,
    validate_certificate,
)


def fan_json(rank, rays, max_cones, **extra):
    return json.dumps({"rank": rank, "rays": rays, "max_cones": max_cones, **extra})


def p1_cube():
    """(P^1)^3: rays +-e_i, one maximal cone per choice of signs."""
    rays = [[s * int(j == i) for j in range(3)] for i in range(3) for s in (1, -1)]
    cones = [[2 * i + 1 + side for i, side in enumerate(sides)]
             for sides in itertools.product((0, 1), repeat=3)]
    return fan_from_data(3, rays, cones)


def scrambled_p1_power(k, seed):
    """(P^1)^k in random lattice coordinates, with its rays and cones shuffled."""
    rng = random.Random(seed)
    frame = random_unimodular(rng, k)
    rays = [[s * frame[r][i] for r in range(k)] for i in range(k) for s in (1, -1)]  # +-(column i)
    order = rng.sample(range(2 * k), 2 * k)  # new position p holds old ray order[p]
    new_index = {old: p + 1 for p, old in enumerate(order)}
    cones = [[new_index[2 * i + side] for i, side in enumerate(sides)]
             for sides in itertools.product((0, 1), repeat=k)]
    rng.shuffle(cones)
    return fan_from_data(k, [rays[i] for i in order], cones)


def searched_cube_certificate(fan):
    """The searched certificate of (P^1)^3: phi(x) = sum of max(0, -x_i), margin 1 on every wall.

    Pinning it keeps the message tests from following a search whose rows
    changed sign together with the check's.
    """
    functionals = check_semiprojective(fan).certificate.functionals
    assert functionals == tuple(tuple(-s for s in signs)
                                for signs in itertools.product((0, 1), repeat=3))
    return functionals


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

    # (rank, rays, max_cones) -> the witness (facet, ray), recorded with each
    # facet's normal computed as a kernel vector of its rays oriented towards its cone
    @pytest.mark.parametrize("data, facet, ray", [
        ((2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[1, 2], [3, 4]]), (1,), 4),
        ((2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[1, 2], [2, 3], [3, 4]]), (1,), 4),
        ((3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0]],
          [[1, 2, 3], [2, 3, 4], [3, 4, 5]]), (1, 3), 5),
        ((2, [[1, 0], [1, 1], [0, 1], [-1, -1]], [[1, 2], [2, 3], [3, 4]]), (1,), 4),
    ])
    def test_support_convexity_witness(self, data, facet, ray):
        found = _support_convexity_failure(fan_from_data(*data))
        assert (found[0].ray_indices, found[1]) == (facet, ray)

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
            assert _wall_rows(fan) == ([], [])  # one cone: no interior wall
            assert rep.certificate.values == (0,) * n

    def test_certificate_integrality_and_margin(self, suite):
        for name, fan in suite.items():
            rep = check_semiprojective(fan)
            if not rep.semiprojective:
                continue
            cert = rep.certificate
            for fun in cert.functionals:
                assert all(isinstance(x, int) for x in fun)
            assert all(isinstance(v, int) for v in cert.values)
            # the walls, found here by a scan over pairs of cones, come in pair order
            walls = [(a, b) for a, b in itertools.combinations(fan.max_cones, 2)
                     if len(a.index_set & b.index_set) == fan.rank - 1]
            rows, messages = _wall_rows(fan)
            assert len(rows) == len(messages) == len(walls)
            for (a, b), (row, rhs), message in zip(walls, rows, messages):
                (l,) = b.index_set - a.index_set
                assert rhs == 1 and message == f"strict convexity fails across {a}|{b} at ray {l}"
                margin = row_value(row, cert.values)
                assert margin >= 1
                assert margin == degeneration_exponent(fan, cert, a, l).exponent
                # the same wall read from b's side
                (l_b,) = a.index_set - b.index_set
                assert margin == degeneration_exponent(fan, cert, b, l_b).exponent

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

    def test_continuity_failure_names_the_first_shared_ray(self):
        fan = p1_cube()
        m = [list(f) for f in searched_cube_certificate(fan)]
        m[2][0] += 1  # cone {1,4,5} now disagrees with {1,3,5} and {1,3,6} on ray 1
        assert validate_certificate(fan, m) == \
            "continuity fails on ray 1 shared by {1,3,5} and {1,4,5}"

    def test_strictness_failure_prints_its_margin(self):
        # on a complete fan one covector cannot move without breaking continuity;
        # halving the first coordinate of every covector keeps it and halves the
        # margins across the walls x_1 = 0, which come after those of x_3 = 0
        fan = p1_cube()
        m = [(Fraction(f[0], 2),) + f[1:] for f in searched_cube_certificate(fan)]
        assert validate_certificate(fan, m) == \
            "strict convexity fails across {1,3,5}|{2,3,5} at ray 2 (margin 1/2)"

    def test_certificate_rows_are_sparse_and_the_search_pins_the_first_covector(self):
        fan = scrambled_p1_power(4, seed=7)
        n = fan.rank
        rows, messages = _wall_rows(fan)
        # a complete fan: each of the 16 cones has n facets, each a wall of two cones
        assert len(fan.max_cones) == 16 and len(rows) == len(messages) == 16 * n // 2
        for row, rhs in rows:
            assert rhs == 1 and 0 < len(row) <= n + 1 and 0 not in row.values()
            assert all(0 <= t < fan.num_rays for t in row)
        cert = search_certificate(fan)
        assert [cert.value(i) for i in fan.max_cones[0].ray_indices] == [0] * n
        assert cert.functionals[0] == (0,) * n
        assert validate_certificate(fan, cert.functionals) is None

    @pytest.mark.parametrize("name", ["S18", "pinwheel"])
    def test_walls_are_built_once_per_fan(self, name, monkeypatch, capsys, tmp_path):
        # the support check, the search and its check of the answer (and a
        # polyhedron's check) read the facets and walls kept on the fan
        builds = {"_facet_holders": [], "_wall_rows": []}
        for builder, fans in builds.items():
            def spy(fan, _build=getattr(semiproj, builder), _fans=fans):
                _fans.append(fan)
                return _build(fan)
            monkeypatch.setattr(semiproj, builder, spy)
        path = tmp_path / "fan.json"
        rays, cones = (PINWHEEL_RAYS, PINWHEELS[name]) if name in PINWHEELS else INLINE_FANS[name][1:]
        path.write_text(fan_json(len(rays[0]), rays, cones), encoding="utf-8")
        codes = [main([command, str(path), "--json"]) for command in ("validate", "degenerate")]
        capsys.readouterr()
        assert codes == ([0, 0] if name == "S18" else [0, 2])
        for fans in builds.values():
            assert len(fans) == len({id(fan) for fan in fans}) == 2
        fan = fan_from_data(len(rays[0]), rays, cones)
        check_semiprojective(fan)
        check_semiprojective(fan)
        assert [fans[2:] for fans in builds.values()] == [[fan], [fan]]

    def test_matching_polyhedron_works(self):
        fan, poly = load_fan_and_polyhedron("p2")
        rep = check_semiprojective(fan, poly)
        assert rep.semiprojective


E1, E2, E3, W1, W2, W3 = (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)
PINWHEEL_RAYS = [E1, E2, E3, (-1, -1, -1), W1, W2, W3, (1, 1, 1)]  # rays 1..8
PINWHEEL_CORE = [[1, 2, 4], [2, 3, 4], [1, 3, 4], [5, 6, 8], [6, 7, 8], [5, 7, 8]]
PINWHEELS = {
    # inside cone(e1, e2, e3) each quadrilateral e_i, e_i+1, w_i+1, w_i is cut
    # along one diagonal: e_i+1 w_i for the pinwheel, e_i w_i+1 for its mirror
    "pinwheel": PINWHEEL_CORE + [[1, 2, 5], [2, 6, 5], [2, 3, 6], [3, 7, 6], [3, 1, 7], [1, 5, 7]],
    "mirror": PINWHEEL_CORE + [[1, 2, 6], [1, 6, 5], [2, 3, 7], [2, 7, 6], [3, 1, 5], [3, 5, 7]],
}


class TestPinwheel:
    """A smooth complete fan with no strictly convex support function.

    Its walls e2w1, e3w2 and e1w3 (or, in the mirror, e1w2, e2w3 and e3w1)
    carry the relations e1 + w2 = e2 + w1, e2 + w3 = e3 + w2 and
    e3 + w1 = e1 + w3.  Each wall row says phi at the two rays outside the
    wall exceeds phi at the two on it by at least 1; the three rows sum to
    0 on the left and 3 on the right, so no phi satisfies them.
    """

    @pytest.mark.parametrize("name", PINWHEELS)
    def test_three_wall_rows_sum_to_zero(self, name):
        def add(*vs):
            return tuple(map(sum, zip(*vs)))

        assert add(E1, W2) == add(E2, W1) and add(E2, W3) == add(E3, W2) \
            and add(E3, W1) == add(E1, W3)
        fan = fan_from_data(3, PINWHEEL_RAYS, PINWHEELS[name])
        assert len(fan.max_cones) == 12
        # e1 + w2 = e2 + w1 is rays 1 + 6 = 2 + 5, and so on
        relations = [({1, 6}, {2, 5}), ({2, 7}, {3, 6}), ({3, 5}, {1, 7})]
        if name == "mirror":
            relations = [(on, off) for off, on in relations]
        wall_rows = []
        for off, on in relations:  # the wall's cones are on + one ray of off each
            assert all(fan.is_face(on | {i}) for i in off) and fan.is_face(on)
            wall_rows.append({i - 1: 1 for i in off} | {i - 1: -1 for i in on})
        rows = [row for row, _ in _wall_rows(fan)[0]]
        assert all(row in rows for row in wall_rows)
        total = {t: sum(row.get(t, 0) for row in wall_rows) for t in range(fan.num_rays)}
        assert set(total.values()) == {0}  # 0 >= 3 is false
        rep = check_semiprojective(fan)
        assert (rep.semiprojective, rep.reason, rep.certificate) == (False, REASON_NO_PHI, None)
        assert search_certificate(fan) is None

    @pytest.mark.parametrize("name", PINWHEELS)
    def test_cli_validate_says_no_and_degenerate_exits_2(self, name, capsys, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text(fan_json(3, [list(r) for r in PINWHEEL_RAYS], PINWHEELS[name]))
        assert main(["validate", str(path), "--json"]) == 0
        sp = json.loads(capsys.readouterr().out)["payload"]["semiprojective"]
        assert sp == {"semiprojective": False, "reason": "no-strictly-convex-phi",
                      "certificate": None, "witnesses": []}
        assert main(["validate", str(path)]) == 0
        assert "semi-projective: no (no-strictly-convex-phi)" in capsys.readouterr().out
        assert main(["degenerate", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: fan is not semi-projective: no-strictly-convex-phi\n"


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
