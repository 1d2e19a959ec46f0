"""The three workloads, their jobs, and the checks on every answer.

A job is one CLI call: ``python -m toriclg.cli <command> <fan file>
[--ring] --json``.  ``check`` compares its exit code and ``--json``
payload with answers computed in ``fans`` without the engine, and
returns a failure message or None.  A bad fan must exit 2 with an error
that names what is wrong.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from fans import (
    FanCase,
    affine_times_projective,
    blowup_projective_space,
    faces,
    hirzebruch,
    non_smooth_cone,
    overlapping_cones,
    p1_power,
    p1_power_minus_cone,
    p2_non_inducing_polyhedron,
    projective_space,
    scramble,
    surface,
)

COMMANDS = ("validate", "cohomology", "ring", "verify", "degenerate")

# ROADMAP item 5(a): an optional polyhedron that induces no certificate
# turns a semi-projective fan into "no-strictly-convex-phi".  The job stays
# in the workload and counts as failed until the engine is fixed.
KNOWN_DEFECT_5A = "P2-poly"


@dataclass(frozen=True)
class Job:
    command: str  # one of COMMANDS; "ring" is ``cohomology --ring``
    case: FanCase

    @property
    def label(self) -> str:
        return f"{self.command}:{self.case.name}"

    def cli_args(self, path: str) -> list[str]:
        if self.command == "ring":
            return ["cohomology", path, "--ring", "--json"]
        return [self.command, path, "--json"]


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass, in the order they run."""
    if workload == "lg-ring":
        coh = [projective_space(2), hirzebruch(2), blowup_projective_space(2), surface(12),
               projective_space(3), blowup_projective_space(3),
               affine_times_projective(1, 2), p1_power_minus_cone(3)]
        ring = [hirzebruch(2), surface(12), projective_space(3),
                affine_times_projective(1, 2), p1_power_minus_cone(3)]
        plan = [("cohomology", c) for c in coh] + [("ring", c) for c in ring]
    elif workload == "cech-verify":
        plan = [("verify", c) for c in (
            projective_space(2), hirzebruch(2), p1_power(2), blowup_projective_space(2),
            affine_times_projective(1, 1), affine_times_projective(1, 2),
            projective_space(3), surface(7))]
    elif workload == "fan-certify":
        plan = [("validate", c) for c in (
            blowup_projective_space(4), affine_times_projective(1, 3), surface(18),
            p1_power_minus_cone(3), overlapping_cones(), non_smooth_cone(),
            p2_non_inducing_polyhedron())]
        plan += [("degenerate", c) for c in (
            blowup_projective_space(3), surface(18), p1_power(3),
            affine_times_projective(2, 2))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Job(cmd, scramble(case, seed)) for cmd, case in plan]


WORKLOADS = ("lg-ring", "cech-verify", "fan-certify")


# -- the oracle side of each check ------------------------------------------------


def expected_dims(case: FanCase, t_max: int) -> list[int]:
    """Cohomology dims by total degree 0..t_max: Betti numbers, then zeros."""
    betti = list(case.betti)
    return (betti + [0] * (t_max + 1))[:t_max + 1]


def primitive_collections(case: FanCase) -> list[list[int]]:
    """Minimal non-faces; each has at most rank + 1 rays."""
    face_set = faces(case.cones)
    d = len(case.rays)
    out = []
    for size in range(2, case.rank + 2):
        for sub in itertools.combinations(range(1, d + 1), size):
            if sub not in face_set and all(sub[:i] + sub[i + 1:] in face_set
                                           for i in range(size)):
                out.append(list(sub))
    return sorted(out)


def _pair(m, u) -> int:
    return sum(a * b for a, b in zip(m, u))


def certificate_problem(case: FanCase, max_cones: list[list[int]],
                        functionals: list[list[int]]) -> str | None:
    """Check a piecewise linear certificate with integer arithmetic only.

    phi is linear on each maximal cone (one covector each), agrees on
    shared rays, and is strictly convex: phi(u_l) - <m_sigma, u_l> >= 1
    for every maximal cone sigma and every ray l outside it.
    """
    rays = case.rays
    phi: dict[int, int] = {}
    for cone, m in zip(max_cones, functionals):
        for i in cone:
            value = _pair(m, rays[i - 1])
            if phi.setdefault(i, value) != value:
                return f"certificate not continuous at ray {i}"
    for cone, m in zip(max_cones, functionals):
        for l in range(1, len(rays) + 1):
            if l not in cone and phi[l] - _pair(m, rays[l - 1]) < 1:
                return f"certificate not strictly convex on cone {cone} at ray {l}"
    return None


def check(job: Job, code: int, stdout: str, stderr: str) -> str | None:
    """A failure message for a wrong exit code or answer, else None."""
    case = job.case
    want_code = 2 if case.error else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if case.error:
        return None if case.error in stderr else f"error does not say {case.error!r}"
    try:
        out = json.loads(stdout)
        payload = out["payload"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a --json report"
    try:
        return _check_payload(job, payload)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed payload: {exc!r}"


def _check_payload(job: Job, p: dict) -> str | None:
    case = job.case
    if job.command == "validate":
        if not p["valid"]:
            return "valid is false"
        if len(p["all_cones"]) != len(faces(case.cones)):
            return "wrong number of cones"
        if p["primitive_collections"] != primitive_collections(case):
            return "wrong primitive collections"
        sp = p["semiprojective"]
        if sp["semiprojective"] != case.semiprojective:
            return (f"semi-projective {sp['semiprojective']} ({sp['reason']}), "
                    f"expected {case.semiprojective}")
        if sp["semiprojective"]:
            return certificate_problem(case, p["max_cones"], sp["certificate"])
        return None if sp["reason"] else "no reason given"
    if job.command in ("cohomology", "ring"):
        want = expected_dims(case, p["t_max"])
        if p["dims"] != want:
            return f"dims {p['dims']}, expected {want}"
        if job.command == "ring":
            return _check_ring(case, p, want)
        return None
    if job.command == "verify":
        want = expected_dims(case, p["t_max"])
        if not (p["agree"] and p["exactness_ok"]):
            return "pipelines do not agree"
        for key in ("dims_twisted", "dims_forms_total", "dims_const_total"):
            if p[key] != want:
                return f"{key} {p[key]}, expected {want}"
        return None
    if job.command == "degenerate":
        return _check_degenerate(case, p)
    raise ValueError(job.command)


def _check_ring(case: FanCase, p: dict, dims: list[int]) -> str | None:
    ring = p["ring"]
    per_degree = [0] * len(dims)
    for cls in ring["basis"]:
        per_degree[cls["degree"]] += 1
    if per_degree != dims:
        return "ring basis does not match the dims"
    n = sum(dims)
    if len(ring["products"]) != n * n:
        return f"{len(ring['products'])} products, expected {n * n}"
    for prod in ring["products"]:
        if prod["left"] == "t=0#0" and prod["degree"] < len(dims):
            index = int(prod["right"].split("#")[1])
            unit = [1 if i == index else 0 for i in range(dims[prod["degree"]])]
            if prod["coords"] != unit:
                return f"1 * {prod['right']} is not {prod['right']}"
    ls = p["regular_sequence"]
    even = [case.betti[2 * k] if 2 * k < len(case.betti) else 0
            for k in range(len(ls["quotient_dims"]))]
    if not ls["regular"] or ls["quotient_dims"] != even:
        return "coefficient forms are not a regular sequence with the Betti quotient"
    return None


def _check_degenerate(case: FanCase, p: dict) -> str | None:
    if not p["presentation"]["checked"]:
        return "presentation not checked"
    problem = certificate_problem(case, p["max_cones"], p["certificate"])
    if problem:
        return problem
    cone = p["reference_cone"]
    if len(cone) != case.rank:
        return "reference cone is not full-dimensional"
    phi = {}
    for c, m in zip(p["max_cones"], p["certificate"]):
        for i in c:
            phi[i] = _pair(m, case.rays[i - 1])
    outside = [l for l in range(1, len(case.rays) + 1) if l not in cone]
    if [r["ray"] for r in p["relations"]] != outside:
        return "relations do not cover the rays outside the reference cone"
    for rel in p["relations"]:
        a, l = rel["coefficients"], rel["ray"]
        combo = [sum(ai * case.rays[i - 1][t] for ai, i in zip(a, cone))
                 for t in range(case.rank)]
        if combo != list(case.rays[l - 1]):
            return f"coefficients of ray {l} do not reproduce it"
        m = phi[l] - sum(ai * phi[i] for ai, i in zip(a, cone))
        if rel["exponent"] != m or m < 1:
            return f"exponent {rel['exponent']} of ray {l}, expected {m} >= 1"
    return None
