#!/usr/bin/env python3
"""Run the full verification pipeline over every fan file in fans/.

For each fan: validate, compute the twisted-complex cohomology, check the
regular-sequence presentation, cross-verify the three pipelines, and (when
semi-projective) list the degeneration relations.  Prints one summary row
per fan; --json emits the full machine payloads.
"""

import argparse
import json
import pathlib
import sys
import time

from toriclg import (
    build_twisted,
    check_semiprojective,
    degeneration_exponent,
    lg_cohomology,
    lsop_check,
    parse_fan_file,
    primitive_collections,
    verify_exactness,
    verify_quasi_iso,
)
from toriclg.cech import CoverSimplex, default_m_max, default_t_max

FAN_DIR = pathlib.Path(__file__).resolve().parent.parent / "fans"


def run_one(path: pathlib.Path, m_max: int | None, t_max: int | None) -> dict:
    fan, poly = parse_fan_file(path.read_text(encoding="utf-8"))
    mm = m_max if m_max is not None else default_m_max(fan)
    tt = t_max if t_max is not None else default_t_max(fan)
    start = time.monotonic()
    sp = check_semiprojective(fan, poly)
    tc = build_twisted(fan)
    dims = lg_cohomology(tc, tt).dims
    regular = lsop_check(tc).regular
    cs = CoverSimplex(fan)
    exact = verify_exactness(cs, mm).exact
    quasi = verify_quasi_iso(cs, tt)
    relations = []
    if sp.semiprojective:
        cone = fan.max_cones[0]
        for l in range(1, fan.num_rays + 1):
            if l not in cone.index_set:
                rel = degeneration_exponent(fan, sp.certificate, cone, l)
                relations.append(rel.as_string())
    return {
        "fan": path.stem,
        "rank": fan.rank,
        "rays": fan.num_rays,
        "primitive_collections": [list(p) for p in primitive_collections(fan)],
        "semiprojective": sp.semiprojective,
        "dims": list(dims),
        "regular_sequence": regular,
        "exactness_ok": exact,
        "pipelines_agree": quasi.agree,
        "relations": relations,
        "seconds": round(time.monotonic() - start, 3),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mmax", type=int, default=None)
    ap.add_argument("--tmax", type=int, default=None)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("fans", nargs="*", help="fan names (default: everything in fans/)")
    args = ap.parse_args()

    paths = [FAN_DIR / f"{name}.json" for name in args.fans] if args.fans \
        else sorted(FAN_DIR.glob("*.json"))
    results = [run_one(p, args.mmax, args.tmax) for p in paths]

    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        header = f"{'fan':<14} {'rank':>4} {'semi-proj':>9} {'exact':>6} {'agree':>6} {'regular':>8}  dims"
        print(header)
        print("-" * len(header))
        for r in results:
            dims = ",".join(map(str, r["dims"]))
            print(f"{r['fan']:<14} {r['rank']:>4} {str(r['semiprojective']):>9} "
                  f"{str(r['exactness_ok']):>6} {str(r['pipelines_agree']):>6} "
                  f"{str(r['regular_sequence']):>8}  ({dims})")
            for rel in r["relations"]:
                print(f"{'':<14}   {rel}")
    bad = [r["fan"] for r in results if not (r["exactness_ok"] and r["pipelines_agree"])]
    if bad:
        print(f"verification failed for: {', '.join(bad)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
