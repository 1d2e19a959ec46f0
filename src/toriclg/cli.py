"""Command line front end.

Subcommands: validate, cohomology, verify, degenerate.  Each reads a fan
file (UTF-8 JSON), prints a human-readable report to stdout, or the
machine payload with --json.  The machine payload contains no timing, so
identical input and flags give byte-identical output.

Exit codes: 0 success / all verified, 1 internal error, 2 bad input (a
missing, unreadable or invalid fan file, or a bad flag value such as a
negative --tmax or --mmax, or one above MAX_DEGREE), 3 verification
mismatch, with one stderr line that names the first failing check and its
degree.  A reader that closes stdout early (``| head``) gets no error
message, and the exit code stays the command's own: 0, or 3 for a mismatch.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from types import SimpleNamespace

# No engine module, nor json or fractions, loads with the CLI: --help and
# usage errors run on the argv table alone.  Each function imports what it
# runs when it runs, so a job compiles no module it skips.

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3

# Largest --tmax or --mmax accepted.  At 100 every degree-bounded command on
# every fan in fans/ ends within 5 s and 250 MB (the slowest is verify --tmax
# 100 on C^3: 2.8 s, 201 MB, median of 13 runs, peak RSS of the child; 2-core
# VM, Python 3.11.7; 246 MB while each total differential kept its RREF after
# the slots on both sides of it were built).  At 200, cohomology on C^3 took
# 15 s and 960 MB while zero slots were still certified modulo a prime, and
# their exact eliminations now take about a fifth more memory; on rank-3 fans
# the cost grows about x8 per doubling.  The default windows (2n+2, 2n+4)
# reach 100 only at rank 48.
MAX_DEGREE = 100


def _frac(x) -> str | int:
    # an exact entry is an int or a Fraction, and both have a denominator
    return int(x) if x.denominator == 1 else str(x)


def _cone_list(c) -> list[int]:
    return list(c.ray_indices)


class Report:
    __slots__ = ("command", "fan_meta", "params", "payload", "timing_seconds")

    def __init__(self, command: str, fan_meta: dict, params: dict, payload: dict,
                 timing_seconds: float):
        self.command = command
        self.fan_meta = fan_meta
        self.params = params
        self.payload = payload
        self.timing_seconds = timing_seconds

    def machine_dict(self) -> dict:
        # timing deliberately excluded: machine reports are byte-reproducible
        return {"command": self.command, "fan": self.fan_meta,
                "params": self.params, "payload": self.payload}

    def to_json(self) -> str:
        import json

        return json.dumps(self.machine_dict(), sort_keys=True, indent=2)

    def human(self) -> str:
        lines = [f"== {self.command} =="]
        meta = self.fan_meta
        lines.append(f"fan: rank {meta['rank']}, {meta['num_rays']} rays, "
                     f"{meta['num_max_cones']} maximal cones")
        if self.params:
            lines.append("params: " + ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())))
        lines.extend(_human_payload(self.command, self.payload))
        lines.append(f"time: {self.timing_seconds:.3f}s")
        return "\n".join(lines)


def _human_payload(command: str, payload: dict) -> list[str]:
    lines: list[str] = []
    if command == "validate":
        lines.append(f"valid: {payload['valid']}")
        lines.append("all cones: " + " ".join("{" + ",".join(map(str, c)) + "}"
                                              for c in payload["all_cones"]))
        pcs = payload["primitive_collections"]
        lines.append("primitive collections: " +
                     (" ".join("{" + ",".join(map(str, p)) + "}" for p in pcs) if pcs else "none"))
        sp = payload["semiprojective"]
        if sp["semiprojective"]:
            lines.append("semi-projective: yes")
            for cone, fun in zip(payload["max_cones"], sp["certificate"]):
                lines.append(f"  slope on {{{','.join(map(str, cone))}}}: {fun}")
        else:
            lines.append(f"semi-projective: no ({sp['reason']})")
    elif command == "cohomology":
        lines.append("dims by total degree: " + " ".join(map(str, payload["dims"])))
        if "ring" in payload:
            ring = payload["ring"]
            lines.append("cohomology basis:")
            for cls in ring["basis"]:
                lines.append(f"  t={cls['degree']} #{cls['index']}: {cls['representative']}")
            lines.append("nonzero products:")
            shown = 0
            for c in ring["products"]:
                # _frac gives an int, or the string of a non-integral Fraction
                if any(c["coords"]):
                    lines.append(f"  ({c['left']}) * ({c['right']}) -> {c['coords']}")
                    shown += 1
            if not shown:
                lines.append("  none besides the unit row")
        if "regular_sequence" in payload:
            ls = payload["regular_sequence"]
            lines.append(f"coefficient forms regular: {ls['regular']}; "
                         f"quotient dims {ls['quotient_dims']}")
    elif command == "verify":
        lines.append(f"exactness (m <= {payload['m_max']}): {payload['exactness_ok']}")
        lines.append("dims twisted-complex : " + " ".join(map(str, payload["dims_twisted"])))
        lines.append("dims double-complex  : " + " ".join(map(str, payload["dims_forms_total"])))
        lines.append("dims constant-forms  : " + " ".join(map(str, payload["dims_const_total"])))
        lines.append(f"all pipelines agree: {payload['agree']}")
    elif command == "degenerate":
        lines.append("slope certificate:")
        for cone, fun in zip(payload["max_cones"], payload["certificate"]):
            lines.append(f"  {{{','.join(map(str, cone))}}}: {fun}")
        lines.append(f"reference cone: {{{','.join(map(str, payload['reference_cone']))}}}")
        if payload["relations"]:
            for rel in payload["relations"]:
                lines.append("  " + rel["text"])
        else:
            lines.append("  no relations (all rays generate the reference cone)")
        lines.append(f"presentation check: {'ok' if payload['presentation']['checked'] else 'FAILED'}")
    return lines


def _fan_meta(fan, path: str) -> dict:
    return {"path": path, "rank": fan.rank, "num_rays": fan.num_rays,
            "num_max_cones": len(fan.max_cones)}


def _load(path: str):
    # read from fan when called, so a wrapper the tracer installs there applies
    from .fan import FanError, parse_fan_file

    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FanError(f"cannot read {path}: {exc}") from None
    return parse_fan_file(text)


def __getattr__(name):
    # cli.parse_fan_file, the parser _load calls, stays readable (PEP 562):
    # perfbench's tracer test checks that the tracer wrapped it
    if name != "parse_fan_file":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .fan import parse_fan_file

    return parse_fan_file


def _parse_index_list(raw: str) -> list[int]:
    from .fan import FanError

    try:
        return [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise FanError(f"expected a comma-separated integer list, got {raw!r}") from None


# -- commands -------------------------------------------------------------


def cmd_validate(args) -> tuple[Report, int]:
    from .fan import primitive_collections
    from .semiproj import check_semiprojective

    start = time.monotonic()
    fan, poly = _load(args.fan_file)
    sp = check_semiprojective(fan, poly)
    payload = {
        "valid": True,
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [_cone_list(c) for c in fan.max_cones],
        "all_cones": [_cone_list(c) for c in fan.all_cones],
        "primitive_collections": [list(p) for p in primitive_collections(fan)],
        "semiprojective": {
            "semiprojective": sp.semiprojective,
            "reason": sp.reason,
            "certificate": [list(f) for f in sp.certificate.functionals] if sp.certificate else None,
            "witnesses": [str(w) for w in sp.witnesses],
        },
    }
    report = Report("validate", _fan_meta(fan, args.fan_file), {}, payload,
                    time.monotonic() - start)
    return report, EXIT_OK


def cmd_cohomology(args) -> tuple[Report, int]:
    from .twisted import (build_twisted, default_t_max, element_string, lg_cohomology,
                          lsop_check, ring_structure)

    start = time.monotonic()
    fan, _ = _load(args.fan_file)
    t_max = args.tmax if args.tmax is not None else default_t_max(fan)
    tc = build_twisted(fan)
    ls = lsop_check(tc)  # on a regular sequence the quotient answers, with no twisted slot
    payload: dict = {"t_max": t_max, "dims": list(lg_cohomology(tc, t_max, ls).dims)}
    if args.ring:
        ring = ring_structure(tc, t_max, ls)
        basis = [{"degree": t, "index": i,
                  "representative": element_string(ring.representatives[(t, i)])}
                 for (t, i) in ring.basis]
        products = []
        for (ta, ia, tb, ib), coords in sorted(ring.constants.items()):
            products.append({"left": f"t={ta}#{ia}", "right": f"t={tb}#{ib}",
                             "degree": ta + tb,
                             "coords": [_frac(x) for x in coords]})
        payload["ring"] = {"basis": basis, "products": products}
        payload["regular_sequence"] = {
            "regular": ls.regular,
            "forms": [str(f) for f in tc.linear_forms],
            "quotient_dims": list(ls.dims),
            "expected_dims": list(ls.expected),
            "max_degree": ls.max_degree,
        }
    report = Report("cohomology", _fan_meta(fan, args.fan_file),
                    {"tmax": t_max, "ring": bool(args.ring)}, payload,
                    time.monotonic() - start)
    return report, EXIT_OK


def cmd_verify(args) -> tuple[Report, int]:
    from .cech import CoverSimplex, default_m_max, default_t_max, verify_exactness, verify_quasi_iso
    from .fan import FanError

    start = time.monotonic()
    fan, _ = _load(args.fan_file)
    m_max = args.mmax if args.mmax is not None else default_m_max(fan)
    t_max = args.tmax if args.tmax is not None else default_t_max(fan)
    cover = None
    if args.cover:
        cover = []
        for i in _parse_index_list(args.cover):
            if not 1 <= i <= len(fan.all_cones):
                raise FanError(f"--cover index {i} outside 1..{len(fan.all_cones)}")
            cover.append(fan.all_cones[i - 1])
    cs = CoverSimplex(fan, cover)

    exactness = verify_exactness(cs, m_max)
    quasi = verify_quasi_iso(cs, t_max)
    agree = exactness.exact and quasi.agree
    payload = {
        "m_max": m_max,
        "t_max": t_max,
        "cover": [list(c.ray_indices) for c in cs.cover],
        "exactness_ok": exactness.exact,
        "exactness": [
            {"m": m, "exact": exactness.degree_exact(m),
             "augmentation": exactness.augmentation[m],
             "joints": [{"p": p, **vals} for (mm, p), vals in sorted(exactness.entries.items())
                        if mm == m]}
            for m in range(m_max + 1)
        ],
        "dims_twisted": list(quasi.dims_twisted),
        "dims_forms_total": list(quasi.dims_forms_total),
        "dims_const_total": list(quasi.dims_const_total),
        "chain_map_ok": quasi.chain_map_ok,
        "induced_iso_ok": quasi.induced_iso_ok,
        "agree": agree,
    }
    if not agree:  # name the first failing check: exactness, equal dims, then the inclusion
        bad_m = next((e["m"] for e in payload["exactness"] if not e["exact"]), None)
        dims = list(zip(quasi.dims_twisted, quasi.dims_forms_total, quasi.dims_const_total))
        bad_t = next((t for t, d in enumerate(dims) if len(set(d)) > 1), None)
        if bad_m is not None:
            why = f"the cover complex is not exact in polynomial degree m={bad_m}"
        elif bad_t is not None:
            why = ("dims differ at t={}: twisted complex {}, double complex {}, "
                   "constant forms {}").format(bad_t, *dims[bad_t])
        else:
            check = "is not a chain map" if not quasi.chain_map_ok else "induces no isomorphism"
            why = f"the inclusion of constant forms {check} at t={quasi.failed_at}"
        sys.stderr.write(f"mismatch: {why}\n")
    report = Report("verify", _fan_meta(fan, args.fan_file),
                    {"mmax": m_max, "tmax": t_max}, payload,
                    time.monotonic() - start)
    return report, EXIT_OK if agree else EXIT_MISMATCH


def cmd_degenerate(args) -> tuple[Report, int]:
    from .fan import FanError
    from .semiproj import check_semiprojective, degeneration_exponent
    from .twisted import log_derivations

    start = time.monotonic()
    fan, poly = _load(args.fan_file)
    sp = check_semiprojective(fan, poly)
    if not sp.semiprojective:
        raise FanError(f"fan is not semi-projective: {sp.reason}")
    cert = sp.certificate
    if args.sigma_m:
        indices = _parse_index_list(args.sigma_m)
        if len(set(indices)) != len(indices):  # a fan file's cone may not either
            raise FanError(f"--sigma-m {args.sigma_m} repeats a ray index")
        cone = fan.cone(indices)
        if cone.dim != fan.rank:
            raise FanError(f"--sigma-m cone {cone} is not full-dimensional")
    else:
        cone = fan.max_cones[0]
    relations = []
    for l in range(1, fan.num_rays + 1):
        if l in cone.index_set:
            continue
        rel = degeneration_exponent(fan, cert, cone, l)
        relations.append({
            "ray": l,
            "coefficients": list(rel.coefficients),
            "exponent": rel.exponent,
            "text": rel.as_string(),
        })
    pres = log_derivations(fan, cone)
    payload = {
        "max_cones": [_cone_list(c) for c in fan.max_cones],
        "certificate": [list(f) for f in cert.functionals],
        "reference_cone": _cone_list(cone),
        "relations": relations,
        "presentation": {
            "base": list(pres.base),
            "extra": list(pres.extra),
            "coefficients": [list(c) for c in pres.coefficients],
            "differential_coeffs": [str(f) for f in pres.differential_coeffs],
            "checked": True,
            "checked_degree": pres.checked_degree,
        },
    }
    report = Report("degenerate", _fan_meta(fan, args.fan_file),
                    {"sigma_m": args.sigma_m or ""}, payload,
                    time.monotonic() - start)
    return report, EXIT_OK


def _degree(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    if value > MAX_DEGREE:
        raise ValueError(f"must be at most MAX_DEGREE = {MAX_DEGREE}, got {value}")
    return value


# -- argv ------------------------------------------------------------------
# One table instead of argparse, whose import and set-up cost each job about
# 7 ms.  A command maps to (handler, help, options); an option to (converter,
# default, help), and a converter of None marks a switch.  Option --sigma-m
# sets the attribute sigma_m.

PROG = "toriclg"
DESCRIPTION = "Exact cohomology cross-checks for smooth toric fans"
_JSON = ("--json", None, False, "print the machine payload (no timing) as JSON")
_TMAX = ("--tmax", _degree, None, "largest total degree (default 2*rank + 2)")
COMMANDS = {
    "validate": (cmd_validate, "parse and validate a fan file", (_JSON,)),
    "cohomology": (cmd_cohomology, "twisted-complex cohomology and ring", (
        _TMAX,
        ("--ring", None, False, "add the cohomology ring and the regular-sequence test"),
        _JSON)),
    "verify": (cmd_verify, "cross-check all cohomology pipelines", (
        ("--mmax", _degree, None,
         "largest polynomial degree of the exactness check (default 2*rank + 4)"),
        _TMAX,
        ("--cover", str, "", "comma-separated 1-based indices into the all-cones "
                             "list printed by validate; default: maximal cones"),
        _JSON)),
    "degenerate": (cmd_degenerate, "slope certificate and degeneration relations", (
        ("--sigma-m", str, "", "comma-separated ray indices of the reference cone"),
        _JSON)),
}


def _attr(option: str) -> str:
    return option[2:].replace("-", "_")


def _spelled(option: str, converter) -> str:
    return option if converter is None else f"{option} {_attr(option).upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {PROG} [-h] {{{','.join(COMMANDS)}}} ..."
    flags = " ".join(f"[{_spelled(opt, conv)}]" for opt, conv, _, _ in COMMANDS[command][2])
    return f"usage: {PROG} {command} [-h] {flags} fan_file"


def _fail(command: str | None, message: str):
    prog = PROG if command is None else f"{PROG} {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_VALIDATION)


def _help(command: str | None):
    help_row = ("-h, --help", "show this help message and exit")
    if command is None:
        text = DESCRIPTION
        sections = [("commands", [(name, spec[1]) for name, spec in COMMANDS.items()]),
                    ("options", [help_row])]
    else:
        text = COMMANDS[command][1]
        options = [(_spelled(opt, conv), line) for opt, conv, _, line in COMMANDS[command][2]]
        sections = [("positional arguments", [("fan_file", "fan file (UTF-8 JSON)")]),
                    ("options", [help_row, *options])]
    width = max(len(name) for _, rows in sections for name, _ in rows)
    lines = [_usage(command), "", text]
    for title, rows in sections:
        lines += ["", f"{title}:", *(f"  {name:<{width}}  {line}" for name, line in rows)]
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _is_option(token: str) -> bool:
    # as in argparse, a negative number is a value, not an option
    return token.startswith("-") and len(token) > 1 and not token[1:].replace(".", "", 1).isdigit()


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Parse ``<command> [options] fan_file``.

    Options take ``--opt value`` or ``--opt=value``, in any order around
    the fan file; when one repeats the last value wins, and ``--`` ends the
    options.  -h or --help prints help and raises SystemExit(0); a usage
    error prints the usage line and the error to stderr and raises
    SystemExit(2).
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, options = COMMANDS[command]
    converters = {opt: conv for opt, conv, _, _ in options}
    args = SimpleNamespace(func=handler, **{_attr(opt): default for opt, _, default, _ in options})
    positional, unknown = [], []
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        if token == "--":
            positional.extend(tokens)
            continue
        if not _is_option(token):
            positional.append(token)
            continue
        opt, eq, value = token.partition("=")
        if opt not in converters:
            unknown.append(token)
        elif converters[opt] is None:
            if eq:
                _fail(command, f"argument {opt}: ignored explicit argument {value!r}")
            setattr(args, _attr(opt), True)
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    _fail(command, f"argument {opt}: expected one argument")
            try:
                setattr(args, _attr(opt), converters[opt](value))
            except ValueError as exc:
                _fail(command, f"argument {opt}: {exc}")
    if not positional:
        _fail(command, "the following arguments are required: fan_file")
    args.fan_file = positional[0]
    unknown += positional[1:]
    if unknown:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv=None) -> int:
    """Run one command; return its exit code.

    Called with no ``argv``, as ``python -m toriclg.cli`` and the installed
    ``toriclg`` script call it, ``main`` is the process entry, and its first
    step moves every object start-up made (``site`` and its ``.pth`` files,
    the modules' function/globals cycles: about 11k in all) into the
    permanent generation with ``gc.freeze()``.  The collection that runs at
    interpreter shutdown, and any gen-2 collection during the job, then skip
    them: a bare ``python -c pass`` takes 44.9 ms, 37.7 ms with
    ``gc.freeze()`` and 36.9 ms with ``os._exit`` (medians of 30 runs,
    2-core VM, Python 3.11.7), against 80-120 ms for a benchmark job.  A
    full collection after a job finds at most 33 objects, on P^2 as on
    ``verify --tmax 100`` on C^3, so the freeze holds back nothing that grows.
    ``main(argv)`` is an in-process call (tests, tracers, library callers)
    and leaves the host's heap as it is, since a frozen object is never
    collected while the host lives on.  Nothing else changes: atexit
    handlers and the final flush of the std streams still run.
    """
    if argv is None:
        gc.freeze()
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    from .fan import FanError

    try:
        report, code = args.func(args)
    except FanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        print(report.to_json() if args.json else report.human())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; the interpreter's final flush then writes the
        # rest of the buffer to devnull instead of failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
