"""Outside-in per-layer tracer for the toriclg CLI.

Run as a program, it is one traced CLI job:

    python3 perfbench/tracer.py SPANS_FILE JOB -- <toriclg.cli arguments>

It times ``import toriclg.cli``, wraps the public functions listed in
``WRAPS`` in every ``toriclg`` module that holds them (``from .linalg
import cohomology_at`` copies the binding, so each copy is replaced),
calls ``toriclg.cli.main`` in this process, and writes the spans it kept
in memory to SPANS_FILE when the job ends.  No engine source changes.

SPANS_FILE is JSON lines.  The first line is a header
``{"job", "argv", "exit", "import_s", "calls"}`` (``calls`` counts the
functions in ``COUNT_ONLY``); every other line is one span
``{"job", "id", "parent", "name", "start", "end", "tracer_s", "counts"}``
with times in seconds from when the tracer started, right after the
import.  ``parent`` is the span that was open when this one started
(null for the root ``cli.main``).
``tracer_s`` is time the tracer itself spent directly inside the span:
wrapper bookkeeping and the counts of its children, such as the content
digest behind ``linalg.elim_repeat_ratio``.  It is billed to no layer.

``summarize`` turns the spans of one job into per-layer metrics:

* ``<layer>_s`` is self time by default: the span minus its child spans
  minus its ``tracer_s``.  The stage metrics in ``INCLUSIVE`` are total
  time instead (outermost spans of that name, tracer time removed),
  because they enclose other layers and their point is the share of the
  job they take.
* ``*_calls`` count spans; the other counts are summed (``*_max_*`` take
  the maximum) over the spans of the layer.

How to read a trace: each span's time splits into its self time, its
child spans and its ``tracer_s``.  So in one job the self times of all
spans plus all ``tracer_s`` add up to the root span ``cli.main``: the job
after interpreter start and ``import toriclg.cli`` (``cli.import_s``).
The stage metrics in ``INCLUSIVE`` overlap the self times and are not
part of that sum.  To see where a layer's time goes, group its spans by
the name of their parent, or read the spans under one parent in start
order.
"""

import sys
import time

# (module, attribute, span name).  A dotted attribute is a method.
WRAPS = (
    ("toriclg.cli", "Report.to_json", "cli.render"),
    ("toriclg.fan", "parse_fan_file", "fan.parse"),
    ("toriclg.fan", "cone_intersection_extreme_rays", "fan.condition"),
    ("toriclg.fan", "primitive_collections", "fan.primitive_collections"),
    ("toriclg.srring", "sr_basis", "srring.basis"),
    ("toriclg.srring", "cone_monomial_basis", "srring.basis"),
    ("toriclg.twisted", "koszul_block", "twisted.assembly"),
    ("toriclg.twisted", "TwistedComplex.total_differential", "twisted.assembly"),
    ("toriclg.twisted", "ring_structure", "twisted.ring"),
    ("toriclg.twisted", "lsop_check", "twisted.lsop"),
    ("toriclg.twisted", "log_derivations", "twisted.derivations"),
    ("toriclg.cech", "CoverSimplex.delta_matrix", "cech.delta"),
    ("toriclg.cech", "CoverSimplex.const_total_matrix", "cech.total_matrix"),
    ("toriclg.cech", "CoverSimplex.forms_total_matrix", "cech.total_matrix"),
    ("toriclg.cech", "verify_exactness", "cech.exactness"),
    ("toriclg.cech", "verify_quasi_iso", "cech.quasi_iso"),
    ("toriclg.cech", "forms_total_cohomology", "cech.forms_cohomology"),
    ("toriclg.cech", "constant_total_cohomology", "cech.const_cohomology"),
    ("toriclg.linalg", "rank", "linalg.elim"),
    ("toriclg.linalg", "kernel_basis", "linalg.elim"),
    ("toriclg.linalg", "image_pivot_columns", "linalg.elim"),
    ("toriclg.linalg", "lift", "linalg.elim"),
    ("toriclg.linalg", "LinearSolver.__init__", "linalg.elim"),
    ("toriclg.linalg", "LinearSolver.solve", "linalg.solve"),
    ("toriclg.linalg", "cohomology_at", "linalg.cohomology_at"),
    ("toriclg.linalg", "RationalMatrix.__matmul__", "linalg.matmul"),
    ("toriclg.linalg", "block_matrix", "linalg.assembly"),
    ("toriclg.linalg", "matrix_from_action", "linalg.assembly"),
    ("toriclg.semiproj", "check_semiprojective", "semiproj.check"),
    ("toriclg.semiproj", "solve_inequalities", "semiproj.fm"),
    ("toriclg.semiproj", "degeneration_exponent", "semiproj.degeneration"),
)

# LinearSolver.solve runs once per reduced vector; it is counted, not timed,
# so its time stays in the caller (ring products, induced-iso checks).
COUNT_ONLY = frozenset({"linalg.solve"})

INCLUSIVE = frozenset({
    "cech.exactness", "cech.quasi_iso", "cech.forms_cohomology",
    "cech.const_cohomology", "twisted.lsop", "twisted.derivations",
})

# name, unit, how it is computed, and which end-to-end metric it should move
LAYER_METRICS = (
    ("cli.import_s", "s", "import toriclg.cli in each fresh job process, summed",
     "cal_wall_s on every workload, most on short jobs"),
    ("cli.render_s", "s", "self time of Report.to_json", "job.ring_s on lg-ring"),
    ("cli.other_s", "s", "self time of cli.main outside every wrapped layer",
     "cal_wall_s on every workload"),
    ("fan.parse_s", "s", "self time of parse_fan_file",
     "job.verify_s on cech-verify, job.validate_s on fan-certify"),
    ("fan.parse_calls", "count", "calls to parse_fan_file (2*rank+6 per verify job)",
     "job.verify_s on cech-verify"),
    ("fan.condition_s", "s", "self time of cone_intersection_extreme_rays",
     "job.validate_s and job.degenerate_s on fan-certify; job.cohomology_s on lg-ring"),
    ("fan.condition_pairs", "count", "calls to cone_intersection_extreme_rays",
     "job.validate_s and job.degenerate_s on fan-certify"),
    ("fan.primitive_collections_s", "s", "self time of primitive_collections",
     "job.validate_s on fan-certify"),
    ("srring.basis_s", "s", "self time of sr_basis and cone_monomial_basis",
     "job.cohomology_s on lg-ring, job.verify_s on cech-verify"),
    ("srring.basis_monomials", "count", "monomials returned by those calls",
     "job.cohomology_s on lg-ring, job.verify_s on cech-verify"),
    ("twisted.assembly_s", "s", "self time of koszul_block and total_differential",
     "job.cohomology_s on lg-ring"),
    ("twisted.assembly_nnz", "count", "nonzeros of the matrices those calls return",
     "job.cohomology_s on lg-ring"),
    ("twisted.ring_s", "s", "self time of ring_structure", "job.ring_s on lg-ring"),
    ("twisted.products", "count", "structure constants ring_structure returns",
     "job.ring_s on lg-ring"),
    ("twisted.lsop_s", "s", "total time of lsop_check", "job.ring_s on lg-ring"),
    ("twisted.derivations_s", "s", "total time of log_derivations",
     "job.degenerate_s on fan-certify"),
    ("cech.delta_s", "s", "self time of CoverSimplex.delta_matrix",
     "job.verify_s on cech-verify only"),
    ("cech.delta_calls", "count", "calls to CoverSimplex.delta_matrix",
     "job.verify_s on cech-verify only"),
    ("cech.delta_hit_ratio", "ratio",
     "delta_matrix calls repeating a (cover, tag, p, k, m) key, over calls",
     "job.verify_s on cech-verify only"),
    ("cech.total_matrix_s", "s", "self time of const_total_matrix and forms_total_matrix",
     "job.verify_s on cech-verify only"),
    ("cech.total_nnz", "count", "nonzeros of the total matrices returned",
     "job.verify_s on cech-verify only"),
    ("cech.exactness_s", "s", "total time of verify_exactness",
     "job.verify_s on cech-verify only"),
    ("cech.quasi_iso_s", "s", "total time of verify_quasi_iso",
     "job.verify_s on cech-verify only"),
    ("cech.forms_cohomology_s", "s", "total time of forms_total_cohomology",
     "job.verify_s on cech-verify only (rank-3 fans)"),
    ("cech.const_cohomology_s", "s", "total time of constant_total_cohomology",
     "job.verify_s on cech-verify only (the 7-ray surface)"),
    ("linalg.elim_s", "s",
     "self time of rank, kernel_basis, image_pivot_columns, lift, LinearSolver()",
     "job.ring_s, job.cohomology_s on lg-ring; job.verify_s; job.validate_s"),
    ("linalg.elim_calls", "count", "eliminations", "as linalg.elim_s"),
    ("linalg.elim_nnz", "count", "nonzeros of the eliminated matrices", "as linalg.elim_s"),
    ("linalg.elim_max_rows", "count", "rows of the largest eliminated matrix",
     "as linalg.elim_s"),
    ("linalg.elim_max_cols", "count", "columns of the largest eliminated matrix",
     "as linalg.elim_s"),
    ("linalg.elim_repeat_ratio", "ratio",
     "eliminations whose matrix, by content, was already eliminated in the job",
     "as linalg.elim_s (ROADMAP item 2)"),
    ("linalg.cohomology_at_s", "s", "self time of cohomology_at",
     "job.ring_s on lg-ring, job.verify_s on cech-verify"),
    ("linalg.cohomology_at_calls", "count", "calls to cohomology_at",
     "job.ring_s on lg-ring, job.verify_s on cech-verify"),
    ("linalg.solve_calls", "count", "calls to LinearSolver.solve",
     "job.ring_s on lg-ring, job.verify_s on cech-verify"),
    ("linalg.matmul_s", "s", "self time of RationalMatrix @ (d.d = 0, chain maps)",
     "job.ring_s on lg-ring, job.verify_s on cech-verify"),
    ("linalg.assembly_s", "s", "self time of block_matrix and matrix_from_action",
     "job.ring_s on lg-ring, job.verify_s on cech-verify"),
    ("semiproj.check_s", "s", "self time of check_semiprojective",
     "job.validate_s and job.degenerate_s on fan-certify"),
    ("semiproj.fm_s", "s", "self time of solve_inequalities (Fourier-Motzkin)",
     "job.validate_s and job.degenerate_s on fan-certify"),
    ("semiproj.fm_vars", "count", "variables given to solve_inequalities",
     "job.validate_s and job.degenerate_s on fan-certify"),
    ("semiproj.fm_rows", "count", "inequalities given to solve_inequalities",
     "job.validate_s and job.degenerate_s on fan-certify"),
    ("semiproj.degeneration_s", "s", "self time of degeneration_exponent",
     "job.degenerate_s on fan-certify"),
)


# -- the traced job ------------------------------------------------------------------


def _matrix_digest(m) -> int:
    return hash((m.rows, m.cols, frozenset(m.entries.items())))


def _elim_counts(tracer, name, args, result):
    matrix = args[1] if name == "LinearSolver.__init__" else args[0]
    digest = _matrix_digest(matrix)
    repeat = digest in tracer.digests
    tracer.digests.add(digest)
    return {"rows": matrix.rows, "cols": matrix.cols, "nnz": len(matrix.entries),
            "repeat": int(repeat)}


def _delta_counts(tracer, name, args, result):
    key = (id(args[0]),) + tuple(args[1:])
    hit = key in tracer.delta_keys
    tracer.delta_keys.add(key)
    return {"hit": int(hit)}


def _nnz_counts(tracer, name, args, result):
    return {"nnz": len(result.entries)}


def _basis_counts(tracer, name, args, result):
    return {"monomials": len(result)}


def _ring_counts(tracer, name, args, result):
    return {"products": len(result.constants)}


def _fm_counts(tracer, name, args, result):
    return {"vars": args[1], "rows": len(args[0])}


COUNTERS = {
    "linalg.elim": _elim_counts,
    "cech.delta": _delta_counts,
    "cech.total_matrix": _nnz_counts,
    "twisted.assembly": _nnz_counts,
    "srring.basis": _basis_counts,
    "twisted.ring": _ring_counts,
    "semiproj.fm": _fm_counts,
}


class Tracer:
    """Spans of one job, kept in memory until ``write``."""

    def __init__(self, job: str):
        self.job = job
        self.t0 = time.perf_counter()
        # span: [id, parent, name, start, end, tracer_s, counts]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.digests: set[int] = set()
        self.delta_keys: set[tuple] = set()
        self.calls: dict[str, int] = {}  # COUNT_ONLY names

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), parent, name, time.perf_counter() - self.t0, None, 0.0, None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter() - self.t0
        self.stack.pop()

    def wrap(self, fn, attr: str, name: str):
        import functools

        counter = COUNTERS.get(name)
        tracer = self
        clock = time.perf_counter
        t0 = self.t0

        if name in COUNT_ONLY:
            calls = self.calls
            key = f"{name}_calls"
            calls[key] = 0

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = clock()
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = [len(tracer.spans), parent[0] if parent else None, name, 0.0, None, 0.0, None]
            tracer.spans.append(span)
            stack.append(span)
            start = clock()
            span[3] = start - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[4] = end - t0
                stack.pop()
            if counter is not None:
                span[6] = counter(tracer, attr, args, result)
            if parent is not None:
                parent[5] += (start - entry) + (clock() - end)
            return result
        return traced

    def install(self):
        """Wrap every function in WRAPS; return a function that undoes it."""
        import importlib

        undo = []
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(original, attr, name))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, attr, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "toriclg" and not mod_name.startswith("toriclg."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def restore():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
        return restore

    def write(self, path: str, header: dict) -> None:
        import json

        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end, tracer_s, counts in self.spans:
                out.write(json.dumps({"job": self.job, "id": sid, "parent": parent,
                                      "name": name, "start": start, "end": end,
                                      "tracer_s": tracer_s, "counts": counts}) + "\n")


def traced_job(spans_path: str, job: str, cli_args: list[str]) -> int:
    t0 = time.perf_counter()
    import toriclg.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer(job)
    tracer.install()
    root = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
        sys.stdout.flush()
    tracer.write(spans_path, {"job": job, "argv": cli_args, "exit": code,
                              "import_s": import_s, "calls": tracer.calls})
    return code


# -- reading spans back ----------------------------------------------------------------


def read_spans(path) -> tuple[dict, list[dict]]:
    import json

    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
        spans = [json.loads(line) for line in f]
    return header, spans


def summarize(header: dict, spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one job: self or total seconds, and counts."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    subtree_tracer: dict[int, float] = {}
    # children always come after their parent, so walk backwards
    for s in reversed(spans):
        sid = s["id"]
        subtree_tracer[sid] = subtree_tracer.get(sid, 0.0) + s["tracer_s"]
        if s["parent"] is not None:
            pid = s["parent"]
            child_time[pid] = child_time.get(pid, 0.0) + s["end"] - s["start"]
            subtree_tracer[pid] = subtree_tracer.get(pid, 0.0) + subtree_tracer[sid]

    out: dict[str, float] = {"cli.import_s": header["import_s"]}
    counts: dict[str, float] = dict(header["calls"])

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    def maximum(key, value):
        counts[key] = max(counts.get(key, 0), value)

    tracer_total = 0.0
    for s in spans:
        name = s["name"]
        add(f"{name}_calls", 1)
        tracer_total += s["tracer_s"]
        duration = s["end"] - s["start"]
        if name in INCLUSIVE:
            ancestor = s["parent"]
            while ancestor is not None and by_id[ancestor]["name"] != name:
                ancestor = by_id[ancestor]["parent"]
            if ancestor is None:
                add(f"{name}_s", duration - subtree_tracer[s["id"]])
        else:
            add(f"{name}_s", duration - child_time.get(s["id"], 0.0) - s["tracer_s"])
        c = s["counts"] or {}
        if name == "linalg.elim":
            add("linalg.elim_nnz", c["nnz"])
            add("linalg.elim_repeats", c["repeat"])
            maximum("linalg.elim_max_rows", c["rows"])
            maximum("linalg.elim_max_cols", c["cols"])
        elif name == "cech.delta":
            add("cech.delta_hits", c["hit"])
        elif name == "cech.total_matrix":
            add("cech.total_nnz", c["nnz"])
        elif name == "twisted.assembly":
            add("twisted.assembly_nnz", c["nnz"])
        elif name == "srring.basis":
            add("srring.basis_monomials", c["monomials"])
        elif name == "twisted.ring":
            add("twisted.products", c["products"])
        elif name == "semiproj.fm":
            add("semiproj.fm_vars", c["vars"])
            add("semiproj.fm_rows", c["rows"])
    counts["cli.other_s"] = counts.pop("cli.main_s", 0.0)
    counts["fan.condition_pairs"] = counts.pop("fan.condition_calls", 0)
    counts["trace.tracer_s"] = tracer_total
    out.update(counts)
    return out


def layer_metrics(job_summaries: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass from the summaries of its jobs."""
    total: dict[str, float] = {}
    for summary in job_summaries:
        for key, value in summary.items():
            if "_max_" in key:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value

    def ratio(num, den):
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    total["cech.delta_hit_ratio"] = ratio("cech.delta_hits", "cech.delta_calls")
    total["linalg.elim_repeat_ratio"] = ratio("linalg.elim_repeats", "linalg.elim_calls")
    names = [m[0] for m in LAYER_METRICS] + ["trace.tracer_s"]
    return {name: float(total.get(name, 0)) for name in names}


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracer.py SPANS_FILE JOB -- <toriclg.cli arguments>")
    sys.exit(traced_job(sys.argv[1], sys.argv[2], sys.argv[4:]))
