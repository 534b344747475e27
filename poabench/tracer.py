"""Span tracing at poacert's layer boundaries, installed from outside.

A Tracer replaces chosen public functions with timing wrappers: in the
module that defines each one and in every loaded ``poacert`` module that
imported it by name, so a call records one span however it is reached.
Spans carry name, start, end, parent and the job they belong to; counters
are kept at the same boundaries.  Everything stays in memory until
``write``.  ``uninstall`` puts the original functions back, so the same
process can alternate untraced and traced runs of one job.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# (module, function, span name).  The span name's first component is the
# layer: the module under src/poacert/ that owns the work.
WRAPPED = (
    ("linprog", "solve", "linprog.solve"),
    ("linprog", "feasibility_report", "linprog.feasibility"),
    ("representative", "build_representative", "representative.build"),
    ("formulations", "build_pp_pne", "formulations.build_pp"),
    ("formulations", "build_pp_cce", "formulations.build_pp"),
    ("formulations", "build_dp_pne", "formulations.build_dp"),
    ("formulations", "build_dp_cce", "formulations.build_dp"),
    ("formulations", "solve_worst_case", "formulations.solve_worst_case"),
    ("formulations", "extract_worst_game", "formulations.extract"),
    ("formulations", "verify_extension", "formulations.verify_extension"),
    ("oracle", "social_optimum", "oracle.social_optimum"),
    ("oracle", "exact_ppoa", "oracle.exact_ppoa"),
    ("oracle", "worst_cce", "oracle.worst_cce"),
    ("smoothness", "is_sum_bounded", "smoothness.is_sum_bounded"),
    ("smoothness", "robust_poa", "smoothness.robust_poa"),
    ("smoothness", "check_smooth", "smoothness.check_smooth"),
    ("smoothness", "validate_smoothness_claims", "smoothness.validate"),
)


def _program_kind(name: str) -> str:
    """Program family from LinearProgram.name: dp_*, pp_*, cce_*, smooth_probe."""
    if name.startswith("smooth_probe"):
        return "probe"
    return name.split("_", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.counts = defaultdict(float)
        self._stack = []
        self._job = None
        self._patched = []  # (module, attribute, original)
        self._float_failure = None  # program whose float solve raised

    # -------------------------------------------------------- spans

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        outer_job = self._job
        if job is not None:
            self._job = job
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._job]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._job = outer_job

    # ---------------------------------------------------- wrapping

    def install(self, package: str = "poacert") -> None:
        """Wrap every WRAPPED function wherever a poacert module holds it."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod_name, fn_name, span_name in WRAPPED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def _wrap(self, fn, span_name):
        count = getattr(self, "_count_" + span_name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            with self.span(span_name) as rec:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if count is not None:
                        count(rec, args, kwargs, None, exc)
                    raise
            if count is not None:
                count(rec, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ---------------------------------------------- per-call counters

    def _count_linprog_solve(self, rec, args, kwargs, result, exc):
        program = args[0] if args else kwargs["lp"]
        exact = kwargs.get("exact", args[1] if len(args) > 1 else False)
        c = self.counts
        kind = _program_kind(program.name)
        # rows x variables of the program as passed in, before standard form
        c["linprog.solve.cells"] += len(program.rows) * len(program.variables)
        rec[0] = f"linprog.solve.{kind}" + (".exact" if exact else "")
        if exact and self._float_failure is program:
            c["linprog.solve.fallbacks"] += 1
        self._float_failure = program if (exc is not None and not exact) else None
        if result is not None:
            c["linprog.solve.iterations"] += result.iterations

    def _count_representative_build(self, rec, args, kwargs, result, exc):
        if result is not None:
            self.counts["representative.resources"] += len(result.model.resources)

    def _count_formulations_verify_extension(self, rec, args, kwargs, result, exc):
        if result is not None:
            self.counts["formulations.verify_extension.rows_checked"] += result.rows_checked

    def _count_oracle_exact_ppoa(self, rec, args, kwargs, result, exc):
        self.counts["oracle.profiles"] += args[0].model.profile_count()

    _count_oracle_worst_cce = _count_oracle_exact_ppoa

    def _count_smoothness_robust_poa(self, rec, args, kwargs, result, exc):
        if result is not None:
            self.counts["smoothness.robust_poa.probes"] += result.probes

    # ----------------------------------------------------- summary

    def summary(self) -> dict:
        """Per span group and per layer: busy (union of intervals), self
        time (duration minus direct children) and outermost call counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start

        def groups(name):
            # "linprog.solve.dp.exact" belongs to linprog.solve,
            # linprog.solve.dp and linprog.solve.exact, and to its layer
            parts = name.split(".")
            out = {parts[0], ".".join(parts[:2])}
            for extra in parts[2:]:
                out.add(f"{parts[0]}.{parts[1]}.{extra}")
            return out

        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(spans):
            mine = groups(name)
            outer = set(mine)
            p = parent
            while p is not None and outer:
                outer -= groups(spans[p][0])
                p = spans[p][3]
            for g in mine:
                self_s[g] += end - start - child_time[i]
            for g in outer:  # not nested inside a span of the same group
                busy[g] += end - start
                calls[g] += 1
        out = {}
        for g in busy:
            out[f"{g}.busy_s"] = busy[g]
            out[f"{g}.self_s"] = self_s[g]
            out[f"{g}.calls"] = calls[g]
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
