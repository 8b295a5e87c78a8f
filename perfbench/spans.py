"""Spans and counters recorded from outside entropik.

A :class:`Tracer` replaces public entropik functions with wrappers in every
``entropik`` module namespace that holds them, which is where callers look
them up at call time.  Nothing under ``src/`` changes; :meth:`Tracer.close`
puts the original functions back.

* Span functions record (name, parent, start, end, model group) and hand
  their return value to :func:`float_coefficients` and to the size probes.
* Counter functions, the polynomial kernel entry points, only count calls
  (and, for ``poly_divexact``, the calls that raised), because a span per
  kernel call would cost more than the kernel itself.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter

# Functions recorded as spans, by the module that defines them.  The metric
# prefix of a span is the module's short name.
SPAN_FUNCTIONS = {
    "entropik.parser": ("parse_model",),
    "entropik.solve": ("solve_leading", "close_consequences"),
    "entropik.split": ("entropy_on_solutions", "split", "numeric_oracle"),
    "entropik.liu": ("liu_extended", "liu_split", "eliminate_multipliers", "compare"),
    "entropik.cases": ("apply_assumptions", "build_tree", "pivot_candidates", "force_residual"),
    "entropik.bindings": ("parse_bindings", "check_candidate", "sampled_production"),
    "entropik.report": (
        "run_solution_set", "run_liu", "build_report", "comparison_to_dict", "tree_to_dict",
    ),
}

# Kernel entry points of entropik.expr that are only counted.
COUNTED_FUNCTIONS = ("p_mul", "p_add", "poly_divexact", "eval_numeric", "substitute")

# The kernel's own modules call each other directly; counting there would
# count one public call several times.
_KERNEL_MODULES = {"entropik.backend", "entropik._poly_py", "entropik._poly_cy"}


def float_coefficients(obj) -> int:
    """Number of ``float`` coefficients in every Expr reachable from ``obj``
    through dataclass fields and builtin containers."""
    from entropik.expr import Expr

    found = 0
    stack = [obj]
    seen: set[int] = set()
    while stack:
        x = stack.pop()
        if isinstance(x, (str, int, float)) or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Expr):
            for p in (x.num, x.den):
                found += sum(1 for c in p.values() if isinstance(c, float))
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
    return found


def _entropik_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None
        and (name == "entropik" or name.startswith("entropik."))
        and name not in _KERNEL_MODULES
    ]


class Tracer:
    """Install with :meth:`open`, remove with :meth:`close`.

    ``kernel=False`` skips the counters, for a pass that only wants spans
    and the float check at close to no cost.
    """

    def __init__(self, kernel: bool = True):
        self.kernel = kernel
        self.spans: list[list] = []      # [name, parent, start, end, group]
        self.counts: dict[str, Counter] = {}
        self.sizes: Counter = Counter()  # sizes read off returned values
        self.float_coeffs = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.set_group("small")

    # -- install / remove -------------------------------------------------

    def open(self) -> None:
        for mod, names in SPAN_FUNCTIONS.items():
            home = sys.modules[mod]
            for name in names:
                label = f"{mod.rsplit('.', 1)[1]}.{name}"
                orig = getattr(home, name)
                self._replace(orig, self._span_wrapper(label, orig))
        from entropik.report import AnalysisReport

        orig = AnalysisReport.to_json
        self._patched.append((AnalysisReport, "to_json", orig))
        AnalysisReport.to_json = self._span_wrapper("report.to_json", orig)
        if self.kernel:
            for name in COUNTED_FUNCTIONS:
                orig = getattr(sys.modules["entropik.expr"], name)
                if name == "poly_divexact":
                    wrapper = self._divexact_wrapper(orig)
                else:
                    wrapper = self._count_wrapper(name, orig)
                self._replace(orig, wrapper)

    def close(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _replace(self, orig, wrapper) -> None:
        for m in _entropik_modules():
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self._patched.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    # -- grouping ---------------------------------------------------------

    def set_group(self, group: str) -> None:
        """Attribute the following work to ``group`` (a model group)."""
        self.group = group
        self._counter = self.counts.setdefault(group, Counter())

    # -- wrappers ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None, self.group])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, label, f):
        def wrapper(*args, **kwargs):
            idx = self.begin(label)
            try:
                result = f(*args, **kwargs)
            finally:
                self.end(idx)
            # A span of its own, so that the caller's self time leaves it out.
            idx = self.begin("trace.inspect")
            try:
                self.inspect(label, result)
            finally:
                self.end(idx)
            return result

        wrapper.__wrapped__ = f
        return wrapper

    def _count_wrapper(self, name, f):
        def wrapper(*args, **kwargs):
            self._counter[name] += 1
            return f(*args, **kwargs)

        wrapper.__wrapped__ = f
        return wrapper

    def _divexact_wrapper(self, f):
        def wrapper(*args, **kwargs):
            counter = self._counter
            counter["poly_divexact"] += 1
            try:
                return f(*args, **kwargs)
            except ArithmeticError:
                counter["poly_divexact_failures"] += 1
                raise

        wrapper.__wrapped__ = f
        return wrapper

    # -- what a returned value tells --------------------------------------

    def inspect(self, label: str, result) -> None:
        self.float_coeffs += float_coefficients(result)
        if label == "solve.close_consequences":
            terms = (len(v.num) for _, v in result.substitution.items())
            self._max("solve.rhs_terms_max", max(terms, default=0))
        elif label == "split.entropy_on_solutions":
            self._max("split.entropy_terms", len(result.num))
        elif label == "split.split":
            self._max("split.constraints", len(result.constraints))
            self._max("split.free_elements", len(result.free_elements))
        elif label == "split.numeric_oracle":
            self.sizes[f"oracle_trials.{self.group}"] += result.trials
            self.sizes["split.numeric_oracle_variety_passes"] += result.variety_passes
            self.sizes["split.numeric_oracle_variety_skips"] += result.variety_skips
        elif label == "cases.build_tree":
            self.sizes["cases.nodes"] += sum(1 for _ in result.root.walk())
            self.sizes["cases.leaves"] += len(result.leaves())
        elif label == "cases.pivot_candidates":
            self.sizes["cases.pivot_candidates"] += len(result)

    def _max(self, key: str, value: int) -> None:
        self.sizes[key] = max(self.sizes[key], value)

    # -- summaries --------------------------------------------------------

    def inclusive(self, group: str | None = None) -> Counter:
        """Total duration per span name (nested calls of one name counted
        once, at the outermost)."""
        out: Counter = Counter()
        for i, (name, parent, t0, t1, g) in enumerate(self.spans):
            if group is not None and g != group:
                continue
            if self._has_ancestor(i, name):
                continue
            out[name] += t1 - t0
        return out

    def self_times(self) -> Counter:
        """Span duration minus the duration of its direct children."""
        out: Counter = Counter()
        for name, parent, t0, t1, _ in self.spans:
            out[name] += t1 - t0
            if parent is not None:
                out[self.spans[parent][0]] -= t1 - t0
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][1]
        while p is not None:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][1]
        return False

    def count(self, name: str, group: str | None = None) -> int:
        if group is not None:
            return self.counts.get(group, Counter())[name]
        return sum(c[name] for c in self.counts.values())
