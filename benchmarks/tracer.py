"""Outside-in tracing of the statecount layers.

The tracer never edits the package.  It replaces module attributes with
thin wrappers, in every loaded ``statecount`` module that binds the same
function object (``verify``, ``xiangqi`` and ``janggi`` each import
``binom`` and ``pair_fill_count`` by name), and restores them on
``uninstall``.

Span functions record (name, start, end, parent) in memory; count
functions only bump a counter, because spans on the hot combinatorial
primitives would swamp the trace.  Self time of a span is its duration
minus the durations of its direct child spans.

Tracing overhead is estimated, not taken as traced minus untraced wall time:
a verify call drifts by about a second between two runs on a shared host,
far more than tracing adds to it.  ``wrapper_costs_s`` times bare and
wrapped calls of a no-op, alternating, in the traced process itself;
``overhead_s`` multiplies those costs by the calls the tracer saw.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

SPAN_FUNCTIONS = {
    "geometry": ("validate_geometry",),
    "fixtures": ("fixtures_for_scope",),
    "xiangqi": ("camp_classes", "camp_by_piece_count", "soldier_own_side",
                "side_exact", "side_reserve", "xq_positions", "xq_grand_total"),
    "janggi": ("jg_palace_arrangements", "jg_home_count", "jg_positions",
               "jg_grand_total"),
    "oracle": ("enum_camp_xq", "enum_soldiers_xq", "enum_side_exact_xq",
               "enum_side_xq", "enum_home_jg", "enum_pair_fill",
               "enum_positions_small"),
    "verify": ("run_verify", "compute_quantity", "oracle_quantity", "format_report"),
    "cli": ("main",),
}
COUNT_FUNCTIONS = {"combinatorics": ("binom", "pair_fill_count")}

# the closed-form memo tables a cold CLI invocation starts without
CLOSED_FORM_MODULES = ("combinatorics", "xiangqi", "janggi")
# no-op calls per timed block, and bare/wrapped block pairs, per wrapper kind
PROBE_CALLS = 20000
PROBE_PAIRS = 5


def lru_functions(module_names) -> list:
    """The original ``lru_cache`` functions of the given statecount modules."""
    out = []
    for name in module_names:
        module = sys.modules[f"statecount.{name}"]
        for value in vars(module).values():
            original = getattr(value, "__wrapped_original__", value)
            if hasattr(original, "cache_clear") and original.__module__ == module.__name__:
                out.append(original)
    return out


def clear_closed_form_caches() -> None:
    for fn in lru_functions(CLOSED_FORM_MODULES):
        fn.cache_clear()


def lru_hits_misses(module_name: str) -> tuple[int, int]:
    hits = misses = 0
    for fn in lru_functions((module_name,)):
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.seen_oracle_args: set = set()
        self.reset()

    def reset(self) -> None:
        """Forget spans and counts; remember which oracle calls already ran."""
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.repeat_s = 0.0
        self.sequences = 0
        self.verify_results: list = []

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        import statecount.cli  # noqa: F401  (loads every statecount module)

        for module_name, names in SPAN_FUNCTIONS.items():
            for name in names:
                self._patch(module_name, name, self._span_wrapper)
        for module_name, names in COUNT_FUNCTIONS.items():
            for name in names:
                self._patch(module_name, name, self._count_wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module_name: str, name: str, make) -> None:
        original = getattr(sys.modules[f"statecount.{module_name}"], name)
        wrapper = make(f"{module_name}.{name}", original)
        wrapper.__wrapped_original__ = original
        for attr in ("cache_clear", "cache_info"):
            if hasattr(original, attr):
                setattr(wrapper, attr, getattr(original, attr))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "statecount" and not mod_name.startswith("statecount."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        is_oracle = name.startswith("oracle.")

        def spanned(*args, **kwargs):
            tracer.calls[name] += 1
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if is_oracle:
                key = (name, args, tuple(sorted(kwargs.items())))
                if key in tracer.seen_oracle_args:
                    tracer.repeat_s += span[2] - span[1]
                tracer.seen_oracle_args.add(key)
                if name == "oracle.enum_pair_fill":
                    m, n = args
                    tracer.sequences += m ** n if n >= 0 and m >= 0 else 0
            elif name == "verify.run_verify":
                tracer.verify_results.append(result)
            return result

        return spanned

    # --- summaries ------------------------------------------------------

    def inclusive_s(self) -> dict[str, float]:
        """Seconds per span name, counting a re-entered name once."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if not self._inside_same_name(name, parent):
                out[name] += end - start
        return out

    def self_s(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child_time[index]
        return out

    def _inside_same_name(self, name: str, parent) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def wrapper_costs_s() -> tuple[float, float]:
    """Extra seconds per call of a span wrapper and of a count wrapper.

    Blocks of bare and wrapped no-op calls alternate and the median of the
    differences is kept, so that drift of the host between blocks cancels.
    """
    probe = Tracer()

    def noop(x):
        return x

    def block(fn) -> float:
        t0 = time.perf_counter()
        for i in range(PROBE_CALLS):
            fn(i)
        return time.perf_counter() - t0

    costs = []
    for make in (probe._span_wrapper, probe._count_wrapper):
        wrapped = make("probe.noop", noop)
        diffs = []
        for _ in range(PROBE_PAIRS):
            diffs.append(block(wrapped) - block(noop))
            probe.reset()
        costs.append(statistics.median(diffs) / PROBE_CALLS)
    return costs[0], costs[1]


def overhead_s(tracer: Tracer) -> float:
    """Seconds that tracing added to the calls ``tracer`` has seen."""
    span_cost, count_cost = wrapper_costs_s()
    spans = sum(tracer.calls[f"{module}.{name}"]
                for module, names in SPAN_FUNCTIONS.items() for name in names)
    counts = sum(tracer.calls[f"{module}.{name}"]
                 for module, names in COUNT_FUNCTIONS.items() for name in names)
    return spans * span_cost + counts * count_cost


def layer_metrics(tracer: Tracer, xq_hits_misses: tuple[int, int],
                  units: int = 1) -> dict[str, float]:
    """Per-layer figures for one unit of work (a verify run, a CLI round)."""
    inclusive, own = tracer.inclusive_s(), tracer.self_s()
    out: dict[str, float] = {}
    for module_name, names in SPAN_FUNCTIONS.items():
        for name in names:
            key = f"{module_name}.{name}"
            out[f"{key}.s"] = inclusive.get(key, 0.0) / units
            out[f"{key}.self_s"] = own.get(key, 0.0) / units
            out[f"{key}.calls"] = tracer.calls[key] / units
    for module_name, names in COUNT_FUNCTIONS.items():
        for name in names:
            key = f"{module_name}.{name}"
            out[f"{key}.calls"] = tracer.calls[key] / units
    oracle_s = sum(inclusive.get(f"oracle.{name}", 0.0) for name in SPAN_FUNCTIONS["oracle"])
    out["oracle.s"] = oracle_s / units
    out["oracle.enum_pair_fill.sequences"] = tracer.sequences / units
    out["oracle.repeat_s"] = tracer.repeat_s / units
    out["oracle.repeat_share"] = tracer.repeat_s / oracle_s if oracle_s else 0.0
    rows = [row for result in tracer.verify_results for row in result.rows]
    out["verify.rows"] = len(rows) / units
    out["verify.rows_direct_oracle"] = sum(
        row.oracle_value is not None for row in rows) / units
    hits, misses = xq_hits_misses
    out["xiangqi.lru_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    return out
