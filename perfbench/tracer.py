"""Per-layer tracing of bsroots, installed from outside the program.

`install(tracer)` replaces the public entry points of each layer with timing
wrappers: module functions and class methods are patched in place, and a
function that another module imported by name (``from .rings import
jump_engine``) is patched in that module too, or its calls would be missed.
Nothing under ``src/`` knows about the tracer, and untraced passes never
install it.

Each benchmark job is one trace id.  A wrapped call is a span with a name,
start, end and parent span; finished spans stay in memory and are written out
when the run ends.  The hot leaves ``Polynomial.__mul__`` and
``PolyRing.polynomial`` (millions of calls per job list) and the cached
``Ideal.groebner`` accessor are never recorded one span per call: they are
tallied per parent span as a call count and a time, and so is every call of a
name past its first `SPAN_CAP` spans in a trace.  Per-name totals count every
call either way, except in a job cut short by its timeout.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

# (metric name, module, attribute path).  A `*` class matches every class of
# the module that defines the method itself.
TARGETS = (
    ("polyring.mul", "polyring", "Polynomial.__mul__"),
    ("polyring.polynomial", "polyring", "PolyRing.polynomial"),
    ("polyring.product", "polyring", "Ideal.product"),
    ("polyring.power", "polyring", "Ideal.power"),
    ("polyring.minimal_monomials", "polyring", "minimal_monomials"),
    ("polyring.contains", "polyring", "Ideal.contains"),
    ("polyring.groebner", "polyring", "Ideal.groebner"),
    ("polyring.buchberger", "polyring", "_buchberger"),
    ("polyring.reduce_full", "polyring", "_reduce_full"),
    ("frobenius.eth_root", "frobenius", "eth_root"),
    ("frobenius.eth_root_power", "frobenius", "eth_root_power"),
    ("frobenius.root_coefficients", "frobenius", "poly_root_coefficients"),
    ("rings.jump_engine", "rings", "jump_engine"),
    ("rings.d_label", "rings", "*.d_label"),
    ("rings.semigroup_closure", "rings", "semigroup_diff_closure"),
    ("jumps.jump_set", "rings", "*.jump_set"),
    ("jumps.nu_invariant", "jumps", "nu_invariant"),
    ("roots.enumerate", "roots", "enumerate_candidates"),
    ("roots.verify", "roots", "verify_root_to_level"),
    ("thresholds.enumerate", "thresholds", "threshold_candidates"),
    ("thresholds.verify", "thresholds", "verify_threshold"),
    ("thresholds.test_ideal", "thresholds", "test_ideal"),
    ("padic.truncation", "padic", "PAdicRational.truncation"),
    ("cli.run", "cli", "run"),
)

HOT = frozenset({"polyring.mul", "polyring.polynomial", "polyring.groebner"})

# Past this many spans of one name in one trace, further calls of that name are
# tallied like the hot leaves; it bounds the memory the spans take (a
# semigroup job makes close to a million d_label calls).
SPAN_CAP = 256

# Spans whose presence under a d_label span means the label was computed
# rather than read from the engine's cache.
LABEL_WORK = frozenset(
    {"frobenius.eth_root", "frobenius.eth_root_power", "rings.semigroup_closure"}
)

MAX_LEVEL = 6

# Self-time shares are reported per layer; a layer is a set of span names.
# Semigroup closure and threshold verification get rows of their own, which is
# where the semigroup workload's time should go.
LAYERS = (
    ("polyring arithmetic", ("polyring.mul", "polyring.polynomial", "polyring.product",
                             "polyring.power", "polyring.minimal_monomials",
                             "polyring.contains")),
    ("polyring groebner", ("polyring.groebner", "polyring.buchberger", "polyring.reduce_full")),
    ("frobenius", ("frobenius.eth_root", "frobenius.eth_root_power",
                   "frobenius.root_coefficients")),
    ("rings labels", ("rings.jump_engine", "rings.d_label")),
    ("rings closure", ("rings.semigroup_closure",)),
    ("jumps", ("jumps.jump_set", "jumps.nu_invariant")),
    ("roots", ("roots.enumerate", "roots.verify")),
    ("thresholds verify", ("thresholds.verify",)),
    ("thresholds other", ("thresholds.enumerate", "thresholds.test_ideal")),
    ("padic", ("padic.truncation",)),
    ("cli", ("cli.run",)),
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return list(Tracer().metrics()) + ["trace.overhead_ratio"]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Stat:
    """Running totals for one span name."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # outermost activations only, so recursion is not counted twice
    depth: int = 0
    hits: int = 0  # a name-specific outcome count, see `_OBSERVERS`
    items: int = 0  # a name-specific size count, see `_OBSERVERS`
    by_level: dict = field(default_factory=dict)  # d_label seconds per level e


class Tracer:
    """Collects spans and per-name totals for one benchmark pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.trace_id = -1
        self._next_span = 0
        self._recorded: dict[str, int] = {}  # spans recorded per name in this trace
        self._saved: dict[str, Stat] = {}  # totals as the current trace began
        # A frame is [span id, child time, hot tallies or None, label work seen].
        self._stack: list[list] = [[-1, 0.0, None, False]]

    def start_trace(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self._recorded.clear()
        self._saved = {name: replace(stat, by_level=dict(stat.by_level))
                       for name, stat in self.stats.items()}

    def abandon(self) -> None:
        """Forget the totals of a job cut short by its timeout.

        How far such a job got depends on the host's speed, so its counts would
        not repeat between runs.  Its spans are kept.
        """
        del self._stack[1:]
        self._stack[0][1] = 0.0
        for name, stat in self.stats.items():
            vars(stat).update(vars(self._saved[name]))

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, name: str, fn):
        """A wrapper around fn that records one span (or hot tally) per call."""
        stat = self.stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        hot = name in HOT
        label_work = name in LABEL_WORK
        by_level = name == "rings.d_label"  # d_label(self, n, e)
        observe = _OBSERVERS.get(name)
        recorded = self._recorded
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            tally = hot or recorded.get(name, 0) >= SPAN_CAP
            if tally:
                # Children of a tallied call attach to the nearest recorded span.
                frame = [parent[0], 0.0, None, False]
            else:
                recorded[name] = recorded.get(name, 0) + 1
                frame = [tracer._next_span, 0.0, None, False]
                tracer._next_span += 1
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                parent[1] += duration
                if label_work:
                    parent[3] = True
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if not stat.depth:
                    stat.total_s += duration
                if by_level:
                    e = args[2]
                    stat.by_level[e] = stat.by_level.get(e, 0.0) + duration
                if tally:
                    tallies = parent[2]
                    if tallies is None:
                        tallies = parent[2] = {}
                    counted = tallies.get(name)
                    if counted is None:
                        tallies[name] = [1, duration]
                    else:
                        counted[0] += 1
                        counted[1] += duration
                else:
                    spans.append(
                        (tracer.trace_id, frame[0], parent[0], name, start, end, frame[2])
                    )
            if observe is not None:
                observe(stat, args, result, duration, frame)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of `metric_names()`, except the overhead ratio."""
        s = self.stat
        out: dict[str, float] = {}
        for base in ("polyring.mul", "polyring.polynomial", "polyring.product",
                     "polyring.power", "polyring.minimal_monomials", "polyring.contains",
                     "polyring.buchberger", "polyring.reduce_full", "frobenius.eth_root",
                     "frobenius.eth_root_power", "frobenius.root_coefficients",
                     "rings.semigroup_closure", "roots.verify", "thresholds.verify",
                     "padic.truncation"):
            out[f"{base}.calls"] = s(base).calls
            out[f"{base}.self_s"] = s(base).self_s
        out["polyring.groebner.calls"] = s("polyring.groebner").calls
        out["polyring.reduce_full.zero_ratio"] = _ratio(
            s("polyring.reduce_full").hits, s("polyring.reduce_full").calls
        )
        label = s("rings.d_label")
        out["rings.engines_built"] = s("rings.jump_engine").calls
        out["rings.d_label.calls"] = label.calls
        out["rings.labels_computed"] = label.hits
        out["rings.label_hit_ratio"] = _ratio(label.calls - label.hits, label.calls)
        for e in range(1, MAX_LEVEL + 1):
            out[f"rings.d_label.e{e}.total_s"] = label.by_level.get(e, 0.0)
        for base in ("jumps.jump_set", "jumps.nu_invariant", "thresholds.test_ideal"):
            out[f"{base}.calls"] = s(base).calls
            out[f"{base}.total_s"] = s(base).total_s
        out["roots.candidates"] = s("roots.enumerate").items
        out["roots.certified_ratio"] = _ratio(s("roots.verify").hits, s("roots.verify").calls)
        out["thresholds.candidates"] = s("thresholds.enumerate").items
        out["thresholds.survivor_ratio"] = _ratio(
            s("thresholds.verify").hits, s("thresholds.verify").calls
        )
        out["cli.run.self_s"] = s("cli.run").self_s
        return out

    def per_name(self) -> dict[str, list]:
        """[calls, self seconds] for every target name, fired or not."""
        return {
            name: [self.stat(name).calls, self.stat(name).self_s] for name, _, _ in TARGETS
        }

    def write_spans(self, path) -> None:
        """One JSON object per span; hot tallies ride on their parent span."""
        with open(path, "w", encoding="utf-8") as fh:
            for trace_id, span_id, parent_id, name, start, end, tallies in self.spans:
                record = {"trace": trace_id, "span": span_id, "parent": parent_id,
                          "name": name, "start": start, "end": end}
                if tallies:
                    record["tallies"] = tallies
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def layer_self_times(per_name: dict[str, list]) -> dict[str, float]:
    """Self seconds summed per layer of `LAYERS`, from `Tracer.per_name()` output."""
    return {layer: sum(per_name[name][1] for name in names) for layer, names in LAYERS}


def _ratio(part: int, whole: int) -> float:
    # An empty base reads 0 so that every name is present on every workload.
    return part / whole if whole else 0.0


def _count_zero(stat, args, result, duration, frame):
    if result.is_zero():
        stat.hits += 1


def _count_label(stat, args, result, duration, frame):
    if frame[3]:
        stat.hits += 1


def _count_items(stat, args, result, duration, frame):
    stat.items += len(result)


def _count_root_certificates(stat, args, result, duration, frame):
    if type(result).__name__ == "RootCertificate":
        stat.hits += 1


def _count_survivors(stat, args, result, duration, frame):
    if result is not None:
        stat.hits += 1


_OBSERVERS = {
    "polyring.reduce_full": _count_zero,
    "rings.d_label": _count_label,
    "roots.enumerate": _count_items,
    "thresholds.enumerate": _count_items,
    "roots.verify": _count_root_certificates,
    "thresholds.verify": _count_survivors,
}


def install(tracer: Tracer) -> list[str]:
    """Patch every target in the imported bsroots package; returns what was patched."""
    import importlib

    modules = {
        name: importlib.import_module(f"bsroots.{name}")
        for name in ("padic", "polyring", "frobenius", "rings", "jumps", "roots",
                     "thresholds", "cli")
    }
    patched = []
    for metric, module_name, path in TARGETS:
        module = modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name == "*":
            owners = [
                cls for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module.__name__
                and attr in vars(cls)
            ]
        elif owner_name:
            owners = [getattr(module, owner_name)]
        else:
            owners = [module]
        for owner in owners:
            original = vars(owner)[attr]
            wrapper = tracer.wrap(metric, original)
            setattr(owner, attr, wrapper)
            patched.append(f"{getattr(owner, '__name__', module_name)}.{attr}")
            if owner is module:
                # Rebind copies imported by name into sibling modules.
                for other_name, other in modules.items():
                    if other is not module and vars(other).get(attr) is original:
                        setattr(other, attr, wrapper)
                        patched.append(f"{other_name}.{attr}")
    return patched
