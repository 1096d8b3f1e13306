"""Outside-in tracer for the ``unirep`` layers.

The tracer wraps public functions and methods of the ``unirep`` modules from
the benchmark's side; the program itself carries no instrumentation. Each
wrapped call is a span named after its layer (``groups.multiply``,
``reps.apply``, ...). Spans are aggregated in memory per ``(name, parent)``
as calls, total time and self time, where self time is the span's duration
minus the durations of the spans it directly encloses. Hot leaves such as
free-word multiply run over a million times per run, so keeping one record
per call is not an option.

A function imported by name lives in several namespaces (``ball`` is bound
in ``groups``, ``amenability``, ``containment``, ``stability`` and the
package), so ``install`` rebinds every binding of each wrapped object and
then checks that no unwrapped binding is left.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("groups", "vectors", "reps", "amenability", "containment",
           "stability", "serialize", "cli")
ORACLES = ("FreeGroupOracle", "FgAbelianOracle", "FiniteTableOracle", "RewritingOracle")
REPRESENTATIONS = ("Regular", "Trivial", "MatrixRep", "DirectSum", "Multiple")


class Tracer:
    def __init__(self):
        self.stats = {}                    # (name, parent) -> [calls, total_s, self_s]
        self.counts = defaultdict(int)     # exact counters read off arguments and results
        self._stack = []                   # open spans: [name, time spent in child spans]

    def wrap(self, name, fn, on_call=None):
        """``fn`` recording a span ``name``; ``on_call(counts, args, result)`` adds counts."""
        stack = self._stack
        stats = self.stats
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                key = (name, parent[0] if parent else None)
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if on_call is not None:
                on_call(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def exclude(self, seconds):
        """Leave ``seconds`` spent outside the program (the speed probe) out of the open span."""
        if self._stack:
            self._stack[-1][1] += seconds

    def by_name(self):
        """``name -> (calls, total_s, self_s)`` summed over parents."""
        out = {}
        for (name, _parent), (calls, total, self_s) in self.stats.items():
            c, t, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + calls, t + total, s + self_s)
        return out


# ---------------------------------------------------------------------------
# count hooks: each reads exact sizes off a call's arguments or result


def _ball(counts, args, result):
    counts["groups.ball.elements"] += len(result.elements)
    counts["groups.ball.max"] = max(counts["groups.ball.max"], len(result.elements))


def _iterations(name):
    def hook(counts, args, result):
        counts[name] += result.iterations
    return hook


def _orthonormalize(counts, args, result):
    counts["vectors.orthonormalize.offered"] += len(args[0])
    counts["vectors.orthonormalize.kept"] += len(result)


def _apply(counts, args, result):
    counts["reps.apply.entries"] += len(args[2].entries)


def _closure(counts, args, result):
    counts["stability.closure.dim"] += result.dim
    counts["stability.closure.offered"] += len(result.ball_elements) * len(result.generators)


def _targets(package):
    """``(span name, owner, attribute, hook)`` for every traced callable."""
    m = {name: getattr(package, name) for name in MODULES}
    targets = []
    for cls in ORACLES:
        owner = getattr(m["groups"], cls)
        for op in ("multiply", "invert", "check_element"):
            targets.append((f"groups.{op}", owner, op, None))
    targets += [
        ("groups.normalize", m["groups"].RewritingOracle, "normalize", None),
        ("groups.ball", m["groups"], "ball", _ball),
        ("amenability.min_defect", m["amenability"], "min_defect",
         _iterations("amenability.min_defect.iterations")),
        ("amenability.spectral_radius_bound", m["amenability"], "spectral_radius_bound",
         _iterations("amenability.spectral_radius_bound.iterations")),
        ("amenability.return_probabilities", m["amenability"], "return_probabilities", None),
        ("vectors.inner", m["vectors"], "inner", None),
        ("vectors.orthonormalize", m["vectors"], "orthonormalize", _orthonormalize),
        ("reps.apply", m["reps"].Representation, "apply", _apply),
        ("reps.project", m["reps"].Subspace, "project", None),
        ("containment.gram", m["containment"], "gram", None),
        ("containment.discrepancy", m["containment"], "discrepancy", None),
        ("containment.search_witness", m["containment"], "search_witness",
         _iterations("containment.search_witness.iterations")),
        ("stability.closure", m["stability"], "closure", _closure),
        ("stability.nondividing", m["stability"], "nondividing", None),
        ("stability.canonical_base", m["stability"], "canonical_base", None),
        ("stability.superstable_approx", m["stability"], "superstable_approx", None),
        ("serialize.parse_config", m["serialize"], "parse_config", None),
        ("serialize.parse_vector", m["serialize"], "parse_vector", None),
        ("serialize.vector_to_json", m["serialize"], "vector_to_json", None),
        ("cli.main", m["cli"], "main", None),
    ]
    for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
        targets.append(("vectors.arith", m["vectors"].SparseVector, op, None))
    for cls in REPRESENTATIONS:
        targets.append(("reps.eq", getattr(m["reps"], cls), "__eq__", None))
    return targets


def _namespaces(package):
    """Every namespace of the package that can hold a binding: modules and their classes."""
    spaces = {}
    for mod in [package] + [getattr(package, name) for name in MODULES]:
        spaces[id(mod)] = mod
        for v in vars(mod).values():
            if isinstance(v, type) and v.__module__.startswith(package.__name__):
                spaces[id(v)] = v
    return list(spaces.values())


def _rebind(spaces, original, replacement):
    for space in spaces:
        for attr, value in list(vars(space).items()):
            if value is original:
                setattr(space, attr, replacement)


def unwrapped_bindings(package, originals):
    """``(namespace, attribute)`` pairs still bound to one of ``originals``."""
    ids = {id(fn) for fn in originals}
    return [(getattr(space, "__qualname__", space.__name__), attr)
            for space in _namespaces(package)
            for attr, value in vars(space).items() if id(value) in ids]


def install(tracer):
    """Wrap every traced callable of ``unirep`` in place; return the originals."""
    package = importlib.import_module("unirep")
    for name in MODULES:
        importlib.import_module(f"unirep.{name}")
    spaces = _namespaces(package)
    # Look every original up before rebinding any: __rmul__ is __mul__, and
    # rebinding one must not make the other look like a new callable.
    targets = [(span, vars(owner)[attr], hook) for span, owner, attr, hook in _targets(package)]
    originals = []
    for span, original, hook in targets:
        if original not in originals:
            _rebind(spaces, original, tracer.wrap(span, original, hook))
            originals.append(original)
    cli = package.cli
    for table, span in ((cli.HANDLERS, "cli.handler"), (cli.VERIFIERS, "cli.verifier")):
        for task, original in table.items():
            table[task] = tracer.wrap(span, original)
            _rebind(spaces, original, table[task])
            originals.append(original)
    left = unwrapped_bindings(package, originals)
    if left:
        raise RuntimeError(f"unwrapped bindings left after install: {left}")
    return originals


CALL_METRICS = ("groups.multiply", "groups.invert", "groups.check_element", "groups.normalize",
                "groups.ball", "amenability.min_defect", "vectors.inner", "vectors.arith",
                "vectors.orthonormalize", "reps.apply", "reps.project", "reps.eq",
                "serialize.parse_vector")
SELF_METRICS = ("groups.multiply", "groups.normalize", "groups.ball", "amenability.min_defect",
                "amenability.spectral_radius_bound", "amenability.return_probabilities",
                "vectors.inner", "vectors.arith", "vectors.orthonormalize", "reps.apply",
                "reps.project", "reps.eq", "containment.gram", "containment.discrepancy",
                "containment.search_witness", "stability.closure", "stability.nondividing",
                "stability.canonical_base", "stability.superstable_approx",
                "serialize.parse_config", "serialize.parse_vector", "serialize.vector_to_json",
                "cli.handler", "cli.verifier")
COUNT_METRICS = ("groups.ball.elements", "amenability.min_defect.iterations",
                 "amenability.spectral_radius_bound.iterations",
                 "containment.search_witness.iterations", "stability.closure.dim",
                 "reps.apply.entries")


def layer_metrics(tracer, report_bytes, scale=1.0):
    """Per-layer metric values of one traced run by name; times are multiplied by ``scale``."""
    spans = tracer.by_name()
    counts = tracer.counts
    none = (0, 0.0, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.calls": spans.get(name, none)[0] for name in CALL_METRICS}
    out.update({f"{name}.self_s": spans.get(name, none)[2] * scale for name in SELF_METRICS})
    out.update({name: counts[name] for name in COUNT_METRICS})
    out["groups.ball.rebuild_ratio"] = ratio(counts["groups.ball.elements"],
                                             counts["groups.ball.max"])
    out["vectors.orthonormalize.kept_ratio"] = ratio(counts["vectors.orthonormalize.kept"],
                                                     counts["vectors.orthonormalize.offered"])
    out["stability.closure.kept_ratio"] = ratio(counts["stability.closure.dim"],
                                                counts["stability.closure.offered"])
    out["cli.report_bytes"] = report_bytes
    out["cli.overhead_s"] = spans.get("cli.main", none)[2] * scale
    return out


def span_table(tracer, limit=25):
    """Human-readable span rows by self time, for the traced run's log."""
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])[:limit]
    lines = [f"{'span':34} {'parent':34} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
    for (name, parent), (calls, total, self_s) in rows:
        lines.append(f"{name:34} {str(parent):34} {calls:9d} {total:9.3f} {self_s:9.3f}")
    return "\n".join(lines)
