"""Per-layer tracing of ginlab from outside: spans around its entry points.

``Tracer.install()`` wraps the public entry points of each ``ginlab``
module.  A function is rebound at every import site (``gin``, for example,
is bound separately in ``groebner``, ``betti``, ``rigidity``, ``oracles``,
``annihilators``, ``cli`` and the package itself); a method is wrapped on
its class, which covers every caller.  ``uninstall()`` restores the
originals.

Spans are kept in memory as parallel arrays (name, parent, trace id, start,
end) and written as JSONL by ``write_jsonl``.  ``summary()`` turns them
into the per-layer metrics: ``<layer>.calls``, ``<layer>.busy_s`` (time
inside the outermost span of that layer) and ``<layer>.self_s`` (span time
not covered by child spans), plus the metrics listed in ``DERIVED``.
"""

import functools
import json
import sys
import time
from array import array

# the layers, named <module>.<entry point>; perfbench/README.md says which
# end-to-end metric each should move, on which workload
LAYERS = (
    "linalg.intrank_add",
    "linalg.rref_add",
    "linalg.left_kernel",
    "groebner.gin",
    "groebner.gin_lex",  # gin with order lex or deglex, inside groebner.gin
    "ideals.piece",
    "ideals.hilbert_numerator",
    "ideals.lex_segment_ideal",
    "betti.koszul_betti",
    "betti.cartan_betti",
    "betti.closed_forms",
    "annihilators.direct",
    "annihilators.workspace",
    "annihilators.formula",
    "rigidity.battery",
    "rigidity.component_linear",
    "oracles.oracle_equivalences",
    "parsing.parse_ideal",
    "cli.main",
    "corpus.generate",
)

# the other per-layer metrics and their units
DERIVED = {
    "linalg.intrank.rank_yield": "ratio",
    "linalg.intrank.max_pivot_bits": "bits",
    "linalg.intrank.mean_pivot_bits": "bits",
    "groebner.gin.calls_per_item": "calls/item",
    "groebner.gin.escalations": "count",
    "rigidity.context.hit_ratio": "ratio",
    "trace.overhead_s": "s",
}

# (module, function, layer): rebound at every ginlab import site
_FUNCTIONS = (
    ("linalg", "left_kernel", "linalg.left_kernel"),
    ("ideals", "hilbert_numerator", "ideals.hilbert_numerator"),
    ("ideals", "lex_segment_ideal", "ideals.lex_segment_ideal"),
    ("betti", "koszul_betti", "betti.koszul_betti"),
    ("betti", "cartan_betti", "betti.cartan_betti"),
    ("betti", "ek_betti", "betti.closed_forms"),
    ("betti", "bigatti_betti", "betti.closed_forms"),
    ("betti", "ahh_betti", "betti.closed_forms"),
    ("annihilators", "generic_annihilators_direct", "annihilators.direct"),
    ("annihilators", "verify_homology_formula", "annihilators.formula"),
    ("rigidity", "battery", "rigidity.battery"),
    ("oracles", "oracle_equivalences", "oracles.oracle_equivalences"),
    ("parsing", "parse_ideal", "parsing.parse_ideal"),
    ("cli", "main", "cli.main"),
    ("corpus", "generate", "corpus.generate"),
)

# (module, class, method, layer): wrapped on the class
_METHODS = (
    ("linalg", "Rref", "add", "linalg.rref_add"),
    ("ideals", "Ideal", "piece", "ideals.piece"),
    ("annihilators", "HomologyWorkspace", "h", "annihilators.workspace"),
    ("annihilators", "HomologyWorkspace", "delta", "annihilators.workspace"),
    ("annihilators", "HomologyWorkspace", "cycles", "annihilators.workspace"),
)


def _ratio(a, b):
    return a / b if b else 0.0


def _ginlab_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "ginlab" or name.startswith("ginlab.")
    ]


class Tracer:
    """In-memory spans and counters for one traced stretch of work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # span times are read from it
        self.names = list(LAYERS) + ["item", "setup"]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.trace = array("q")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._depth = [0] * len(self.names)
        self.trace_id = -1
        self.counts = {
            "intrank_grew": 0,
            "pivot_bits_sum": 0,
            "pivot_bits_max": 0,
            "gin_escalations": 0,
            "context_hits": 0,
            "context_lookups": 0,
        }
        self._restore = []

    # -- spans ------------------------------------------------------------

    def open(self, layer):
        nid = self._ids[layer]
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trace.append(self.trace_id)
        self.outer.append(0 if self._depth[nid] else 1)
        self._depth[nid] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(self.clock())
        return sid

    def close(self, sid):
        self.end[sid] = self.clock()
        self._stack.pop()
        self._depth[self.name[sid]] -= 1

    def span(self, layer, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        for mod in _ginlab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        from ginlab import groebner, linalg, rigidity
        from ginlab.rings import DEGLEX, LEX

        mods = {name: sys.modules[f"ginlab.{name}"] for name in (
            "linalg", "ideals", "betti", "annihilators", "rigidity",
            "oracles", "parsing", "cli", "corpus")}
        for mod, attr, layer in _FUNCTIONS:
            original = getattr(mods[mod], attr)
            self._rebind(original, self.span(layer, original))
        for mod, cls, attr, layer in _METHODS:
            owner = getattr(mods[mod], cls)
            self._set(owner, attr, self.span(layer, getattr(owner, attr)))

        counts = self.counts

        def intrank_after(args, kwargs, grew):
            if grew:
                row = next(reversed(args[0].pivots.values()))
                bits = max(abs(v) for v in row.values()).bit_length()
                counts["intrank_grew"] += 1
                counts["pivot_bits_sum"] += bits
                if bits > counts["pivot_bits_max"]:
                    counts["pivot_bits_max"] = bits

        self._set(linalg.IntRank, "add", self.span(
            "linalg.intrank_add", linalg.IntRank.add, after=intrank_after))

        gin = groebner.gin
        lex_gin = self.span("groebner.gin_lex", gin)

        def gin_by_order(*args, **kwargs):
            order = args[1] if len(args) > 1 else kwargs.get("order")
            return (lex_gin if order in (LEX, DEGLEX) else gin)(*args, **kwargs)

        def gin_after(args, kwargs, result):
            counts["gin_escalations"] += result[1].escalations

        self._rebind(gin, self.span("groebner.gin", gin_by_order, gin_after))

        ctx_cls = rigidity.RigidityContext
        get = ctx_cls._get

        def counted_get(ctx, key, builder):
            counts["context_lookups"] += 1
            counts["context_hits"] += key in ctx._cache
            return get(ctx, key, builder)

        self._set(ctx_cls, "_get", counted_get)

        component_linear = ctx_cls.component_linear
        traced_linear = self.span("rigidity.component_linear", component_linear)

        def counted_linear(ctx, k):
            # component_linear keeps its own entries in the context cache
            counts["context_lookups"] += 1
            counts["context_hits"] += ("complin", k) in ctx._cache
            return traced_linear(ctx, k)

        self._set(ctx_cls, "component_linear", counted_linear)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self, items):
        """Per-layer metrics as {name: (value, unit)}."""
        nlayers = len(self.names)
        calls = [0] * nlayers
        busy = [0.0] * nlayers
        own = [0.0] * nlayers
        child = {}
        for sid in range(len(self.name) - 1, -1, -1):
            dur = self.end[sid] - self.start[sid]
            nid = self.name[sid]
            calls[nid] += 1
            if self.outer[sid]:
                busy[nid] += dur
            own[nid] += dur - child.pop(sid, 0.0)
            p = self.parent[sid]
            if p >= 0:
                child[p] = child.get(p, 0.0) + dur
        out = {}
        for layer in LAYERS:
            nid = self._ids[layer]
            out[f"{layer}.calls"] = (calls[nid], "count")
            out[f"{layer}.busy_s"] = (busy[nid], "s")
            out[f"{layer}.self_s"] = (own[nid], "s")
        c = self.counts
        adds = calls[self._ids["linalg.intrank_add"]]
        gins = calls[self._ids["groebner.gin"]]
        derived = {
            "linalg.intrank.rank_yield": _ratio(c["intrank_grew"], adds),
            "linalg.intrank.max_pivot_bits": c["pivot_bits_max"],
            "linalg.intrank.mean_pivot_bits": _ratio(
                c["pivot_bits_sum"], c["intrank_grew"]),
            "groebner.gin.calls_per_item": _ratio(gins, items),
            "groebner.gin.escalations": c["gin_escalations"],
            "rigidity.context.hit_ratio": _ratio(
                c["context_hits"], c["context_lookups"]),
        }
        for name, value in derived.items():
            out[name] = (value, DERIVED[name])
        return out

    def write_jsonl(self, path):
        """A header line naming the fields, then one JSON array per span.

        Spans are in the order they opened; times are integer microseconds
        from the first span's start.
        """
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": [
                "id", "parent", "trace", "name", "start_us", "end_us"]}) + "\n")
            for sid in range(len(self.name)):
                fh.write('[%d,%d,%d,"%s",%d,%d]\n' % (
                    sid, self.parent[sid], self.trace[sid],
                    self.names[self.name[sid]],
                    (self.start[sid] - t0) * 1e6, (self.end[sid] - t0) * 1e6))
