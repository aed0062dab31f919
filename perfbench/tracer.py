"""Outside-in tracer for the cp2genus layers.

The tracer lives in the benchmark, not in the program: it replaces public
cp2genus functions with wrappers that record spans (name, start, end,
parent) in memory.  Every cp2genus module attribute bound to a wrapped
function is patched, so call sites that did `from .abelian import
orbit_count` are caught too.  Per-element arithmetic (poly_mul,
_apply_matrix) is left alone; a few hot entry points only count calls.

A function that no longer exists is recorded as missing, and every metric
built only from missing functions is reported absent rather than failing
the run.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("lattice", "iso", "galois", "genus", "abelian", "modring",
          "classdata", "materialize", "cli")

# layer -> attributes wrapped with a span; "Class.method" names a method
SPAN_TARGETS = {
    "lattice": ("parse", "render", "genus_vector", "ideal_classes", "u0", "t_of",
                "to_json"),
    "iso": ("padic_completion", "same_genus", "invariants_of", "isomorphic",
            "invariants_to_json"),
    "galois": ("twist", "twisted_isomorphic"),
    "genus": ("group_isomorphic", "profinite_isomorphic", "genus_report",
              "closed_form_count", "enumerate_genus", "orbit_genus_count",
              "ut_orbit_count", "genus_bounds", "report_to_json"),
    "abelian": ("orbit_count", "orbits", "burnside_orbit_count"),
    "modring": ("compute_Um", "galois_on_unit"),
    "classdata": ("builtin", "load_config"),
    "materialize": ("rep_of", "validate_rep", "charpoly", "snf_full", "snf",
                    "ext_group", "bareiss_det", "mat_rank", "kernel_basis",
                    "multiplicative_order", "predicted_charpoly"),
    "cli": ("main", "build_parser"),
}
# wrapped with a call counter only: called per element or per tuple
COUNT_TARGETS = {
    "abelian": ("apply_action",),
    "modring": ("UnitQuotient.rep_of",),
}
# lru_cache'd builders whose cache_info() gives hit ratios
CACHED = (("modring", "compute_Um"),)

# metric name -> span names whose outermost spans it sums (seconds)
TIME_METRICS = {
    "lattice.parse_s": ("lattice.parse",),
    "lattice.render_s": ("lattice.render",),
    "iso.invariants_s": ("iso.invariants_of",),
    "galois.search_s": ("galois.twisted_isomorphic",),
    "genus.enumeration_s": ("genus.enumerate_genus", "genus.orbit_genus_count"),
    "genus.closed_form_s": ("genus.closed_form_count",),
    "abelian.orbit_count_s": ("abelian.orbit_count", "abelian.orbits",
                              "abelian.burnside_orbit_count"),
    "modring.galois_on_unit_s": ("modring.galois_on_unit",),
    "materialize.charpoly_s": ("materialize.charpoly",),
    "materialize.validate_s": ("materialize.validate_rep",),
    "materialize.snf_s": ("materialize.snf_full", "materialize.snf"),
    "materialize.ext_s": ("materialize.ext_group",),
    "materialize.rep_of_s": ("materialize.rep_of",),
    "classdata.load_s": ("classdata.builtin", "classdata.load_config"),
}
SIZED = ("genus.enumerate_genus",)  # spans that also record len(result)


def _resolve(module, dotted: str):
    owner, attr = module, dotted
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        owner = getattr(module, cls_name, None)
    if owner is None or not hasattr(owner, attr):
        return None, None, None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans kept in memory; aggregate() turns them into raw sums."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, error, size]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self.builds: set[int] = set()  # span indices that missed a cache
        self._patches: list[tuple] = []
        self._caches: dict[str, tuple] = {}  # name -> (lru object, hits, misses)
        self.cache_delta: dict[str, tuple[int, int]] = {}

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, cache=None):
        spans, stack = self.spans, self.stack
        builds = self.builds
        sized = name in SIZED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, False, 0]
            spans.append(rec)
            stack.append(index)
            misses = cache.cache_info().misses if cache is not None else 0
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if cache is not None and cache.cache_info().misses > misses:
                builds.add(index)
            if sized:
                rec[5] = len(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cp2genus" or n.startswith("cp2genus."))]
        for kind, table in (("span", SPAN_TARGETS), ("count", COUNT_TARGETS)):
            for layer, attrs in table.items():
                module = sys.modules.get(f"cp2genus.{layer}")
                for dotted in attrs:
                    name = f"{layer}.{dotted}"
                    owner, attr, original = (_resolve(module, dotted) if module
                                             else (None, None, None))
                    if original is None:
                        self.missing.add(name)
                        continue
                    cache = original if (layer, dotted) in CACHED else None
                    if cache is not None:
                        info = cache.cache_info()
                        self._caches[name] = (cache, info.hits, info.misses)
                    wrapper = (self._span(name, original, cache) if kind == "span"
                               else self._counter(name, original))
                    if owner is not module:  # a method: patch the class only
                        self._patch(owner, attr, original, wrapper)
                        continue
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for name, (cache, hits, misses) in self._caches.items():
            info = cache.cache_info()
            self.cache_delta[name] = (info.hits - hits, info.misses - misses)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Raw sums that add up across processes (see merge())."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]

        def outermost(i: int, names) -> bool:
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return False
                parent = spans[parent][3]
            return True

        layer_of = {}
        layers = {layer: [0, 0, 0, 0] for layer in LAYERS}
        for i, rec in enumerate(spans):
            name = rec[0]
            layer = layer_of.setdefault(name, name.split(".")[0])
            agg = layers[layer]
            agg[0] += 1
            agg[2] += rec[2] - rec[1] - child_ns[i]
            parent = rec[3]
            while parent >= 0 and not spans[parent][0].startswith(layer + "."):
                parent = spans[parent][3]
            if parent < 0:
                agg[1] += rec[2] - rec[1]
                agg[3] += rec[4]

        times = {}
        for metric, names in TIME_METRICS.items():
            names = set(names)
            times[metric] = sum(rec[2] - rec[1] for i, rec in enumerate(spans)
                                if rec[0] in names and outermost(i, names))
        searches = twists = 0
        for i, rec in enumerate(spans):
            if rec[0] == "galois.twisted_isomorphic":
                searches += 1
            elif rec[0] == "galois.twist" and not outermost(i, {"galois.twisted_isomorphic"}):
                twists += 1
        hits, misses = self.cache_delta.get("modring.compute_Um", (0, 0))
        return {
            "layers": layers,
            "times_ns": times,
            "counts": dict(self.counts),
            "searches": searches,
            "twists_in_search": twists,
            "tuples": sum(rec[5] for rec in spans if rec[0] in SIZED),
            "um_hits": hits,
            "um_misses": misses,
            "um_builds": len(self.builds),
            "um_build_ns": sum(spans[i][2] - spans[i][1] for i in self.builds),
            "import_ns": 0,
            "missing": sorted(self.missing),
        }


def merge(raws: list[dict]) -> dict:
    """Sum the raw aggregates of several traced processes."""
    out: dict = {"layers": {layer: [0, 0, 0, 0] for layer in LAYERS},
                 "times_ns": {metric: 0 for metric in TIME_METRICS}, "counts": {},
                 "searches": 0, "twists_in_search": 0, "tuples": 0, "um_hits": 0,
                 "um_misses": 0, "um_builds": 0, "um_build_ns": 0, "import_ns": 0,
                 "missing": set()}
    for raw in raws:
        for key, value in raw.items():
            if key == "layers":
                for layer, agg in value.items():
                    out["layers"][layer] = [a + b for a, b in zip(out["layers"][layer], agg)]
            elif key == "missing":
                out["missing"] |= set(value)
            elif isinstance(value, dict):
                for k, v in value.items():
                    out[key][k] = out[key].get(k, 0) + v
            else:
                out[key] += value
    out["missing"] = sorted(out["missing"])
    return out


def metrics(raw: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics {name: (value, unit)} and the names left absent."""
    missing = set(raw["missing"])
    out: dict[str, tuple] = {}
    absent: list[str] = []
    for layer, (calls, total, self_ns, errors) in raw["layers"].items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.total_s"] = (total / 1e9, "s")
        out[f"{layer}.self_s"] = (self_ns / 1e9, "s")
        out[f"{layer}.errors"] = (errors, "count")
    for metric, names in TIME_METRICS.items():
        if all(n in missing for n in names):
            absent.append(metric)
        else:
            out[metric] = (raw["times_ns"][metric] / 1e9, "s")

    def put(metric, needs, value, unit):
        if any(n in missing for n in needs):
            absent.append(metric)
        else:
            out[metric] = (value, unit)

    counts = raw["counts"]
    put("modring.rep_of_calls", ["modring.UnitQuotient.rep_of"],
        counts.get("modring.UnitQuotient.rep_of", 0), "count")
    put("abelian.apply_action_calls", ["abelian.apply_action"],
        counts.get("abelian.apply_action", 0), "count")
    lookups = raw["um_hits"] + raw["um_misses"]
    put("modring.um_hit_ratio", ["modring.compute_Um"],
        raw["um_hits"] / lookups if lookups else 0.0, "ratio")
    put("modring.um_builds", ["modring.compute_Um"], raw["um_builds"], "count")
    put("modring.um_build_s", ["modring.compute_Um"], raw["um_build_ns"] / 1e9, "s")
    searches = raw["searches"]
    put("galois.twists_per_search", ["galois.twisted_isomorphic", "galois.twist"],
        raw["twists_in_search"] / searches if searches else 0.0, "count")
    put("genus.tuples_enumerated", ["genus.enumerate_genus"], raw["tuples"], "count")
    out["cli.import_s"] = (raw["import_ns"] / 1e9, "s")
    return out, absent
