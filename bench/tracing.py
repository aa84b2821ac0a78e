"""Per-layer tracing of the sumrank package, installed from outside.

``Tracer.install()`` replaces public functions with wrappers in every module
that binds them (a name imported with ``from .x import f`` is a separate
binding, so wrapping it only where it is defined would miss the calls), and
the ``ExtensionField`` and ``VolumeTable`` methods on their classes.  A
wrapper records a span (name, start, end, parent) while the tracer is active;
the hot field operations only count calls, since timing 0.4 us calls one by
one would distort them.  Spans stay in memory until ``write_spans``.

Layers are the package's modules; a span's layer is the prefix of its name.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import OrderedDict

LAYERS = ("cli", "volumes", "bounds", "genericity", "combinatorics", "codes", "fields")

# (module, attribute, span name): every binding the CLI's call paths go through.
# genericity binds volume_table for gv_attainment_*, which no subcommand calls
# yet; it is wrapped so that a subcommand using it is traced from the start.
UNREACHED = {"genericity.volume_table"}
_SPANNED = [
    ("cli", "run", "cli.run"),
    *((mod, "volume_table", "volumes.volume_table") for mod in ("bounds", "genericity", "cli")),
    *(("cli", f, f"bounds.{f}") for f in (
        "singleton_max_k", "sp_max_k", "sp_simplified_max_k", "sp_asymptotic_rate",
        "gv_max_k", "gv_simplified_max_k", "gv_asymptotic_rate")),
    *(("cli", f, f"genericity.{f}") for f in (
        "msrd_prob_lb_A", "msrd_prob_lb_U", "msrd_prob_bounds_BR", "min_extension_degree")),
    *((mod, "q_binomial", "combinatorics.q_binomial") for mod in ("combinatorics", "genericity", "codes")),
    ("volumes", "nm_count", "combinatorics.nm_count"),
    ("cli", "is_msrd", "codes.is_msrd"),
    ("cli", "min_distance_bruteforce", "codes.min_distance_bruteforce"),
    ("cli", "monte_carlo", "codes.monte_carlo"),
    ("codes", "random_systematic_code", "codes.random_systematic_code"),
    ("codes", "sum_rank_weight", "codes.sum_rank_weight"),
    ("codes", "matrix_rank", "fields.matrix_rank"),
    ("codes", "ambient_field", "fields.ambient_field"),
]
_COUNTED_FIELD_OPS = ("mul", "inv", "add", "scalar_mul")
_BOUNDS_EXACT = ("bounds.sp_max_k", "bounds.gv_max_k")
_BOUNDS_SIMPLIFIED = ("bounds.sp_simplified_max_k", "bounds.gv_simplified_max_k")
_FIELD_SETUP = ("fields.ambient_field", "fields.build_log_tables")
_MIB = 1 << 20


def dp_mults(mu: int, ell: int, radius_max: int) -> int:
    """Products the VolumeTable DP forms: sum over blocks and radii of min(mu, t) + 1."""
    total, reach = 0, 0
    for _ in range(ell):
        reach = min(reach + mu, radius_max)
        if reach < mu:
            total += (reach + 1) * (reach + 2) // 2
        else:
            total += mu * (mu + 1) // 2 + (reach - mu + 1) * (mu + 1)
    return total


def table_bytes(table) -> int:
    """Computed size of a VolumeTable's sphere and ball columns (ints plus lists)."""
    top = table.radius_max
    ints = sum(sys.getsizeof(table.sphere(t)) + sys.getsizeof(table.ball(t)) for t in range(top + 1))
    return ints + 2 * sys.getsizeof([0] * (top + 1))


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, request index]
        self._stack: list[int] = []
        self.request = -1
        self.counts: dict[str, int] = dict.fromkeys(
            [f"fields.{op}_calls" for op in _COUNTED_FIELD_OPS]
            + ["codes.echelon_visited", "codes.msrd_true", "codes.echelon_total",
               "volumes.dp_mults", "volumes.ball_bits_max", "volumes.cache_hits",
               "volumes.cache_lookups"], 0)
        self.br_upper_spans: set[int] = set()
        self.fired: set[str] = set()  # bindings whose wrapper recorded a span
        self.retained_peak = 0
        self._retained: OrderedDict = OrderedDict()
        self._restore: list = []
        self._echelon_counts: dict = {}
        self._volume_cache = None

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, post=None, binding: str = ""):
        """Wrapper of fn recording a span `name`; post(idx, args, kwargs, result)
        runs after it.  `binding` names the module attribute it replaces."""
        name_id, hook_id = self._name_id(name), self._name_id("trace.hook")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.fired.add(binding)
            idx = len(spans)
            spans.append([name_id, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if post is not None:  # its cost is a span of its own, outside every layer
                hook = len(spans)
                spans.append([hook_id, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request])
                post(idx, args, kwargs, result)
                spans[hook][2] = time.perf_counter()
            return result

        for attr in ("cache_info", "cache_clear"):  # keep lru_cache introspection readable
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _counting(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if self.active:
                counts[key] += 1
            return fn(*args)

        return wrapper

    def _counting_iter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.active:
                    counts[key] += 1
                yield item

        return wrapper

    # -- hooks computing counts from arguments and results ----------------
    def _after_table_build(self, idx, args, kwargs, result):
        table = args[0]
        p = table.params
        self.counts["volumes.dp_mults"] += dp_mults(p.mu, p.ell, table.radius_max)
        bits = table.ball(table.radius_max).bit_length()
        self.counts["volumes.ball_bits_max"] = max(self.counts["volumes.ball_bits_max"], bits)

    def _after_volume_table(self, idx, args, kwargs, table):
        """Mirror volume_table's LRU cache to compute the memory it retains."""
        key = args[0] if args else kwargs["params"]
        if key in self._retained:
            self._retained.move_to_end(key)
        else:
            self._retained[key] = table_bytes(table)
            if len(self._retained) > self._volume_cache.cache_info().maxsize:
                self._retained.popitem(last=False)
        self.retained_peak = max(self.retained_peak, sum(self._retained.values()))

    def _after_is_msrd(self, idx, args, kwargs, result):
        code = args[0]
        key = (code.params, code.k)
        if key not in self._echelon_counts:
            was, self.active = self.active, False
            try:
                self._echelon_counts[key] = self._codes.echelon_count(code.params, code.k)
            finally:
                self.active = was
        self.counts["codes.echelon_total"] += self._echelon_counts[key]
        self.counts["codes.msrd_true"] += bool(result)

    def _after_br(self, idx, args, kwargs, result):
        if kwargs.get("with_upper", True if len(args) < 3 else args[2]):
            self.br_upper_spans.add(idx)

    # -- installation --------------------------------------------------------
    def install(self):
        """Install every wrapper; ``uninstall`` restores the original objects."""
        import importlib

        mods = {name: importlib.import_module(f"sumrank.{name}") for name in LAYERS}
        self._codes = mods["codes"]
        self._volume_cache = mods["volumes"].volume_table
        posts = {
            "volumes.volume_table": self._after_volume_table,
            "codes.is_msrd": self._after_is_msrd,
            "genericity.msrd_prob_bounds_BR": self._after_br,
        }
        for mod, attr, name in _SPANNED:
            wrapper = self.wrap(name, getattr(mods[mod], attr), posts.get(name), f"{mod}.{attr}")
            self._patch(mods[mod], attr, wrapper)
        self._patch(mods["codes"], "echelon_blocks_iter",
                    self._counting_iter("codes.echelon_visited", mods["codes"].echelon_blocks_iter))
        ext = mods["fields"].ExtensionField
        for op in _COUNTED_FIELD_OPS:
            self._patch(ext, op, self._counting(f"fields.{op}_calls", getattr(ext, op)))
        self._patch(ext, "_build_log_tables", self.wrap(
            "fields.build_log_tables", ext._build_log_tables, binding="ExtensionField._build_log_tables"))
        table_cls = mods["volumes"].VolumeTable
        self._patch(table_cls, "__init__", self.wrap(
            "volumes.table_build", table_cls.__init__, self._after_table_build, "VolumeTable.__init__"))

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- derived metrics -------------------------------------------------------
    def self_times(self) -> tuple[list[float], list[float]]:
        """Per-span durations and self times (duration minus child durations)."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        return dur, [d - c for d, c in zip(dur, child)]

    def layer_metrics(self, jobs, job_of_request: dict[int, tuple[str, int]]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded while active, as name -> (value, unit).

        jobs names the Monte-Carlo jobs; job_of_request maps a request index
        to its (job, trials)."""
        dur, own = self.self_times()
        names = self.names
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(names[s[0]], []).append(i)

        def calls(*ns):
            return sum(len(by_name.get(n, ())) for n in ns)

        def total(values, *ns):
            return sum(values[i] for n in ns for i in by_name.get(n, ()))

        def layer_self(layer):
            return sum(own[i] for i, s in enumerate(self.spans) if names[s[0]].startswith(layer + "."))

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        field_setup = [i for n in _FIELD_SETUP for i in by_name.get(n, ())
                       if not self._has_ancestor(i, _FIELD_SETUP)]
        out = {
            "cli.requests": (calls("cli.run"), "count"),
            "cli.self_s": (layer_self("cli"), "s"),
            "volumes.table_builds": (calls("volumes.table_build"), "count"),
            "volumes.table_build_s": (total(dur, "volumes.table_build"), "s"),
            "volumes.cache_hit_ratio": (ratio(c["volumes.cache_hits"], c["volumes.cache_lookups"]), "ratio"),
            "volumes.cache_lookups": (c["volumes.cache_lookups"], "count"),
            "volumes.dp_mults": (c["volumes.dp_mults"], "count"),
            "volumes.ball_bits_max": (c["volumes.ball_bits_max"], "bits"),
            "volumes.retained_mib": (self.retained_peak / _MIB, "MiB"),
            "volumes.self_s": (layer_self("volumes"), "s"),
            "bounds.exact_calls": (calls(*_BOUNDS_EXACT), "count"),
            "bounds.exact_s": (total(own, *_BOUNDS_EXACT), "s"),
            "bounds.simplified_s": (total(own, *_BOUNDS_SIMPLIFIED), "s"),
            "bounds.self_s": (layer_self("bounds"), "s"),
            "genericity.calls": (sum(calls(n) for n in by_name if n.startswith("genericity.")), "count"),
            "genericity.br_upper_s": (sum(dur[i] for i in self.br_upper_spans), "s"),
            "genericity.mmin_s": (total(dur, "genericity.min_extension_degree"), "s"),
            "genericity.self_s": (layer_self("genericity"), "s"),
            "combinatorics.q_binomial_calls": (calls("combinatorics.q_binomial"), "count"),
            "combinatorics.q_binomial_s": (total(own, "combinatorics.q_binomial"), "s"),
            "combinatorics.nm_count_calls": (calls("combinatorics.nm_count"), "count"),
            "combinatorics.self_s": (layer_self("combinatorics"), "s"),
            "codes.trials": (calls("codes.random_systematic_code"), "count"),
            "codes.random_code_s": (total(own, "codes.random_systematic_code"), "s"),
            "codes.is_msrd_calls": (calls("codes.is_msrd"), "count"),
            "codes.is_msrd_s": (total(own, "codes.is_msrd"), "s"),
            "codes.msrd_true_ratio": (ratio(c["codes.msrd_true"], calls("codes.is_msrd")), "ratio"),
            "codes.echelon_visited": (c["codes.echelon_visited"], "count"),
            "codes.echelon_total": (c["codes.echelon_total"], "count"),
            "codes.echelon_visit_ratio": (ratio(c["codes.echelon_visited"], c["codes.echelon_total"]), "ratio"),
            "codes.mindist_s": (total(dur, "codes.min_distance_bruteforce"), "s"),
            "codes.weight_calls": (calls("codes.sum_rank_weight"), "count"),
            "codes.self_s": (layer_self("codes"), "s"),
            "fields.matrix_rank_calls": (calls("fields.matrix_rank"), "count"),
            "fields.matrix_rank_s": (total(own, "fields.matrix_rank"), "s"),
            "fields.setup_s": (sum(dur[i] for i in field_setup), "s"),
            **{f"fields.{op}_calls": (c[f"fields.{op}_calls"], "count") for op in _COUNTED_FIELD_OPS},
            "fields.self_s": (layer_self("fields"), "s"),
        }
        job_time: dict[str, float] = {}
        job_trials: dict[str, int] = {}
        for i in by_name.get("codes.monte_carlo", ()):
            job, trials = job_of_request[self.spans[i][4]]
            job_time[job] = job_time.get(job, 0.0) + dur[i]
            job_trials[job] = job_trials.get(job, 0) + trials
        for job in jobs:
            out[f"codes.trial_s.{job}"] = (ratio(job_time.get(job, 0.0), job_trials.get(job, 0)), "s")
        return out

    def _has_ancestor(self, idx: int, names: tuple[str, ...]) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.names[self.spans[parent][0]] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def active_layers(self) -> list[str]:
        """Layers with at least one recorded span."""
        return sorted({self.names[s[0]].split(".")[0] for s in self.spans} & set(LAYERS))

    def bindings(self) -> list[str]:
        """Every binding the tracer wraps with a span."""
        return [f"{mod}.{attr}" for mod, attr, _ in _SPANNED] + [
            "ExtensionField._build_log_tables", "VolumeTable.__init__"]

    def count_cache(self, before, after):
        """Add one request's volume_table cache_info() delta."""
        self.counts["volumes.cache_hits"] += after.hits - before.hits
        self.counts["volumes.cache_lookups"] += after.hits + after.misses - before.hits - before.misses

    def write_spans(self, path: str):
        """Write every span as gzipped JSON: names plus [name id, start, end, parent, request]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))

