"""Per-layer tracing of mdscensus from outside the package.

`install(tracer)` wraps the public functions of every layer (fields,
_vecgf, linalg, exterior, census, sections, grassmann_code, asymptotics,
cli) and replaces each wrapped name in every mdscensus module that bound it
at import, so calls made through `from .x import f` are seen too.  Every
wrapped call records a span (name, start, end, parent, job id); spans stay
in memory until `Tracer.metrics()` folds them into the per-layer metrics
listed in PER_LAYER.

Scalar field operations (GF.add/sub/mul/neg/inv) run millions of times, so
they are counted but get no span.  `_vecgf.det_any` recurses through its
module global, so only its top-level calls are recorded; its time per
element is kept per census route, scan (`vecgf.det_any.order*`) and filter
(`vecgf.det_any.filter.order*`).  Pool workers are forked, so no span is
recorded inside them: the pool layer is observed from the parent (pool
lifetime, submissions, shutdown), and each task's run time is read around
the task function in the worker and returned with its result.
"""

import functools
import statistics
import sys
import time
from array import array
from collections import Counter
from concurrent.futures import Future

# (name, unit, better): the per-layer metrics a traced run reports, in order.
# BENCHMARK.json lists the same names.
LAYERS = ("fields", "vecgf", "linalg", "exterior", "census", "sections",
          "grassmann_code", "asymptotics", "cli")

PER_LAYER = (
    ("census.scan.calls", "count", "lower"),
    ("census.scan.s", "s", "lower"),
    ("census.scan.candidates", "count", "lower"),
    ("census.scan.ns_per_candidate", "ns", "lower"),
    ("census.filter.calls", "count", "lower"),
    ("census.filter.s", "s", "lower"),
    ("census.filter.points", "count", "lower"),
    ("census.filter.ns_per_point", "ns", "lower"),
    ("census.pools_started", "count", "lower"),
    ("census.tasks_submitted", "count", "lower"),
    ("census.pool_s", "s", "lower"),
    ("census.task_s_p50", "s", "lower"),
    ("census.task_s_max", "s", "lower"),
    ("census.pool_shutdown_s", "s", "lower"),
    ("vecgf.count_all_nonzero.calls", "count", "lower"),
    ("vecgf.count_all_nonzero.s", "s", "lower"),
    ("vecgf.count_all_nonzero.candidates", "count", "lower"),
    ("vecgf.count_all_nonzero.survivors", "count", "higher"),
    ("vecgf.survivor_ratio", "ratio", "higher"),
    ("vecgf.det_any.order2.ns_per_elem", "ns", "lower"),
    ("vecgf.det_any.order3.ns_per_elem", "ns", "lower"),
    ("vecgf.det_any.filter.order2.ns_per_elem", "ns", "lower"),
    ("vecgf.det_any.filter.order3.ns_per_elem", "ns", "lower"),
    ("vecgf.position_arrays.s", "s", "lower"),
    ("vecgf.position_arrays.elems", "count", "lower"),
    ("vecgf.plucker_matrix.misses", "count", "lower"),
    ("vecgf.plucker_matrix.s", "s", "lower"),
    ("vecgf.plucker_matrix.bytes", "B", "lower"),
    ("vecgf.form_values.calls", "count", "lower"),
    ("vecgf.form_values.s", "s", "lower"),
    ("fields.make_field.misses", "count", "lower"),
    ("fields.make_field.s", "s", "lower"),
    ("fields.gf_ops", "count", "lower"),
    ("linalg.enumerate_grassmannian.points", "count", "lower"),
    ("linalg.enumerate_grassmannian.s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.s", "s", "lower"),
    ("linalg.minor.calls", "count", "lower"),
    ("linalg.minor.s", "s", "lower"),
    ("exterior.form_weight.direct.calls", "count", "lower"),
    ("exterior.form_weight.direct.s", "s", "lower"),
    ("exterior.form_weight.recursive.calls", "count", "lower"),
    ("exterior.form_weight.recursive.s", "s", "lower"),
    ("exterior.interior_mult.calls", "count", "lower"),
    ("exterior.interior_mult.s", "s", "lower"),
    ("exterior.plucker_embed.calls", "count", "lower"),
    ("exterior.plucker_embed.s", "s", "lower"),
    ("exterior.satisfies_plucker.calls", "count", "lower"),
    ("sections.section_norm.point_scan.s", "s", "lower"),
    ("sections.section_norm.annihilator_sum.s", "s", "lower"),
    ("sections.support_mask_counts.s", "s", "lower"),
    ("sections.inclusion_exclusion.s", "s", "lower"),
    ("grassmann_code.build_code.s", "s", "lower"),
    ("grassmann_code.build_code.columns", "count", "lower"),
    ("grassmann_code.weight_spectrum.s", "s", "lower"),
    ("grassmann_code.weight_spectrum.codewords", "count", "lower"),
    ("grassmann_code.higher_weight_search.s", "s", "lower"),
    ("grassmann_code.higher_weight_search.subcodes", "count", "lower"),
    ("asymptotics.convergence.calls", "count", "lower"),
    ("asymptotics.convergence.s", "s", "lower"),
    ("asymptotics.convergence.self_s", "s", "lower"),
    ("asymptotics.validation_scans", "count", "lower"),
    ("cli.jobs", "count", "higher"),
    ("cli.self_s", "s", "lower"),
) + tuple((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Units whose values must repeat exactly from one traced pass to the next.
EXACT_UNITS = ("count", "B", "ratio")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.name_of = []           # span name id -> name
        self._ids = {}
        self.name = array("l")      # per span: name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")    # -1 for a root span
        self.job = array("l")
        self.stack = []
        self.job_id = -1
        self.counts = Counter()
        self.times = Counter()      # seconds per key that no span name gives
        self.task_s = []            # pool task run times
        self.validate_depth = 0

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.name_of)
            self.name_of.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def span_totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, incl, own = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.name_of[self.name[i]]
            calls[name] += 1
            incl[name] += dur[i]
            own[name] += dur[i] - child[i]
        return calls, incl, own

    def metrics(self):
        """Every PER_LAYER value except trace.overhead_s, as plain numbers."""
        calls, incl, own = self.span_totals()
        c = self.counts
        out = {}

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        out["census.scan.calls"] = calls["census.scan"]
        out["census.scan.s"] = incl["census.scan"]
        out["census.scan.candidates"] = c["census.scan.candidates"]
        out["census.scan.ns_per_candidate"] = ratio(
            incl["census.scan"], c["census.scan.candidates"], 1e9)
        out["census.filter.calls"] = calls["census.filter"]
        out["census.filter.s"] = incl["census.filter"]
        out["census.filter.points"] = c["census.filter.points"]
        out["census.filter.ns_per_point"] = ratio(
            incl["census.filter"], c["census.filter.points"], 1e9)
        out["census.pools_started"] = c["census.pools_started"]
        out["census.tasks_submitted"] = c["census.tasks_submitted"]
        out["census.pool_s"] = incl["census.pool"]
        tasks = sorted(self.task_s)
        out["census.task_s_p50"] = statistics.median(tasks) if tasks else 0.0
        out["census.task_s_max"] = tasks[-1] if tasks else 0.0
        out["census.pool_shutdown_s"] = self.times["census.pool_shutdown"]
        out["vecgf.count_all_nonzero.calls"] = calls["vecgf.count_all_nonzero"]
        out["vecgf.count_all_nonzero.s"] = incl["vecgf.count_all_nonzero"]
        cand = c["vecgf.count_all_nonzero.candidates"]
        surv = c["vecgf.count_all_nonzero.survivors"]
        out["vecgf.count_all_nonzero.candidates"] = cand
        out["vecgf.count_all_nonzero.survivors"] = surv
        out["vecgf.survivor_ratio"] = ratio(surv, cand)
        for route in ("vecgf.det_any", "vecgf.det_any.filter"):
            for order in (2, 3):
                key = f"{route}.order{order}"
                out[f"{key}.ns_per_elem"] = ratio(
                    self.times[key], c[f"{key}.elems"], 1e9)
        out["vecgf.position_arrays.s"] = incl["vecgf.position_arrays"]
        out["vecgf.position_arrays.elems"] = c["vecgf.position_arrays.elems"]
        out["vecgf.plucker_matrix.misses"] = c["vecgf.plucker_matrix.misses"]
        out["vecgf.plucker_matrix.s"] = incl["vecgf.plucker_matrix"]
        out["vecgf.plucker_matrix.bytes"] = c["vecgf.plucker_matrix.bytes"]
        out["vecgf.form_values.calls"] = calls["vecgf.form_values"]
        out["vecgf.form_values.s"] = incl["vecgf.form_values"]
        out["fields.make_field.misses"] = c["fields.make_field.misses"]
        out["fields.make_field.s"] = incl["fields.make_field"]
        out["fields.gf_ops"] = c["fields.gf_ops"]
        out["linalg.enumerate_grassmannian.points"] = c[
            "linalg.enumerate_grassmannian.points"]
        out["linalg.enumerate_grassmannian.s"] = incl["linalg.enumerate_grassmannian"]
        for name in ("linalg.rank", "linalg.minor",
                     "exterior.form_weight.direct",
                     "exterior.form_weight.recursive",
                     "exterior.interior_mult", "exterior.plucker_embed"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
        out["exterior.satisfies_plucker.calls"] = calls["exterior.satisfies_plucker"]
        for name in ("sections.section_norm.point_scan",
                     "sections.section_norm.annihilator_sum",
                     "sections.support_mask_counts",
                     "sections.inclusion_exclusion"):
            out[f"{name}.s"] = incl[name]
        for name, unit in (("grassmann_code.build_code", "columns"),
                           ("grassmann_code.weight_spectrum", "codewords"),
                           ("grassmann_code.higher_weight_search", "subcodes")):
            out[f"{name}.s"] = incl[name]
            out[f"{name}.{unit}"] = c[f"{name}.{unit}"]
        out["asymptotics.convergence.calls"] = calls["asymptotics.convergence"]
        out["asymptotics.convergence.s"] = incl["asymptotics.convergence"]
        out["asymptotics.convergence.self_s"] = own["asymptotics.convergence"]
        out["asymptotics.validation_scans"] = c["asymptotics.validation_scans"]
        out["cli.jobs"] = calls["cli.main"]
        out["cli.self_s"] = own["cli.main"]
        layer_self = Counter()
        for name, secs in own.items():
            layer_self[name.split(".", 1)[0]] += secs
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_self[layer]
        out["trace.spans"] = len(self.start)
        return out


# ---------------------------------------------------------------------------
# Wrappers.
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _span_wrapper(tracer, fn, name, hook=None):
    """Wrap fn in a span; name is a string or a function of (args, kwargs)."""
    fixed = tracer.name_id(name) if isinstance(name, str) else None

    def wrapper(*args, **kwargs):
        nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result,
                 tracer.end[idx] - tracer.start[idx])
        return result

    # keeps module and qualified name, by which pickle finds a function
    return functools.update_wrapper(wrapper, fn)


def _generator_wrapper(tracer, fn, name, count_key):
    """Wrap a generator function: one span per resumption, items counted."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = tracer.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            tracer.counts[count_key] += 1
            yield item

    return functools.update_wrapper(wrapper, fn)


def _det_any_wrapper(tracer, fn):
    """Top-level det_any calls only; time and elements per minor order and
    census route.  The scan's minors are full arrays; the filter's echelon
    cells hold constant 0/1 entries that skip most multiplications, so the
    two routes are kept apart."""
    nid = tracer.name_id("vecgf.det_any")
    routes = {tracer.name_id("census.scan"): "vecgf.det_any",
              tracer.name_id("census.filter"): "vecgf.det_any.filter"}
    inside = [False]

    def wrapper(ops, m):
        if inside[0]:
            return fn(ops, m)
        inside[0] = True
        idx = tracer.open(nid)
        try:
            return fn(ops, m)
        finally:
            tracer.close(idx)
            inside[0] = False
            route = next((routes[tracer.name[i]] for i in reversed(tracer.stack)
                          if tracer.name[i] in routes), None)
            if route is not None:
                key = f"{route}.order{len(m)}"
                tracer.times[key] += tracer.end[idx] - tracer.start[idx]
                tracer.counts[f"{key}.elems"] += _candidate_axis(
                    v for row in m for v in row)

    return functools.update_wrapper(wrapper, fn)


def _candidate_axis(values):
    """Length of the shared candidate axis, 1 when every value is a scalar."""
    for v in values:
        shape = getattr(v, "shape", None)
        if shape:
            return int(shape[0])
    return 1


def _counting_method(counts, key, fn):
    def method(*args):
        counts[key] += 1
        return fn(*args)

    return functools.update_wrapper(method, fn)


def _timed_call(fn, *args, **kwargs):
    """Run a pool task in the worker and return (result, run seconds)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _traced_pool_class(tracer, base):
    nid = tracer.name_id("census.pool")

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            tracer.counts["census.pools_started"] += 1
            self._bench_span = tracer.open(nid)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            tracer.counts["census.tasks_submitted"] += 1
            inner = super().submit(_timed_call, fn, *args, **kwargs)
            outer = Future()

            def relay(done):
                if done.cancelled():
                    outer.cancel()
                    outer.set_running_or_notify_cancel()
                    return
                exc = done.exception()
                if exc is not None:
                    outer.set_exception(exc)
                    return
                value, secs = done.result()
                tracer.task_s.append(secs)
                outer.set_result(value)

            inner.add_done_callback(relay)
            return outer

        def shutdown(self, wait=True, *, cancel_futures=False):
            t0 = time.perf_counter()
            try:
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
            finally:
                tracer.times["census.pool_shutdown"] += time.perf_counter() - t0
                tracer.close(self._bench_span)

    TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
    return TracedPool


# ---------------------------------------------------------------------------
# Hooks: counters read from arguments and results.
# ---------------------------------------------------------------------------

def _hook_scan(tracer, args, kwargs, result, dur):
    k, n, gf = args[0], args[1], args[2]
    tracer.counts["census.scan.candidates"] += gf.q ** (k * (n - k))
    if tracer.validate_depth:
        tracer.counts["asymptotics.validation_scans"] += 1


def _hook_filter(tracer, args, kwargs, result, dur):
    from mdscensus.linalg import gaussian_binomial

    k, n, gf = args[0], args[1], args[2]
    tracer.counts["census.filter.points"] += gaussian_binomial(k, n, gf.q)


def _hook_count_all_nonzero(tracer, args, kwargs, result, dur):
    tracer.counts["vecgf.count_all_nonzero.candidates"] += _candidate_axis(args[1])
    tracer.counts["vecgf.count_all_nonzero.survivors"] += result


def _hook_position_arrays(tracer, args, kwargs, result, dur):
    tracer.counts["vecgf.position_arrays.elems"] += sum(a.size for a in result)


def _cache_miss_hook(key, fn, with_bytes=False):
    state = {"misses": fn.cache_info().misses}

    def hook(tracer, args, kwargs, result, dur):
        misses = fn.cache_info().misses
        if misses != state["misses"]:
            tracer.counts[f"{key}.misses"] += misses - state["misses"]
            state["misses"] = misses
            if with_bytes and result is not None:
                tracer.counts[f"{key}.bytes"] += int(result.nbytes)

    return hook


def _hook_build_code(tracer, args, kwargs, result, dur):
    tracer.counts["grassmann_code.build_code.columns"] += result.length


def _hook_weight_spectrum(tracer, args, kwargs, result, dur):
    tracer.counts["grassmann_code.weight_spectrum.codewords"] += sum(result.values())


def _hook_higher_weight(tracer, args, kwargs, result, dur):
    from mdscensus.linalg import gaussian_binomial

    code = args[0]
    r = _arg(args, kwargs, 1, "r")
    mode = _arg(args, kwargs, 2, "mode", "exhaustive")
    subcodes = (gaussian_binomial(r, code.dimension, code.gf.q)
                if mode == "exhaustive" else 1)
    tracer.counts["grassmann_code.higher_weight_search.subcodes"] += subcodes


def _validate_wrapper(tracer, fn):
    """Marks census scans made to validate a closed form."""
    def wrapper(*args, **kwargs):
        tracer.validate_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.validate_depth -= 1

    return functools.update_wrapper(wrapper, fn)


def _method_name(prefix, pos, default):
    def name(args, kwargs):
        method = _arg(args, kwargs, pos, "method", default)
        return f"{prefix}.{str(method).replace('-', '_')}"

    return name


# ---------------------------------------------------------------------------
# Installation.
# ---------------------------------------------------------------------------

def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "mdscensus" or name.startswith("mdscensus."))]


def install(tracer):
    """Wrap every layer's public functions for the rest of this process."""
    import mdscensus.asymptotics as asymptotics
    import mdscensus._vecgf as vecgf
    import mdscensus.census as census
    import mdscensus.cli as cli
    import mdscensus.exterior as exterior
    import mdscensus.fields as fields
    import mdscensus.grassmann_code as grassmann_code
    import mdscensus.linalg as linalg
    import mdscensus.sections as sections

    wrappers = [
        (fields.make_field, _span_wrapper(
            tracer, fields.make_field, "fields.make_field",
            _cache_miss_hook("fields.make_field", fields.make_field))),
        (vecgf.count_all_nonzero, _span_wrapper(
            tracer, vecgf.count_all_nonzero, "vecgf.count_all_nonzero",
            _hook_count_all_nonzero)),
        (vecgf.det_any, _det_any_wrapper(tracer, vecgf.det_any)),
        (vecgf.position_arrays, _span_wrapper(
            tracer, vecgf.position_arrays, "vecgf.position_arrays",
            _hook_position_arrays)),
        (vecgf.plucker_matrix, _span_wrapper(
            tracer, vecgf.plucker_matrix, "vecgf.plucker_matrix",
            _cache_miss_hook("vecgf.plucker_matrix", vecgf.plucker_matrix,
                             with_bytes=True))),
        (vecgf.form_values, _span_wrapper(
            tracer, vecgf.form_values, "vecgf.form_values")),
        (linalg.enumerate_grassmannian, _generator_wrapper(
            tracer, linalg.enumerate_grassmannian,
            "linalg.enumerate_grassmannian",
            "linalg.enumerate_grassmannian.points")),
        (linalg.rank, _span_wrapper(tracer, linalg.rank, "linalg.rank")),
        (linalg.minor, _span_wrapper(tracer, linalg.minor, "linalg.minor")),
        (exterior.form_weight, _span_wrapper(
            tracer, exterior.form_weight,
            _method_name("exterior.form_weight", 1, "direct"))),
        (exterior.interior_mult, _span_wrapper(
            tracer, exterior.interior_mult, "exterior.interior_mult")),
        (exterior.plucker_embed, _span_wrapper(
            tracer, exterior.plucker_embed, "exterior.plucker_embed")),
        (exterior.satisfies_plucker, _span_wrapper(
            tracer, exterior.satisfies_plucker, "exterior.satisfies_plucker")),
        (census.count_mds_matrix_scan, _span_wrapper(
            tracer, census.count_mds_matrix_scan, "census.scan", _hook_scan)),
        (census.count_mds_grassmannian_filter, _span_wrapper(
            tracer, census.count_mds_grassmannian_filter, "census.filter",
            _hook_filter)),
        (census.ProcessPoolExecutor,
         _traced_pool_class(tracer, census.ProcessPoolExecutor)),
        (sections.section_norm, _span_wrapper(
            tracer, sections.section_norm,
            _method_name("sections.section_norm", 1, "point-scan"))),
        (sections.support_mask_counts, _span_wrapper(
            tracer, sections.support_mask_counts, "sections.support_mask_counts")),
        (sections.inclusion_exclusion, _span_wrapper(
            tracer, sections.inclusion_exclusion, "sections.inclusion_exclusion")),
        (grassmann_code.build_code, _span_wrapper(
            tracer, grassmann_code.build_code, "grassmann_code.build_code",
            _hook_build_code)),
        (grassmann_code.weight_spectrum, _span_wrapper(
            tracer, grassmann_code.weight_spectrum,
            "grassmann_code.weight_spectrum", _hook_weight_spectrum)),
        (grassmann_code.higher_weight_search, _span_wrapper(
            tracer, grassmann_code.higher_weight_search,
            "grassmann_code.higher_weight_search", _hook_higher_weight)),
        (asymptotics.convergence, _span_wrapper(
            tracer, asymptotics.convergence, "asymptotics.convergence")),
        (asymptotics._validated_oracle_gamma, _validate_wrapper(
            tracer, asymptotics._validated_oracle_gamma)),
        (cli.main, _span_wrapper(tracer, cli.main, "cli.main")),
    ]
    modules = _package_modules()
    for original, wrapper in wrappers:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    for op in ("add", "sub", "mul", "neg", "inv"):
        setattr(fields.GF, op, _counting_method(
            tracer.counts, "fields.gf_ops", fields.GF.__dict__[op]))
