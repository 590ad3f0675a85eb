"""Run-time tracing of the package's layers, installed from outside.

``install`` wraps public functions and methods of the package in place:
every module-level name bound to a wrapped function is rebound, so names
other modules imported with ``from ... import`` are covered too. Nothing
under ``src/`` changes. A target the package no longer has is skipped,
and every metric that needs it reads as absent (None).

Spans are (name, start, end, parent, operation) tuples kept in a list
until the pass ends. A span's self time is its duration minus the time
its child spans cover. Hot leaf calls (permutation composition) are only
counted, since a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute path)
SPAN_TARGETS = (
    ("group_ring.mul", "group_ring", "GroupRingElement.__mul__"),
    ("group_ring.right_ideal_rank", "group_ring", "GroupRingElement.right_ideal_rank"),
    ("group_ring.is_essentially_idempotent", "group_ring", "GroupRingElement.is_essentially_idempotent"),
    ("group_ring.embed", "group_ring", "GroupRingElement.embed"),
    ("group_ring.star", "group_ring", "GroupRingElement.star"),
    ("group_ring.stabilizer_symmetrizer", "group_ring", "stabilizer_symmetrizer"),
    ("linalg.rowbasis.add", "linalg", "RowBasis.add"),
    ("linalg.solve_columns", "linalg", "solve_columns"),
    ("linalg.mat_add", "linalg", "mat_add"),
    ("linalg.mat_scale", "linalg", "mat_scale"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("linalg.mat_transpose", "linalg", "mat_transpose"),
    ("linalg.trace_of_product", "linalg", "trace_of_product"),
    ("tableaux.young_symmetrizer", "tableaux", "young_symmetrizer"),
    ("tableaux.curvature_tableau", "tableaux", "curvature_tableau"),
    ("tableaux.standard_tableaux", "tableaux", "standard_tableaux"),
    ("tableaux.hook_dimension", "tableaux", "hook_dimension"),
    ("tableaux.weyl_dimension", "tableaux", "weyl_dimension"),
    ("tableaux.apply", "tableaux", "YoungTableau.apply"),
    ("tableaux.horizontal_group", "tableaux", "YoungTableau.horizontal_group"),
    ("tableaux.vertical_group", "tableaux", "YoungTableau.vertical_group"),
    ("dft.fourier_transform", "dft", "fourier_transform"),
    ("dft.inverse_fourier", "dft", "inverse_fourier"),
    ("dft.natural_rep_matrix", "dft", "natural_rep_matrix"),
    ("dft.fourier_xi", "dft", "fourier_xi"),
    ("dft.fourier_eta", "dft", "fourier_eta"),
    ("littlewood_richardson.lr_product", "littlewood_richardson", "lr_product"),
    ("littlewood_richardson.induced_ideal_multiplicities", "littlewood_richardson",
     "induced_ideal_multiplicities"),
    ("littlewood_richardson.admissible_pairs", "littlewood_richardson", "admissible_pairs"),
    ("tensor.apply_operator", "tensor", "apply_operator"),
    ("tensor.is_acdc", "tensor", "is_acdc"),
    ("tensor.is_algebraic_curvature", "tensor", "is_algebraic_curvature"),
    ("tensor.projector_rank", "tensor", "projector_rank"),
    ("tensor.generator_span_rank", "tensor", "generator_span_rank"),
    ("tensor.tensor_product", "tensor", "tensor_product"),
    ("tensor.gamma_hat", "tensor", "gamma_hat"),
    ("verify.check_xi_half_is_f", "verify", "check_xi_half_is_f"),
    ("verify.check_admissible_pairs", "verify", "check_admissible_pairs"),
    ("verify.check_sigma_nonzero", "verify", "check_sigma_nonzero"),
    ("verify.check_dichotomy", "verify", "check_dichotomy"),
    ("verify.check_gamma_hat_generators", "verify", "check_gamma_hat_generators"),
    ("verify.check_mixed_class_generators", "verify", "check_mixed_class_generators"),
    ("cli.main", "cli", "main"),
)

# (counter name, module, attribute path): counted, no span.
COUNT_TARGETS = (
    ("permutation.compose", "permutation", "Permutation.__mul__"),
)

LAYERS = ("group_ring", "linalg", "tableaux", "dft", "littlewood_richardson",
          "tensor", "verify", "cli")

MAT_OPS = ("linalg.mat_add", "linalg.mat_scale", "linalg.mat_mul",
           "linalg.mat_transpose", "linalg.trace_of_product")

SPECHT_CACHE = "symcurv.dft._specht_matrix"
SLOT_LOOKUP_CACHE = "symcurv.tensor._slot_lookup"


def _support(element) -> int:
    return sum(1 for c in element.coeffs if c)


def _mul_counts(a, b):
    if hasattr(b, "coeffs"):
        yield "group_ring.mul.pair_products", _support(a) * _support(b)


def _apply_counts(a, t):
    terms = _support(a)
    yield "tensor.apply_operator.term_coords", terms * len(t.coords)
    yield "tensor.apply_operator.input_nonzeros", terms * sum(1 for c in t.coords if c)


SPAN_COUNTS = {"group_ring.mul": _mul_counts, "tensor.apply_operator": _apply_counts}


class Tracer:
    """Holds the spans and counters of one pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.installed: set[str] = set()

    def span(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        extra = SPAN_COUNTS.get(name)
        kept = "linalg.rowbasis.rows_kept" if name == "linalg.rowbasis.add" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                for key, value in extra(*args, **kwargs):
                    counts[key] += value
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, tracer.op)
            if kept is not None and result:
                counts[kept] += 1
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


def install(package_modules: dict, tracer: Tracer) -> None:
    """Wrap every target found in the package's modules."""
    targets = [(name, module, path, tracer.span) for name, module, path in SPAN_TARGETS]
    targets += [(name, module, path, tracer.counter) for name, module, path in COUNT_TARGETS]
    for name, module_name, path, make in targets:
        module = package_modules.get(module_name)
        owner, attr = _resolve(module, path) if module is not None else (None, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            continue
        wrapped = make(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            for mod in package_modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        tracer.installed.add(name)


def cache_functions(package_modules: dict) -> dict:
    """Every lru_cache defined in the package, by qualified name."""
    found = {}
    for mod in package_modules.values():
        for key, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)) and getattr(value, "__module__", None) == mod.__name__:
                found[f"{mod.__name__}.{key}"] = value
    return found


def cache_state(caches: dict) -> dict:
    out = {}
    for name, fn in sorted(caches.items()):
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses,
                     "currsize": info.currsize, "maxsize": info.maxsize}
    return out


def aggregate(spans: list) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[index]
    return {name: {"calls": c, "incl_s": i, "self_s": s} for name, (c, i, s) in stats.items()}


# (metric name, unit, better); trace.overhead_s is filled in by run.py.
LAYER_METRICS = (
    ("permutation.compose.calls", "count", "lower"),
    ("group_ring.mul.calls", "count", "lower"),
    ("group_ring.mul.self_s", "s", "lower"),
    ("group_ring.mul.pair_products", "count", "lower"),
    ("group_ring.right_ideal_rank.self_s", "s", "lower"),
    ("linalg.rowbasis.rows_offered", "count", "lower"),
    ("linalg.rowbasis.rows_kept", "count", "lower"),
    ("linalg.rowbasis.useful_ratio", "ratio", "higher"),
    ("linalg.rowbasis.self_s", "s", "lower"),
    ("linalg.solve_columns.calls", "count", "lower"),
    ("linalg.solve_columns.self_s", "s", "lower"),
    ("linalg.mat_ops.self_s", "s", "lower"),
    ("tableaux.young_symmetrizer.self_s", "s", "lower"),
    ("dft.fourier_transform.calls", "count", "lower"),
    ("dft.fourier_transform.self_s", "s", "lower"),
    ("dft.inverse_fourier.self_s", "s", "lower"),
    ("dft.natural_rep_matrix.calls", "count", "lower"),
    ("dft.natural_rep_matrix.self_s", "s", "lower"),
    ("dft.specht_cache.entries", "count", "lower"),
    ("dft.specht_cache.hit_ratio", "ratio", "higher"),
    ("littlewood_richardson.lr_product.self_s", "s", "lower"),
    ("littlewood_richardson.induced_ideal_multiplicities.self_s", "s", "lower"),
    ("tensor.apply_operator.calls", "count", "lower"),
    ("tensor.apply_operator.self_s", "s", "lower"),
    ("tensor.apply_operator.term_coords", "count", "lower"),
    ("tensor.apply_operator.input_nonzeros", "count", "lower"),
    ("tensor.identity_checks.self_s", "s", "lower"),
    ("tensor.projector_rank.self_s", "s", "lower"),
    ("tensor.generator_span_rank.self_s", "s", "lower"),
    ("tensor.tensor_product.self_s", "s", "lower"),
    ("tensor.slot_lookup_cache.entries", "count", "lower"),
    ("verify.xi_half_s", "s", "lower"),
    ("verify.admissible_pairs_s", "s", "lower"),
    ("verify.sigma_nonzero_s", "s", "lower"),
    ("verify.dichotomy_s", "s", "lower"),
    ("verify.gamma_hat_generators_s", "s", "lower"),
    ("verify.mixed_class_generators_s", "s", "lower"),
    ("cli.verify_only_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, caches: dict) -> dict:
    """Every LAYER_METRICS value except trace.overhead_s; None when absent."""
    stats = aggregate(tracer.spans)
    installed, counts = tracer.installed, tracer.counts

    def field(key, *names):
        if not all(n in installed for n in names):
            return None
        return sum(stats.get(n, {}).get(key, 0) for n in names)

    def count(key, needs):
        return counts.get(key, 0) if needs in installed else None

    def cache(name):
        return caches[name].cache_info() if name in caches else None

    offered = field("calls", "linalg.rowbasis.add")
    kept = count("linalg.rowbasis.rows_kept", "linalg.rowbasis.add")
    specht = cache(SPECHT_CACHE)
    slot = cache(SLOT_LOOKUP_CACHE)
    out = {
        "permutation.compose.calls": count("permutation.compose", "permutation.compose"),
        "group_ring.mul.calls": field("calls", "group_ring.mul"),
        "group_ring.mul.self_s": field("self_s", "group_ring.mul"),
        "group_ring.mul.pair_products": count("group_ring.mul.pair_products", "group_ring.mul"),
        "group_ring.right_ideal_rank.self_s": field("self_s", "group_ring.right_ideal_rank"),
        "linalg.rowbasis.rows_offered": offered,
        "linalg.rowbasis.rows_kept": kept,
        "linalg.rowbasis.useful_ratio": None if offered is None else (kept / offered if offered else 0.0),
        "linalg.rowbasis.self_s": field("self_s", "linalg.rowbasis.add"),
        "linalg.solve_columns.calls": field("calls", "linalg.solve_columns"),
        "linalg.solve_columns.self_s": field("self_s", "linalg.solve_columns"),
        "linalg.mat_ops.self_s": field("self_s", *MAT_OPS),
        "tableaux.young_symmetrizer.self_s": field("self_s", "tableaux.young_symmetrizer"),
        "dft.fourier_transform.calls": field("calls", "dft.fourier_transform"),
        "dft.fourier_transform.self_s": field("self_s", "dft.fourier_transform"),
        "dft.inverse_fourier.self_s": field("self_s", "dft.inverse_fourier"),
        "dft.natural_rep_matrix.calls": field("calls", "dft.natural_rep_matrix"),
        "dft.natural_rep_matrix.self_s": field("self_s", "dft.natural_rep_matrix"),
        "dft.specht_cache.entries": None if specht is None else specht.currsize,
        "dft.specht_cache.hit_ratio": None if specht is None else (
            specht.hits / (specht.hits + specht.misses) if specht.hits + specht.misses else 0.0),
        "littlewood_richardson.lr_product.self_s": field("self_s", "littlewood_richardson.lr_product"),
        "littlewood_richardson.induced_ideal_multiplicities.self_s":
            field("self_s", "littlewood_richardson.induced_ideal_multiplicities"),
        "tensor.apply_operator.calls": field("calls", "tensor.apply_operator"),
        "tensor.apply_operator.self_s": field("self_s", "tensor.apply_operator"),
        "tensor.apply_operator.term_coords": count("tensor.apply_operator.term_coords", "tensor.apply_operator"),
        "tensor.apply_operator.input_nonzeros":
            count("tensor.apply_operator.input_nonzeros", "tensor.apply_operator"),
        "tensor.identity_checks.self_s": field("self_s", "tensor.is_acdc", "tensor.is_algebraic_curvature"),
        "tensor.projector_rank.self_s": field("self_s", "tensor.projector_rank"),
        "tensor.generator_span_rank.self_s": field("self_s", "tensor.generator_span_rank"),
        "tensor.tensor_product.self_s": field("self_s", "tensor.tensor_product"),
        "tensor.slot_lookup_cache.entries": None if slot is None else slot.currsize,
        "verify.xi_half_s": field("incl_s", "verify.check_xi_half_is_f"),
        "verify.admissible_pairs_s": field("incl_s", "verify.check_admissible_pairs"),
        "verify.sigma_nonzero_s": field("incl_s", "verify.check_sigma_nonzero"),
        "verify.dichotomy_s": field("incl_s", "verify.check_dichotomy"),
        "verify.gamma_hat_generators_s": field("incl_s", "verify.check_gamma_hat_generators"),
        "verify.mixed_class_generators_s": field("incl_s", "verify.check_mixed_class_generators"),
        "cli.verify_only_s": field("incl_s", "cli.main"),
    }
    for layer in LAYERS:
        names = [n for n, _, _ in SPAN_TARGETS if n.startswith(layer + ".") and n in installed]
        out[f"{layer}.self_s"] = field("self_s", *names) if names else None
    return out


def write_spans(path, spans: list) -> None:
    """One JSON document: span names once, then rows of
    [name index, start, end, parent, operation]."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[n], start, end, parent, op] for n, start, end, parent, op in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "names": names, "spans": rows}, handle)
