"""Outside-in span recorder for the stwm benchmark.

The tracer never edits the library. For the duration of one traced op it
replaces the module attributes that stwm's own callers look up (for example
``stwm.sampler.gram`` or ``stwm.kernel.integrate``) with wrappers that record
a span per call, then puts the originals back. A span is
``[name, start, end, parent, op]``; parents come from a per-thread stack, and
spans opened on a worker thread whose stack is empty are parented to the span
open on the thread that runs the op (this is how the ``threads`` pool of
``sample_modes`` is attributed). Spans are kept in memory and written out by
the caller at the end of the run; ``layer_summary`` derives self times from
them.

Counters that the library does not expose are derived from the wrapped calls'
arguments and results: integrand evaluations (panels), distinct Gram keys,
Cholesky jitter and sizes, assembly sizes and field-file sizes.
"""

import os
import threading
import time
from collections import defaultdict

ROOT_SPAN = "op"

# (module, attribute, span name). One span name may cover several lookup
# sites of the same function.
TARGETS = (
    ("cli", "main", "cli"),
    ("cli", "model_from_dict", "spectral.model_from_dict"),
    ("sampler", "sample_modes", "sampler.sample_modes"),
    ("sampler", "gram", "sampler.gram"),
    ("sampler", "cholesky_psd", "sampler.cholesky_psd"),
    ("sampler", "assemble_field", "sampler.assemble_field"),
    ("sampler", "uniform_mode_gram", "sampler.uniform_mode_gram"),
    ("sampler", "fractional_convolution", "sampler.fractional_convolution"),
    ("sampler", "factorized_covariance", "sampler.factorized_covariance"),
    ("sampler", "factorized_sample", "sampler.factorized_sample"),
    ("sampler", "mode_cov", "kernel.mode_cov"),
    ("analysis", "mode_cov", "kernel.mode_cov"),
    ("analysis", "field_cov", "analysis.field_cov"),
    ("kernel", "integrate", "quadrature.integrate"),
    ("sampler", "evaluate_basis", "spectral.evaluate_basis"),
    ("analysis", "evaluate_basis", "spectral.evaluate_basis"),
    ("sampler", "lower_incomplete_gamma", "specfun.lower_incomplete_gamma"),
    ("fieldfile", "write_field", "fieldfile.write_field"),
)


class Tracer:
    """Records spans and derived counters for ops run inside ``traced_op``."""

    def __init__(self, stwm_modules: dict):
        self.modules = stwm_modules
        self.spans = []
        self.cpu = {}  # span index -> thread CPU seconds (sample_modes spans only)
        self.counters = defaultdict(float)
        self.absent = sorted({f"{m}.{a}" for m, a, _ in TARGETS if not hasattr(stwm_modules[m], a)})
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack = None
        self._gram_keys = set()

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn, on_return=None, cpu=False):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                op_stack = tracer._op_stack
                parent = op_stack[-1] if op_stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, tracer.op]
            c0 = time.thread_time() if cpu else 0.0
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if cpu:
                    tracer.cpu[idx] = time.thread_time() - c0
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    # -- counters derived from arguments and results ---------------------

    def _on_gram(self, args, kwargs, out):
        k = args[0]
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        with self._lock:
            self._gram_keys.add((k.mu, k.gamma, grid.points.tobytes()))

    def _on_cholesky(self, args, kwargs, out):
        G = args[0]
        jitter = float(getattr(G, "jitter_applied", 0.0))
        matrix = getattr(G, "matrix", G)
        n = int((matrix.diagonal() > 0.0).sum())  # the factored (alive) block
        with self._lock:
            self.counters["sampler.cholesky_psd.flop"] += n ** 3 / 3.0
            self.counters["sampler.cholesky_psd.jittered"] += jitter > 0.0
            self.counters["sampler.cholesky_psd.jitter_max"] = max(
                self.counters["sampler.cholesky_psd.jitter_max"], jitter)

    def _on_sample_modes(self, args, kwargs, out):
        threads = args[5] if len(args) > 5 else kwargs.get("threads", 1)
        self.add("sampler.normals", out.size)
        with self._lock:
            self.counters["sampler.sample_modes.threads"] = max(
                self.counters["sampler.sample_modes.threads"], max(1, int(threads)))

    def _on_assemble(self, args, kwargs, out):
        n_paths, J, n_times = args[0].shape
        self.add("sampler.assemble_field.flop", 2.0 * n_paths * J * n_times * out.values.shape[2])

    def _on_mode_cov(self, args, kwargs, out):
        if out == 0.0:
            self.add("kernel.mode_cov.zeros", 1)

    def _on_write_field(self, args, kwargs, out):
        self.add("fieldfile.write_field.bytes", os.path.getsize(args[0]))

    def _counting_integrate(self, traced_integrate):
        tracer = self

        def integrate(f, *args, **kwargs):
            calls = [0]

            def counted(x):
                calls[0] += 1
                return f(x)

            try:
                return traced_integrate(counted, *args, **kwargs)
            finally:
                tracer.add("quadrature.integrate.panels", calls[0])

        return integrate

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def map(pool, fn, *iterables, **kwargs):
                return base.map(pool, tracer._wrap("sampler.sample_modes", fn, cpu=True),
                                *iterables, **kwargs)

        return TracedPool

    def _replacements(self):
        hooks = {
            "sampler.gram": self._on_gram,
            "sampler.cholesky_psd": self._on_cholesky,
            "sampler.sample_modes": self._on_sample_modes,
            "sampler.assemble_field": self._on_assemble,
            "kernel.mode_cov": self._on_mode_cov,
            "fieldfile.write_field": self._on_write_field,
        }
        for mod_name, attr, span in TARGETS:
            module = self.modules[mod_name]
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span, original, hooks.get(span), cpu=span == "sampler.sample_modes")
            if span == "quadrature.integrate":
                wrapped = self._counting_integrate(wrapped)
            yield module, attr, original, wrapped
        sampler = self.modules["sampler"]
        if hasattr(sampler, "ThreadPoolExecutor"):
            pool = sampler.ThreadPoolExecutor
            yield sampler, "ThreadPoolExecutor", pool, self._traced_pool(pool)

    # -- op scope -------------------------------------------------------

    def traced_op(self, op_id: int, fn):
        """Run fn() as op op_id with every target wrapped; returns fn()."""
        patches = list(self._replacements())
        for module, attr, _, wrapped in patches:
            setattr(module, attr, wrapped)
        self.op = op_id
        self._gram_keys = set()
        self._op_stack = self._stack()
        try:
            return self._wrap(ROOT_SPAN, fn)()
        finally:
            for module, attr, original, _ in patches:
                setattr(module, attr, original)
            self.op = -1
            self._op_stack = None
            self.add("sampler.gram.distinct", len(self._gram_keys))

    def dump(self) -> dict:
        return {"spans": self.spans, "cpu": {str(k): v for k, v in self.cpu.items()},
                "counters": dict(self.counters), "absent": self.absent}


# -- analysis of recorded spans ----------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_summary(trace: dict) -> dict:
    """Self time, call count and wall time per span name, from a dump().

    A span's self time is its duration minus the part of its interval that
    its child spans cover; busy time of a layer is summed over threads."""
    spans = trace["spans"]
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    calls = defaultdict(int)
    for idx, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - _covered(children.get(idx, ()), start, end)
        wall_s[name] += end - start
        calls[name] += 1
    return {"self_s": dict(self_s), "wall_s": dict(wall_s), "calls": dict(calls)}


def thread_busy_ratio(trace: dict) -> float:
    """CPU seconds spent in sample_modes spans on all threads, over the
    thread-seconds available to sample_modes (wall time x pool size)."""
    spans = trace["spans"]
    name = "sampler.sample_modes"
    outer = [i for i, s in enumerate(spans)
             if s[0] == name and (s[3] < 0 or spans[s[3]][0] != name)]
    wall = sum(spans[i][2] - spans[i][1] for i in outer)
    slots = max(1.0, trace["counters"].get("sampler.sample_modes.threads", 1.0))
    cpu = sum(float(v) for v in trace["cpu"].values())
    return cpu / (slots * wall) if wall > 0.0 else 0.0
