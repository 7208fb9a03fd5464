"""Spans and kernel counts for the traced run, installed from outside.

The tracer replaces chosen renyidpi functions and methods with wrappers
that record a span per call, and chosen numpy kernels with wrappers that
count calls into the innermost open span of the calling thread. Modules
bind functions by name (`from .linalg import matrix_power_psd`), so a
function is replaced at every module attribute that holds it, not only in
the module that defines it. `remove()` puts every original back.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# Wrapped program functions, by defining module. A dotted name is a method
# (or, for a bare class name, the class's __init__).
SPANNED = {
    "linalg": ("matrix_power_psd", "hermitian_eig", "product_power"),
    "quantum": ("DensityMatrix", "DensityMatrix.power", "KrausChannel.apply_density",
                "random_density"),
    "modular": ("jensen_commutator_norm", "CompressionIsometry", "quadratic_form"),
    "divergence": ("variational_value", "closed_form_optimizer", "integral_power_quadrature",
                   "sandwiched_renyi", "petz_renyi", "relative_entropy", "dpi_gap"),
    "equality": ("full_report", "t3_residual", "petz_beta_residual", "t1_residual",
                 "t1_geo_residual", "necessary1_residual", "necessary2_residual",
                 "recovery_error", "build_recoverable_triple"),
    "cli": ("run", "emit"),
}

# Counted (not spanned) calls: numpy kernels, and the spectral apply that
# tells a DensityMatrix.power cache miss from a hit.
KERNELS = ("eigh", "eigvalsh", "inv", "svd")
APPLY = "SpectralDecomposition.apply"


class Span:
    __slots__ = ("name", "parent", "scan", "thread", "start", "end", "counts")

    def __init__(self, name, parent, scan, thread, start):
        self.name = name
        self.parent = parent
        self.scan = scan
        self.thread = thread
        self.start = start
        self.end = None
        self.counts = None

    def add(self, key, amount=1):
        if self.counts is None:
            self.counts = Counter()
        self.counts[key] += amount


class Tracer:
    """Records spans of wrapped calls while installed.

    Each thread keeps its own span stack. A span opened on a thread with an
    empty stack (a worker of cli.run's pool) takes the open `cli.run` span
    as its parent, so worker spans nest under their scan.
    """

    def __init__(self):
        self.spans: list[Span] = []     # finished spans, children before parents
        self.scan = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._anchor: Span | None = None
        self._loose = Span("(no span)", None, -1, 0, 0.0)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _count(self, key, amount=1):
        stack = self._stack()
        if stack:
            stack[-1].add(key, amount)
            return
        # The anchor and the loose span are shared between threads.
        with self._lock:
            (self._anchor or self._loose).add(key, amount)

    def wrap(self, fn, name: str, anchor: bool = False):
        """Wrapper that records one span per call of fn."""
        stack_of = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self._anchor
            span = Span(name, parent, self.scan, threading.get_ident(), clock())
            stack.append(span)
            if anchor:
                outer, self._anchor = self._anchor, span
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if anchor:
                    self._anchor = outer
                spans.append(span)  # list.append is atomic under the GIL

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, key: str, nbytes: bool = False):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._count(key)
            if nbytes:
                self._count(key + "_bytes", out.nbytes)
            return out

        counted.__wrapped__ = fn
        return counted

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap every SPANNED function at each module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for mod_name, names in SPANNED.items():
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            for name in names:
                owner_name, _, method = name.partition(".")
                span_name = f"{mod_name}.{name}"
                if not method and isinstance(getattr(module, name), type):
                    owner_name, method = name, "__init__"
                if method:
                    cls = getattr(module, owner_name)
                    self._patch(cls, method, self.wrap(vars(cls)[method], span_name))
                    continue
                original = getattr(module, name)
                wrapper = self.wrap(original, span_name, anchor=(span_name == "cli.run"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        linalg = sys.modules[f"{package.__name__}.linalg"]
        self._patch(linalg.SpectralDecomposition, "apply",
                    self._counted(linalg.SpectralDecomposition.apply, APPLY))
        for kernel in KERNELS:
            self._patch(np.linalg, kernel, self._counted(getattr(np.linalg, kernel), kernel))
        self._patch(np, "kron", self._counted(np.kron, "kron", nbytes=True))

    def remove(self) -> list[str]:
        """Restore every patched attribute; return those not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches if vars(owner)[attr] is not original]
        self._patches.clear()
        return left

    # -- reading ---------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same scans."""
        out: Counter = Counter()
        for span in self.spans:
            out["calls:" + span.name] += 1
            if span.counts:
                out.update({f"{span.name}:{k}": v for k, v in span.counts.items()})
        out.update({f"(no span):{k}": v for k, v in (self._loose.counts or {}).items()})
        return dict(out)

    def stats(self) -> "SpanStats":
        return SpanStats(self.spans, self._loose)

    def write(self, path) -> None:
        """Write the spans as CSV: one line per span, parents by line id."""
        ids = {span: i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            handle.write("id,parent,name,scan,thread,start_s,end_s,counts\n")
            for span, i in ids.items():
                parent = ids.get(span.parent, "")
                counts = ";".join(f"{k}={v}" for k, v in sorted((span.counts or {}).items()))
                handle.write(f"{i},{parent},{span.name},{span.scan},{span.thread},"
                             f"{span.start:.9f},{span.end:.9f},{counts}\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanStats:
    """Per-name totals over finished spans: calls, time, self time, counts.

    Self time is a span's duration minus the union of the intervals its
    children cover, so overlapping worker spans under cli.run are not
    subtracted twice. Inclusive counts add every descendant's counts.
    """

    def __init__(self, spans: list[Span], loose: Span):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.inclusive: dict[str, Counter] = defaultdict(Counter)
        self.kernels: Counter = Counter(loose.counts or {})
        self.top_level_seconds = 0.0   # spans directly under cli.run, any thread
        self.power_hits = 0

        children: dict[Span, list[tuple[float, float]]] = defaultdict(list)
        below: dict[Span, Counter] = defaultdict(Counter)
        for span in spans:  # children finish, and are listed, before parents
            own = span.counts or Counter()
            self.kernels.update(own)
            inclusive = below.pop(span, Counter())
            inclusive.update(own)
            duration = span.end - span.start
            self.calls[span.name] += 1
            self.seconds[span.name] += duration
            self.self_seconds[span.name] += duration - _union_length(children.pop(span, []))
            self.inclusive[span.name].update(inclusive)
            if span.name == "quantum.DensityMatrix.power" and not own.get(APPLY):
                self.power_hits += 1
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
                below[span.parent].update(inclusive)
                if span.parent.name == "cli.run":
                    self.top_level_seconds += duration

    def mean(self, name: str, scale: float) -> float:
        calls = self.calls[name]
        return self.seconds[name] / calls * scale if calls else 0.0

    def per_call(self, name: str, key: str) -> float:
        calls = self.calls[name]
        return self.inclusive[name][key] / calls if calls else 0.0
