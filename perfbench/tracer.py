"""Spans around calls into framecert and the numerical libraries it uses.

The tracer wraps functions from the outside: it replaces a name in every
framecert module that binds it, because ``from .core import r_matrix`` makes
a second binding that patching ``core.r_matrix`` alone would miss.  Nothing
under ``src/`` changes.

A span is a list ``[name, start, end, parent, op, note]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation the span
belongs to, and ``note`` an optional number recorded from the call (batch
size, iteration count, a flag).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

FRAMECERT_MODULES = (
    "framecert", "framecert.core", "framecert.certify", "framecert.stability",
    "framecert.constructions", "framecert.frameio", "framecert.cli",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, value: float) -> None:
        """Add to a counter measured outside any span."""
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name, fn, args=(), kwargs=None, note=None):
        """Call ``fn`` inside a span; ``note(args, kwargs, result)`` may
        return a number kept with the span."""
        kwargs = kwargs or {}
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if note is not None:
            span[5] = note(args, kwargs, result)
        return result

    def adopt(self, spans: list[list], under: int) -> None:
        """Append spans recorded by another process, placing its top-level
        spans under span index ``under``.  ``perf_counter`` reads the
        system-wide monotonic clock on Linux, so the times are comparable."""
        base = len(self.spans)
        for name, t0, t1, parent, _op, note in spans:
            self.spans.append([name, t0, t1, under if parent < 0 else base + parent,
                               self.op, note])


def _batch_size(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return int(a.size // (a.shape[-1] * a.shape[-2]))


def _argument_note(fn, name):
    signature = inspect.signature(fn)

    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return note


def _is_false(args, kwargs, result):
    return 0 if result else 1


def _is_not_none(args, kwargs, result):
    return 0 if result is None else 1


def _nit(args, kwargs, result):
    return int(getattr(result, "nit", 0))


def _wrapper(tracer, name, fn, note):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note)
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function; return the undo list for ``uninstall``.

    ``scipy.optimize.minimize`` is wrapped on ``scipy.optimize`` only when
    that module is already loaded: the sampling oracle imports it inside the
    function body, so the lookup happens there at call time.
    """
    import numpy
    from framecert import certify, constructions, core, frameio, stability

    undo: list[tuple] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_everywhere(module, attr, note=None):
        fn = getattr(module, attr)
        new = _wrapper(tracer, f"{module.__name__.split('.')[-1]}.{attr}", fn, note)
        for modname in FRAMECERT_MODULES:
            mod = sys.modules.get(modname)
            if mod is not None and mod.__dict__.get(attr) is fn:
                patch(mod, attr, new)

    for module, attrs in (
        (core, ("r_matrix", "l_matrix", "rank_by_svd", "frame_bounds")),
        (certify, ("certify_complex", "certify_real", "complement_property",
                   "rank_kernel_check")),
        (stability, ("stability_experiment", "stability_radius", "perturb_frame",
                     "l_matrix_gap_audit")),
        (constructions, ("bodmann_hammen", "random_frame", "trivial_non_retrievable",
                         "connect_frames")),
        (frameio, ("load_frame", "frame_to_dict")),
    ):
        for attr in attrs:
            wrap_everywhere(module, attr)
    wrap_everywhere(certify, "estimate_a0", _argument_note(certify.estimate_a0, "max_iter"))
    wrap_everywhere(certify, "magnitude_separation_check", _is_false)
    wrap_everywhere(certify, "injectivity_sampling_oracle", _is_not_none)

    from_frame = core.RealifiedFrame.__dict__["from_frame"].__func__
    patch(core.RealifiedFrame, "from_frame", classmethod(
        lambda cls, fr: tracer.call("core.RealifiedFrame.from_frame", from_frame, (cls, fr))))

    linalg = numpy.linalg
    patch(linalg, "eigh", _wrapper(tracer, "lapack.eigh", linalg.eigh, _batch_size))
    patch(linalg, "eigvalsh", _wrapper(tracer, "lapack.eigvalsh", linalg.eigvalsh, None))
    patch(linalg, "svd", _wrapper(tracer, "lapack.svd", linalg.svd, None))
    optimize = sys.modules.get("scipy.optimize")
    if optimize is not None:
        patch(optimize, "minimize", _wrapper(tracer, "scipy.minimize", optimize.minimize, _nit))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, t0, t1, parent, _op, _note in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_name, t0, t1, _parent, _op, _note) in enumerate(spans):
        covered = 0.0
        reach = t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals: ``<name>.calls``, ``.busy_s`` (summed duration) and
    ``.self_s`` for every span name, plus the solver counters of
    ``estimate_a0`` derived from the ``eigh`` calls directly inside it:
    ``.iterations`` (two block solves per iteration), ``.hit_max_iter`` and
    ``.block_solves`` (the summed batch sizes)."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + (span[2] - span[1])
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
    eighs: dict[int, list[int]] = {}
    for name, _t0, _t1, parent, _op, note in spans:
        if name == "lapack.eigh" and parent >= 0 and spans[parent][0] == "certify.estimate_a0":
            eighs.setdefault(parent, []).append(note)
    iterations = hit = solves = 0
    for i, span in enumerate(spans):
        if span[0] == "certify.estimate_a0":
            batches = eighs.get(i, [])
            iterations += len(batches) // 2
            hit += int(len(batches) // 2 == span[5])
            solves += sum(batches)
    out["certify.estimate_a0.iterations"] = iterations
    out["certify.estimate_a0.hit_max_iter"] = hit
    out["certify.estimate_a0.block_solves"] = solves
    for name, key in (("certify.magnitude_separation_check", "violations"),
                      ("certify.injectivity_sampling_oracle", "found"),
                      ("scipy.minimize", "nit")):
        out[f"{name}.{key}"] = sum(s[5] or 0 for s in spans if s[0] == name)
    return out


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    value there; with fewer than twenty samples, the maximum (percentile
    100).  Percentile p leaves the samples ranked above ceil(p * n / 100)
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]
