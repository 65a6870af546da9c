"""Span tracer that wraps the package's public functions from outside.

Every public module-level function of every ``radsurj`` module becomes
a span: name, start, end, parent span and instance id, appended to
parallel arrays in memory and written out by ``dump``.  Two hot
methods of ``MultiPoly`` (``__mul__`` and ``eval_complex``) only count
calls, because a span per call would cost more than the call.  Counters
are kept per instance, so two traced runs of one seed can be compared
instance by instance.

Modules bind each other's functions by name (``from .arith import
resultant``), so ``install`` replaces every binding of a wrapped
function in every package module, and ``uninstall`` puts the originals
back.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter
from pathlib import Path

NO_PARENT = -1


def coeff_bits(poly) -> int:
    """Bit length of the largest numerator or denominator in poly."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs.values()),
        default=0,
    )


class Deadline(BaseException):
    """Raised from the timer signal; not an Exception, so no handler in
    the package can swallow it."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_outer = array("b")
        self.open: list[int] = []  # open spans per name, for recursion
        self.stack: list[int] = []
        self.instance = -1
        self.counts: dict[int, Counter] = {}
        self.current: Counter = Counter()
        self.suspicious_mode = False
        self._saved: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- instances

    def begin(self, instance: int, suspicious_mode: bool) -> None:
        """Attribute the spans and counts that follow to one instance."""
        self.instance = instance
        self.suspicious_mode = suspicious_mode
        self.current = self.counts.setdefault(instance, Counter())

    def innermost(self) -> str | None:
        """Name of the innermost open span, for deadline attribution."""
        return self.names[self.span_name[self.stack[-1]]] if self.stack else None

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self.open.append(0)
        clock = time.perf_counter
        calls = name + ".calls"
        hook = _HOOKS.get(name)
        t = self

        def span(*args, **kwargs):
            idx = len(t.span_start)
            t.span_name.append(nid)
            t.span_parent.append(t.stack[-1] if t.stack else NO_PARENT)
            t.span_instance.append(t.instance)
            t.span_outer.append(t.open[nid] == 0)
            t.span_end.append(0.0)
            t.stack.append(idx)
            t.open[nid] += 1
            t.current[calls] += 1
            t.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(t, None, exc)
                raise
            finally:
                t.span_end[idx] = clock()
                t.open[nid] -= 1
                t.stack.pop()
            if hook is not None:
                hook(t, result, None)
            return result

        span.__wrapped__ = fn
        return span

    def repair(self, now: float) -> None:
        """Make the span arrays consistent after a deadline interrupt.

        The timer can fire between two appends of one span or inside a
        wrapper's cleanup; drop the half-recorded span and close every
        span left open at the interrupt time.
        """
        n = min(
            len(a)
            for a in (
                self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_instance, self.span_outer,
            )
        )
        for a in (
            self.span_name, self.span_start, self.span_end,
            self.span_parent, self.span_instance, self.span_outer,
        ):
            del a[n:]
        i = n - 1
        while i >= 0 and self.span_instance[i] == self.instance:
            if self.span_end[i] == 0.0:
                self.span_end[i] = now
            i -= 1
        self.stack.clear()
        self.open = [0] * len(self.names)

    def install(self, package: str = "radsurj") -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and id(fn) in wrappers:
                    self._patch(mod, attr, wrappers[id(fn)])
        poly = importlib.import_module(f"{package}.arith").MultiPoly
        mul = poly.__mul__
        evalc = poly.eval_complex
        t = self

        def counted_mul(a, b):
            c = t.current
            c["arith.mul.calls"] += 1
            c["arith.mul.term_products"] += len(a.coeffs) * (
                len(b.coeffs) if isinstance(b, poly) else 1
            )
            return mul(a, b)

        def counted_eval(p, values):
            t.current["arith.eval_complex.calls"] += 1
            return evalc(p, values)

        self._patch(poly, "__mul__", counted_mul)
        self._patch(poly, "__rmul__", counted_mul)
        self._patch(poly, "eval_complex", counted_eval)

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    # -------------------------------------------------------- reduction

    def totals(self, instances) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Inclusive and self seconds per span name, and summed counts,
        over the given instances.

        Self time is a span's duration minus the durations of its direct
        children; on one thread children nest inside their parent, so
        that is the part of the interval no child covers.
        """
        keep = set(instances)
        n = len(self.span_start)
        child = [0.0] * n
        incl: dict[str, float] = Counter()
        self_s: dict[str, float] = Counter()
        for i in range(n - 1, -1, -1):
            if self.span_instance[i] not in keep:
                continue
            dur = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent != NO_PARENT:
                child[parent] += dur
            name = self.names[self.span_name[i]]
            self_s[name] += dur - child[i]
            # recursive calls count once toward inclusive time
            if self.span_outer[i]:
                incl[name] += dur
        counts: Counter = Counter()
        for inst in keep:
            for key, value in self.counts.get(inst, {}).items():
                if key.endswith(".max_coeff_bits"):
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        return incl, self_s, counts

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tinstance\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_instance[i]}\n"
                )


# Counters that need a call's result or exception, keyed by span name.
# Each hook receives (tracer, result, exception); the exception is None
# when the call returned.


def _resultant(t: Tracer, result, exc) -> None:
    if result is not None:
        key = "arith.resultant.max_coeff_bits"
        t.current[key] = max(t.current[key], coeff_bits(result))


def _is_guilty(t: Tracer, result, exc) -> None:
    if t.suspicious_mode:
        t.current["tower.is_guilty.unused"] += 1


def _hypothesis2(t: Tracer, result, exc) -> None:
    if exc is not None:
        if type(exc).__name__ == "ResourceError":
            t.current["surjcheck.hypothesis2.undecided"] += 1
        return
    established, route, exact, gcd = result
    if route == "exact":
        t.current["surjcheck.hypothesis2.route_exact"] += 1
    elif route == "gcd":
        t.current["surjcheck.hypothesis2.route_gcd"] += 1
    elif exact is None and not established:
        t.current["surjcheck.hypothesis2.undecided"] += 1


def _buchberger(t: Tracer, result, exc) -> None:
    if exc is not None and type(exc).__name__ == "ResourceError":
        t.current["ideal.buchberger.exhausted"] += 1


def _condition2(t: Tracer, result, exc) -> None:
    if result is not None and result.classification == "unknown":
        t.current["missing.condition2_locus.unknown"] += 1


_HOOKS = {
    "arith.resultant": _resultant,
    "tower.is_guilty": _is_guilty,
    "surjcheck.hypothesis2": _hypothesis2,
    "ideal.buchberger": _buchberger,
    "missing.condition2_locus": _condition2,
}
