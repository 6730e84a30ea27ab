"""Traced runs: wrap the public functions of each skewres module from outside.

The modules import each other's functions by name (``from .polyone import
llcm``), so one function object sits in several module namespaces. A wrapper
is bound into every ``skewres.*`` namespace that holds the original object,
and into every class attribute that holds an original method. ``restore``
puts the originals back.

A span is (id, parent, name, start, end). Spans are kept in flat arrays while
the pass runs and aggregated, and written out, afterwards. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import oracle

# span name -> (module, attribute path) of every function or method it covers
TARGETS = {
    "polyone.mul": [("skewres.polyone", "Poly1.__mul__")],
    "polyone.divmod": [("skewres.polyone", "left_divmod"), ("skewres.polyone", "right_divmod")],
    "polyone.gcd": [("skewres.polyone", "gcrd"), ("skewres.polyone", "gcld")],
    "polyone.lcm": [("skewres.polyone", "llcm"), ("skewres.polyone", "lcrm")],
    "polyone.real": [
        ("skewres.polyone", "real_gcd"),
        ("skewres.polyone", "real_divmod"),
        ("skewres.polyone", "real_div_exact"),
    ],
    "polytwo.mul": [("skewres.polytwo", "Poly2.__mul__")],
    "polytwo.add": [("skewres.polytwo", "Poly2.__add__")],
    "polytwo.eq": [("skewres.polytwo", "Poly2.__eq__")],
    "orefield.canon": [("skewres.orefield", "OreFrac.__init__")],
    "orefield.add": [("skewres.orefield", "OreFrac.__add__")],
    "orefield.mul": [("skewres.orefield", "OreFrac.__mul__"), ("skewres.orefield", "OreFrac.__rmul__")],
    "orefield.inv": [("skewres.orefield", "OreFrac.inv")],
    "orefield.eq": [("skewres.orefield", "OreFrac.__eq__")],
    "dieudonne.det": [("skewres.dieudonne", "det")],
    "dieudonne.representative": [("skewres.dieudonne", "poly_representative")],
    "dieudonne.cramer": [("skewres.dieudonne", "cramer_solve")],
    "dieudonne.kernel": [("skewres.dieudonne", "kernel_vector")],
    "dieudonne.mat_vec": [("skewres.dieudonne", "mat_vec")],
    "resultant.resultant": [("skewres.resultant", "resultant")],
    "resultant.sylvester": [("skewres.resultant", "sylvester")],
    "resultant.kernel_cofactors": [("skewres.resultant", "kernel_cofactors")],
    "resultant.bezout": [("skewres.resultant", "bezout_certificate")],
    "exprio.parse": [("skewres.exprio", "parse")],
    "exprio.lower": [("skewres.exprio", "lower"), ("skewres.exprio", "lower1"), ("skewres.exprio", "lower2")],
    "exprio.print": [("skewres.exprio", "print_poly"), ("skewres.exprio", "print_latex")],
    "exprio.json": [
        ("skewres.exprio", "poly1_to_json"),
        ("skewres.exprio", "poly2_to_json"),
        ("skewres.exprio", "matrix_to_json"),
        ("skewres.exprio", "report_to_json"),
    ],
}

# Counted in a separate pass, with no spans: the product is the innermost
# call of all, and a span around it would inflate every timed span above it.
COUNT_TARGETS = {
    "quaternion.mul": [("skewres.quaternion", "Quaternion.__mul__")],
    "quaternion.inverse": [("skewres.quaternion", "Quaternion.inverse")],
}

_CERT_PARENTS = ("resultant.kernel_cofactors", "resultant.bezout")


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Patcher:
    """Rebinds every reference to an original object; undoes it on restore."""

    def __init__(self):
        self._undo = []

    def patch(self, module: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            # every attribute of the class bound to this function (__radd__ = __add__)
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, name, value))
                    setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "skewres" and not mod_name.startswith("skewres."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def _poly_bits(p) -> int:
    return max((oracle.bits(v) for c in p.coeffs for v in (c.w, c.x, c.y, c.z)), default=0)


class Tracer:
    """Span recorder over the skewres layers. Use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.lcm_out_bits_max = 0
        self.sdet_bits_max = 0
        self.order_max = 0
        self._patcher = _Patcher()

    def _idx(self, name: str) -> int:
        if name not in self._name_idx:
            self._name_idx[name] = len(self.names)
            self.names.append(name)
        return self._name_idx[name]

    def _span(self, name_idx: int):
        parent, names, start, end, stack = self.parent, self.name, self.start, self.end, self._stack

        def enter() -> int:
            sid = len(parent)
            parent.append(stack[-1])
            names.append(name_idx)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            return sid

        def leave(sid: int) -> None:
            end[sid] = perf_counter()
            stack.pop()

        return enter, leave

    def _wrapper(self, span_name: str, after=None):
        enter, leave = self._span(self._idx(span_name))

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(sid)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    def _det_wrapper(self):
        # the route is the one det takes: the complex image when no pivot rule
        # is given and every denominator is 1, elimination otherwise
        poly = self._span(self._idx("dieudonne.det_poly"))
        frac = self._span(self._idx("dieudonne.det_frac"))

        def make(fn):
            @functools.wraps(fn)
            def wrapper(matrix, pivot_rule=None):
                route = poly if pivot_rule is None and all(
                    e.den.degree == 0 for row in matrix.entries for e in row
                ) else frac
                sid = route[0]()
                try:
                    dc = fn(matrix, pivot_rule)
                finally:
                    route[1](sid)
                self.order_max = max(self.order_max, matrix.nrows)
                bits = max((oracle.bits(c) for c in dc.sdet_num.coeffs + dc.sdet_den.coeffs), default=0)
                self.sdet_bits_max = max(self.sdet_bits_max, bits)
                return dc

            return wrapper

        return make

    def _note_lcm(self, args, result) -> None:
        self.lcm_out_bits_max = max(self.lcm_out_bits_max, *(_poly_bits(p) for p in result))

    def __enter__(self):
        for span_name, targets in TARGETS.items():
            for module, path in targets:
                if span_name == "dieudonne.det":
                    make = self._det_wrapper()
                elif span_name == "polyone.lcm":
                    make = self._wrapper(span_name, self._note_lcm)
                else:
                    make = self._wrapper(span_name)
                self._patcher.patch(module, path, make)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def aggregate(self) -> dict:
        """calls and self time per span name, and the derived layer figures."""
        n = len(self.parent)
        parent, name, start, end, names = self.parent, self.name, self.start, self.end, self.names
        child = [0.0] * n
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        calls: dict[str, int] = {k: 0 for k in names}
        self_s: dict[str, float] = {k: 0.0 for k in names}
        checks = {"check.cramer_matvec_s": 0.0, "check.kernel_matvec_s": 0.0, "check.cert_identity_s": 0.0}
        eq_idx = self._name_idx.get("orefield.eq")
        lcm_idx = self._name_idx.get("polyone.lcm")
        slow_eq = set()
        for sid in range(n):
            k = names[name[sid]]
            dur = end[sid] - start[sid]
            calls[k] += 1
            self_s[k] += dur - child[sid]
            p = parent[sid]
            pname = names[name[p]] if p >= 0 else ""
            if k == "dieudonne.mat_vec" and pname == "dieudonne.cramer":
                checks["check.cramer_matvec_s"] += dur
            elif k == "dieudonne.mat_vec" and pname == "dieudonne.kernel":
                checks["check.kernel_matvec_s"] += dur
            elif k in ("polytwo.mul", "polytwo.add", "polytwo.eq") and pname in _CERT_PARENTS:
                checks["check.cert_identity_s"] += dur
            if name[sid] == lcm_idx:
                while p >= 0:
                    if name[p] == eq_idx:
                        slow_eq.add(p)
                    p = parent[p]
        eq_calls = calls.get("orefield.eq", 0)
        derived = dict(checks)
        derived["orefield.eq.fast_ratio"] = (eq_calls - len(slow_eq)) / eq_calls if eq_calls else 0.0
        derived["polyone.lcm.out_bits_max"] = self.lcm_out_bits_max
        derived["dieudonne.sdet_bits_max"] = self.sdet_bits_max
        derived["dieudonne.order_max"] = self.order_max
        return {"calls": calls, "self_s": self_s, "derived": derived}

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            names = self.names
            for sid in range(len(self.parent)):
                fh.write(
                    f"{sid},{self.parent[sid]},{names[self.name[sid]]},"
                    f"{self.start[sid]:.9f},{self.end[sid]:.9f}\n"
                )


class Counter:
    """Call counts of the innermost quaternion operations, without spans."""

    def __init__(self):
        self.counts = {k: 0 for k in COUNT_TARGETS}
        self._patcher = _Patcher()

    def _make(self, key: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def __enter__(self):
        for key, targets in COUNT_TARGETS.items():
            for module, path in targets:
                self._patcher.patch(module, path, self._make(key))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False
