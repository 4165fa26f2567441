"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``wpbcodes`` modules from outside
the package; no file of the package changes.  Every wrapped call records one
span (name, start, end, parent, work) in flat arrays, so a traced verify run
with a few hundred thousand scalar calls stays at a few megabytes.  Spans
are written to an ``.npz`` file when the run ends, and self times (a span's
duration minus the time its child spans cover) are computed from them.

A wrapper is installed on the defining class or module *and* on every
``wpbcodes`` module that imported the same object by name (``checks`` and
``cli`` import the construction functions directly, for example).  Names a
later version of the package no longer has are skipped, so their counters
read zero instead of crashing the run.
"""

from __future__ import annotations

import sys
import time
import types
from array import array

import numpy as np

# Layer spans: (span name, module, attribute path, work function name).
# The work function, when given, is evaluated on the call's arguments and
# stored with the span (vectors for the kernel, |C| for a code scan).
SPANS = [
    ("field.make", "wpbcodes.field", "make_field", None),
    *[("field.scalar", "wpbcodes.field", f"Field.{op}", None)
      for op in ("add", "sub", "neg", "mul", "inv")],
    ("weights.scalar", "wpbcodes.weights", "WeightFn.__call__", None),
    *[("weights.make", "wpbcodes.weights", fn, None)
      for fn in ("hamming_weight", "lee_weight", "custom_weight")],
    ("poset.ideal", "wpbcodes.poset", "Poset.ideal", None),
    ("poset.maximal", "wpbcodes.poset", "Poset.maximal_elements", None),
    *[("poset.build", "wpbcodes.poset", fn, None)
      for fn in ("chain", "antichain", "from_cover_relations", "disjoint_union",
                 "linear_sum", "cartesian_product", "lex_product", "puncture",
                 "extend")],
    ("blockspace.build", "wpbcodes.blockspace", "BlockSpace.__init__", None),
    ("blockspace.scalar_weight", "wpbcodes.blockspace", "BlockSpace.wpb_weight", None),
    ("blockspace.kernel", "wpbcodes.blockspace", "BlockSpace.batch_weights", "rows"),
    ("blockspace.enum", "wpbcodes.blockspace", "BlockSpace.all_vectors", "space_size"),
    ("blockspace.ball", "wpbcodes.blockspace", "BlockSpace.ball", None),
    ("blockspace.ball", "wpbcodes.blockspace", "BlockSpace.ball_size", None),
    ("codes.build", "wpbcodes.codes", "Code.__init__", None),
    ("codes.codeword_array", "wpbcodes.codes", "Code.codeword_array", None),
    *[(f"codes.{fn}", "wpbcodes.codes", f"Code.{fn}", "code_size")
      for fn in ("min_distance", "covering_radius", "packing_radius",
                 "is_r_perfect", "coset_table")],
    *[(f"constructions.{fn}", "wpbcodes.constructions", fn, None)
      for fn in ("direct_sum_code", "plotkin_code", "extended_code",
                 "punctured_code", "tensor_code")],
    ("instances.digest", "wpbcodes.instances", "Instance.digest", None),
    ("instances.build", "wpbcodes.instances", "Instance.build", None),
    ("instances.load", "wpbcodes.instances", "loads_instance", None),
    ("checks.verify_suite", "wpbcodes.checks", "verify_suite", None),
    ("cli.main", "wpbcodes.cli", "main", None),
]

# iter_chunks is a generator: each next() becomes one enumeration span.
ENUM_GENERATOR = ("blockspace.enum", "wpbcodes.blockspace", "BlockSpace.iter_chunks")

# Code scans that evaluate every (vector, codeword) pair of the chunks they
# enumerate; pairs_computed sums chunk vectors x |C| under these spans.
PAIR_SCANS = ("codes.covering_radius", "codes.packing_radius", "codes.is_r_perfect")


def _rows(args):
    return len(args[1])


def _space_size(args):
    return args[0].size


def _code_size(args):
    return args[0].size


_WORK = {"rows": _rows, "space_size": _space_size, "code_size": _code_size}


def _assign(owner, attr: str, value) -> None:
    """setattr that also works on frozen dataclass instances (verify suites)."""
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


class Tracer:
    """Span recorder; ``install`` patches the package for the rest of the process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self.suite_reports: dict[str, list] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, work: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid, work(args) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def wrap_chunks(self, name: str, fn):
        nid = self._id(name)
        open_, close, work = self._open, self._close, self.work

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = open_(nid, 0)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(i)
                work[i] = len(item[1])
                yield item

        return traced

    # installation -------------------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        mod = sys.modules.get(module)
        if mod is None:
            return
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            return
        original = vars(owner)[attr]
        wrapped = make(original)
        _assign(owner, attr, wrapped)
        if owner_name:
            return
        # module-level function: replace it wherever it was imported by name
        for other_name, other in list(sys.modules.items()):
            if other_name.startswith("wpbcodes") and other is not mod:
                for key, val in list(vars(other).items()):
                    if val is original:
                        _assign(other, key, wrapped)

    def install(self) -> None:
        """Wrap the layer functions of an already imported ``wpbcodes``."""
        for name, module, path, work in SPANS:
            self._patch(module, path,
                        lambda fn, name=name, work=work: self.wrap(name, fn, _WORK.get(work)))
        name, module, path = ENUM_GENERATOR
        self._patch(module, path, lambda fn: self.wrap_chunks(name, fn))
        checks = sys.modules.get("wpbcodes.checks")
        if checks is not None:
            for suite in checks.REGISTRY.values():
                _assign(suite, "unit_fn", self._suite_unit(suite))

    def _suite_unit(self, suite):
        """Span one verify unit of a suite and keep its reports for the
        slowest-unit table."""
        traced = self.wrap(f"checks.{suite.name}", suite.unit_fn)
        kept = self.suite_reports.setdefault(suite.name, [])

        def unit(*args):
            reports = traced(*args)
            kept.append(reports)
            return reports

        return unit

    # results ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, work."""
        a = self.arrays()
        n, k = len(a["start"]), len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        self_by = np.bincount(a["name"], weights=self_s, minlength=k)
        work = np.bincount(a["name"], weights=a["work"], minlength=k)
        out = {
            nm: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                 "self_s": float(self_by[i]), "work": int(work[i])}
            for i, nm in enumerate(self.names)
        }
        pairs = 0
        if "blockspace.enum" in self._ids:
            enum = a["name"] == self._ids["blockspace.enum"]
            par = a["parent"][enum]
            ok = par >= 0
            scan_ids = [self._ids[s] for s in PAIR_SCANS if s in self._ids]
            under = np.isin(a["name"][par[ok]], scan_ids)
            pairs = int((a["work"][enum][ok][under] * a["work"][par[ok]][under]).sum())
        out["codes.pairs"] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": pairs}
        out["trace.spans"] = {"calls": n, "incl_s": 0.0, "self_s": 0.0, "work": n}
        return out
