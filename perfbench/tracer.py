"""Spans and exact counts around flagalg's public functions, from outside.

``install()`` replaces each traced function, everywhere flagalg's modules
refer to it, with a wrapper that records a span (name, start, end, parent)
and updates the counts below.  Nothing in flagalg itself changes.  Spans
stay in memory; ``dump()`` writes them with the counts at the end of the
process.

With ``count_ring_ops``, ``rings.ops`` counts ring add/sub/mul/neg/inv
calls on the ring instances the CLI builds from a ring spec: those
instances are switched to a counting subclass of their own ring class.
That costs up to several times the job's own time on cheap scalars, so
timed runs leave it off.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from fractions import Fraction

# (module, attribute, span name); the span name's prefix is the layer
TRACED = [
    ("suites", "suite_flag_algebra", "suites.flag_algebra"),
    ("suites", "suite_submodules", "suites.submodules"),
    ("suites", "suite_reconstruction", "suites.reconstruction"),
    ("suites", "suite_derivations", "suites.derivations"),
    ("algebra", "AlgebraContext.__init__", "algebra.context"),
    ("algebra", "structure_constants", "algebra.structure_constants"),
    ("algebra", "StructureConstants.from_json", "reconstruction.from_json"),
    ("posets", "enumerate_posets", "posets.enumerate"),
    ("posets", "find_isomorphism", "posets.find_isomorphism"),
    ("lattice", "z_chain", "lattice.z_chain"),
    ("lattice", "quotient", "lattice.quotient"),
    ("lattice", "primitive_idempotents", "lattice.idempotents"),
    ("linalg", "kernel", "linalg.kernel"),
    ("reconstruction", "scramble", "reconstruction.scramble"),
    ("reconstruction", "reconstruct_poset", "reconstruction.reconstruct"),
    ("derivations", "leibniz_system", "derivations.leibniz_system"),
    ("derivations", "check_derivation", "derivations.check"),
]

COUNTS = [
    "algebra.table_nnz",
    "lattice.rank_c1",
    "lattice.rank_c2",
    "lattice.rank_c3",
    "lattice.idempotents",
    "linalg.kernel_rows",
    "linalg.kernel_rank",
    "reconstruction.table_max_bits",
    "rings.ops",
]

RING_OPS = {"add": 2, "sub": 2, "mul": 2, "neg": 1, "inv": 1}


def _bits(value):
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return abs(int(value)).bit_length()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.ring_ops = itertools.count()
        self._tables = []  # tables already counted, kept alive so ids stay unique

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # exact counts, taken outside the span so they cost no traced time
    def _observe_algebra_structure_constants(self, args, sc):
        if all(sc is not t for t in self._tables):
            self._tables.append(sc)
            self.counts["algebra.table_nnz"] += sum(len(e) for e in sc.table.values())

    def _observe_lattice_z_chain(self, args, chain):
        for k, sub in enumerate(chain, start=1):
            self.counts[f"lattice.rank_c{k}"] += sub.rank

    def _observe_lattice_idempotents(self, args, idems):
        self.counts["lattice.idempotents"] += len(idems)

    def _observe_linalg_kernel(self, args, sub):
        self.counts["linalg.kernel_rows"] += len(args[0])
        self.counts["linalg.kernel_rank"] += sub.rank

    def _table_bits(self, sc):
        bits = max((_bits(c) for e in sc.table.values() for _k, c in e), default=0)
        key = "reconstruction.table_max_bits"
        self.counts[key] = max(self.counts[key], bits)

    def _observe_reconstruction_from_json(self, args, sc):
        self._table_bits(sc)

    def _observe_reconstruction_scramble(self, args, algebra):
        self._table_bits(algebra.sc)

    def counting_ring(self, ring):
        """Switch `ring` to a subclass of its class that counts RING_OPS."""
        tick = self.ring_ops.__next__
        base = type(ring)

        def counted(op, arity):
            if arity == 1:
                def method(self, a):
                    tick()
                    return op(self, a)
            else:
                def method(self, a, b):
                    tick()
                    return op(self, a, b)
            return method

        ring.__class__ = type(
            "Counting" + base.__name__,
            (base,),
            {name: counted(getattr(base, name), arity) for name, arity in RING_OPS.items()},
        )
        return ring

    def install(self, count_ring_ops):
        """Wrap every TRACED function in all loaded flagalg modules."""
        for modname, _attr, _name in TRACED:
            importlib.import_module("flagalg." + modname)
        modules = [m for n, m in sys.modules.items() if n == "flagalg" or n.startswith("flagalg.")]

        def replace(orig, new):
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)

        for modname, attr, name in TRACED:
            mod = sys.modules["flagalg." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))
            else:
                orig = getattr(mod, attr)
                replace(orig, self.wrap(name, orig))
        if count_ring_ops:
            from flagalg.rings import ring_from_spec

            replace(ring_from_spec, lambda spec: self.counting_ring(ring_from_spec(spec)))

    def dump(self, path, job_id):
        counts = dict(self.counts)
        counts["rings.ops"] = next(self.ring_ops)
        record = {"job": job_id, "counts": counts, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
