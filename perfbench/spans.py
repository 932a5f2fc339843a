"""A span tracer that wraps superlie's public entry points from outside.

:meth:`Tracer.install` replaces each entry point below by a wrapper that
records a span: name, start, end, parent span and run id.  A module-level
function is rebound in every ``superlie`` module namespace that holds it
(``from .tensor import nonabelian_tensor`` copies the reference), a method
is replaced on its class.  Spans stay in flat arrays in memory until
:meth:`Tracer.dump` writes them out; :func:`derive` turns span files into
the per-layer metrics.  Counts that need the return value (rank growth,
membership hits, dimensions of the objects built) are counted at the same
boundary.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute); the layer is the part before the first dot
ENTRY_POINTS = (
    ("linalg.echelon_insert", "superlie.linalg", "Echelon.insert"),
    ("linalg.echelon_contains", "superlie.linalg", "Echelon.contains"),
    ("linalg.reduce_vec", "superlie.linalg", "Subspace.reduce_vec"),
    ("linalg.intersect", "superlie.linalg", "Subspace.intersect"),
    ("linalg.subquotient_init", "superlie.linalg", "Subquotient.__init__"),
    ("linalg.subquotient_reduce", "superlie.linalg", "Subquotient.reduce"),
    ("linalg.kernel_basis", "superlie.linalg", "Matrix.kernel_basis"),
    ("spaces.exterior_power", "superlie.spaces", "exterior_power"),
    ("algebras.check_lie_axioms", "superlie.algebras", "check_lie_axioms"),
    ("algebras.series", "superlie.algebras", "series"),
    ("algebras.product_subspace", "superlie.algebras", "LieSuperAlgebra.product_subspace"),
    ("algebras.ideal_closure", "superlie.algebras", "ideal_closure"),
    ("algebras.quotient_algebra", "superlie.algebras", "quotient_algebra"),
    ("actions.check_crossed", "superlie.actions", "check_crossed"),
    ("actions.check_compatible", "superlie.actions", "check_compatible"),
    ("tensor.nonabelian_tensor", "superlie.tensor", "nonabelian_tensor"),
    ("tensor.adjoint_square", "superlie.tensor", "adjoint_tensor_square"),
    ("tensor.nonabelian_exterior", "superlie.tensor", "nonabelian_exterior"),
    ("tensor.uce", "superlie.tensor", "uce"),
    ("freelie.free_truncated", "superlie.freelie", "free_truncated"),
    ("homology.ce_complex", "superlie.homology", "ce_complex"),
    ("homology.homology", "superlie.homology", "homology"),
    ("homology.hopf_formula", "superlie.homology", "hopf_formula"),
    ("homology.nh", "superlie.homology", "nh"),
    ("cyclic.connes", "superlie.cyclic", "connes"),
    ("cyclic.hc", "superlie.cyclic", "hc"),
    ("cyclic.hc1_kernel_model", "superlie.cyclic", "hc1_kernel_model"),
    ("cyclic.milnor_hc1", "superlie.cyclic", "milnor_hc1"),
    ("io.load_algebra", "superlie.io", "load_algebra"),
    ("cli.main", "superlie.cli", "main"),
)

# span name -> ((counter name, result -> int), ...)
COUNTERS = {
    "linalg.echelon_insert": (("linalg.echelon_insert.rank_grew", int),),
    "linalg.echelon_contains": (("linalg.echelon_contains.hits", int),),
    "tensor.nonabelian_tensor": (
        ("tensor.relation_dim", lambda t: t.d_generators.dim),
        ("tensor.product_dim", lambda t: t.algebra.dim),
    ),
    "homology.ce_complex": (("homology.chain_dim", lambda c: sum(s.dim for s in c.spaces)),),
    "cyclic.connes": (
        ("cyclic.plain_dim", lambda c: sum(s.dim for s in c.plain_spaces)),
        ("cyclic.coinvariant_dim", lambda c: sum(q.space.dim for q in c.coinvariants)),
    ),
    "freelie.free_truncated": (("freelie.cover_dim", lambda f: sum(c.dim for c in f.components)),),
}

NAMES = [name for name, _, _ in ENTRY_POINTS]
LAYERS = sorted({name.split(".")[0] for name in NAMES})
SAME_NAME, SAME_LAYER = 1, 2  # bits of a span's nesting flag


class Tracer:
    """Records spans of wrapped entry points; off until :meth:`install`."""

    def __init__(self):
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.nest = array("B")
        self.run_id = 0
        self.counters = {c: 0 for hooks in COUNTERS.values() for c, _ in hooks}
        self._stack: list[int] = []
        self._name_depth = [0] * len(NAMES)
        self._layer_depth = [0] * len(LAYERS)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, nid: int):
        lid = LAYERS.index(NAMES[nid].split(".")[0])
        hooks = COUNTERS.get(NAMES[nid], ())
        counters, stack = self.counters, self._stack
        name_depth, layer_depth = self._name_depth, self._layer_depth
        name_a, start_a, end_a = self.name.append, self.start.append, self.end.append
        parent_a, run_a, nest_a = self.parent.append, self.run.append, self.nest.append
        end = self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(end)
            name_a(nid)
            parent_a(stack[-1] if stack else -1)
            run_a(self.run_id)
            nest_a((SAME_NAME if name_depth[nid] else 0) | (SAME_LAYER if layer_depth[lid] else 0))
            end_a(0)
            stack.append(idx)
            name_depth[nid] += 1
            layer_depth[lid] += 1
            start_a(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                name_depth[nid] -= 1
                layer_depth[lid] -= 1
            for counter, measure in hooks:
                counters[counter] += measure(res)
            return res

        traced.__name__ = getattr(fn, "__name__", NAMES[nid])
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "superlie" or n.startswith("superlie.")]
        for nid, (_, modname, attr) in enumerate(ENTRY_POINTS):
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._saved.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, nid))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, nid)
            for mod in modules + [module]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def dump(self, path: str, extra: dict | None = None) -> None:
        header = {"names": NAMES, "n": len(self.end), "counters": self.counters,
                  "extra": extra or {}}
        blob = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for arr in (self.name, self.start, self.end, self.parent, self.run, self.nest):
                arr.tofile(fh)


def load(path: str) -> dict:
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        data = json.loads(fh.read(size))
        n = data["n"]
        for key, code in (("name", "H"), ("start", "q"), ("end", "q"),
                          ("parent", "i"), ("run", "i"), ("nest", "B")):
            arr = array(code)
            arr.fromfile(fh, n)
            data[key] = arr
    return data


def derive(files: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span files of one traced round.

    ``<name>.s`` is inclusive time (outermost span of that name only),
    ``<name>.self_s`` subtracts the traced child spans, ``<layer>.s`` is the
    time spent inside the layer.  Generators streamed into (accepted by) the
    tensor product's relation span are the membership tests (inserts) called
    straight from ``nonabelian_tensor`` before it forms its quotient."""
    nid = {n: i for i, n in enumerate(NAMES)}
    calls = [0] * len(NAMES)
    incl = [0] * len(NAMES)
    self_ns = [0] * len(NAMES)
    layer_ns = dict.fromkeys(LAYERS, 0)
    counters: dict[str, int] = {}
    streamed = accepted = memo_hits = 0
    tensor_id, square_id = nid["tensor.nonabelian_tensor"], nid["tensor.adjoint_square"]
    contains_id, insert_id = nid["linalg.echelon_contains"], nid["linalg.echelon_insert"]
    quotient_id = nid["linalg.subquotient_init"]
    for data in files:
        if data["names"] != NAMES:
            raise ValueError("span file written by another version of the tracer")
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
        name, start, end, parent, nest = (data[k] for k in ("name", "start", "end", "parent", "nest"))
        n = data["n"]
        dur = [end[i] - start[i] for i in range(n)]
        child_ns = [0] * n
        quotient_at: dict[int, int] = {}   # tensor span -> start of its first quotient
        has_tensor_child: set[int] = set()
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += dur[i]
                if name[i] == quotient_id and name[p] == tensor_id and p not in quotient_at:
                    quotient_at[p] = start[i]
                if name[i] == tensor_id and name[p] == square_id:
                    has_tensor_child.add(p)
        for i in range(n):
            k = name[i]
            calls[k] += 1
            self_ns[k] += dur[i] - child_ns[i]
            if not nest[i] & SAME_NAME:
                incl[k] += dur[i]
            if not nest[i] & SAME_LAYER:
                layer_ns[NAMES[k].split(".")[0]] += dur[i]
            p = parent[i]
            if p >= 0 and name[p] == tensor_id and start[i] < quotient_at.get(p, 1 << 62):
                if k == contains_id:
                    streamed += 1
                elif k == insert_id:
                    accepted += 1
            if k == square_id and i not in has_tensor_child:
                memo_hits += 1

    def stat(name: str, what: str) -> float:
        k = nid[name]
        if what == "calls":
            return calls[k]
        return (incl[k] if what == "s" else self_ns[k]) / 1e9

    out: dict[str, float] = {"linalg.s": layer_ns["linalg"] / 1e9}
    wanted = {
        "linalg.echelon_insert": ("calls", "s"),
        "linalg.echelon_contains": ("calls", "s"),
        "linalg.reduce_vec": ("calls", "s"),
        "linalg.subquotient_init": ("calls", "s"),
        "linalg.subquotient_reduce": ("calls", "s"),
        "linalg.kernel_basis": ("calls", "s"),
        "linalg.intersect": ("s",),
        "tensor.nonabelian_tensor": ("calls", "s", "self_s"),
        "tensor.adjoint_square": ("calls",),
        "tensor.nonabelian_exterior": ("s",),
        "tensor.uce": ("s",),
        "algebras.check_lie_axioms": ("calls", "s"),
        "actions.check_crossed": ("calls", "s"),
        "actions.check_compatible": ("calls", "s"),
        "algebras.series": ("s",),
        "algebras.product_subspace": ("s",),
        "algebras.ideal_closure": ("s",),
        "algebras.quotient_algebra": ("s",),
        "spaces.exterior_power": ("calls", "s"),
        "homology.ce_complex": ("calls", "s", "self_s"),
        "homology.homology": ("s",),
        "homology.hopf_formula": ("s", "self_s"),
        "homology.nh": ("s",),
        "cyclic.connes": ("calls", "s", "self_s"),
        "cyclic.hc": ("s",),
        "cyclic.hc1_kernel_model": ("s",),
        "cyclic.milnor_hc1": ("s",),
        "freelie.free_truncated": ("s",),
        "io.load_algebra": ("s",),
    }
    for name, whats in wanted.items():
        for what in whats:
            out[f"{name}.{what}"] = stat(name, what)
    out.update(counters)
    out["tensor.generators_streamed"] = streamed
    out["tensor.generators_accepted"] = accepted
    out["tensor.accept_ratio"] = accepted / streamed if streamed else 0.0
    out["tensor.adjoint_square.memo_hits"] = memo_hits
    return out


def cli_main_seconds(data: dict) -> float:
    """Duration of the outermost ``cli.main`` span in one span file."""
    k = NAMES.index("cli.main")
    return sum(data["end"][i] - data["start"][i] for i in range(data["n"])
               if data["name"][i] == k and not data["nest"][i] & SAME_NAME) / 1e9
