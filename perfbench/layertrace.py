"""Per-layer spans and counters, installed from outside the qschub package.

`install()` replaces functions and methods of qschub's modules with wrappers
that record, at each layer boundary, a span (name, start, end, parent span,
check id) and the counts named in `layer_metrics`.  Each name is patched
where it is looked up: a function bound into another module by
`from ... import` is replaced in that module too.

Four kinds of wrapper keep the cost in proportion to the work measured:

* spans: a frame on a stack, so that a layer's self time is its duration
  minus the time its child spans cover.  Coarse spans are kept as records;
  hot ones (`Echelon.add`, `Presentation.mul`) are only summed.
* `Scalar.__init__` (every construction runs `_canon`): counted and timed,
  but not a frame, so canon time stays inside the caller's self time.
* `Scalar.__mul__` and `Scalar.__add__`: counted, never timed.
* constructors and cached lookups (cells, labs, presentations, slices):
  counted, with cache misses told apart by the cache's state before the call.

Spans stay in memory until `write_spans` writes them out.
"""

import json
from time import perf_counter

from qschub import cauchon, cli, ideals, linalg, modules, pbw, schubert, subwords, weyl
from qschub.qscalar import ONE, Scalar

# attribution targets for Presentation.mul: closure versus re-expression
_ATTRIBUTED = ("ideals.closure", "cauchon.reexpress")


class _Frame:
    __slots__ = ("name", "id", "check", "attr", "child")

    def __init__(self, name, span_id, parent):
        self.name = name
        self.id = span_id
        if parent is None:
            self.check = span_id if name == "check" else None
            self.attr = None
        else:
            self.check = parent.check
            self.attr = parent.attr
        if name in _ATTRIBUTED:
            self.attr = name
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent id, check id)
        self.stack = []
        self.totals = {}         # name -> [count, inclusive s, self s]
        self.counts = {}
        self.next_id = 0

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, keep=True, on_exit=None):
        """Wrap fn in a span; on_exit(frame, parent, args, result) may add counts.

        A call made directly inside a span of the same name (recursion) runs
        unwrapped, so inclusive time is not counted twice."""
        stack, totals, spans = self.stack, self.totals, self.spans
        totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if stack and stack[-1].name is name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = _Frame(name, self.next_id, parent)
            self.next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tot = totals[name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame.child
                if parent is not None:
                    parent.child += dur
                if keep:
                    spans.append((name, t0, t1, parent.id if parent else None,
                                  frame.check))
                if on_exit is not None:
                    on_exit(frame, parent, args, result)

        return wrapper

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, check in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "check": check}) + "\n")


def _patch(tracer, name, owners, attr, keep=True, on_exit=None):
    """Wrap one function once and rebind it in every owner that looks it up."""
    fn = getattr(owners[0], attr)
    wrapped = tracer.span(name, fn, keep, on_exit)
    for owner in owners:
        setattr(owner, attr, wrapped)


def _count(tracer, owner, attr, key, when=None):
    """Count calls of owner.attr (only those where when(*args) holds)."""
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        if when is None or when(*args):
            tracer.bump(key)
        return fn(*args, **kwargs)

    setattr(owner, attr, counted)


def _install_scalar():
    counts = [0, 0, 0, 0, 0]    # mul, mul den 1, mul monomial, add, canon
    canon_s = [0.0]
    mul, add, init = Scalar.__mul__, Scalar.__add__, Scalar.__init__
    den_one = ONE.den

    def counted_mul(self, other):
        counts[0] += 1
        d1 = self.den == den_one
        d2 = other.den == den_one
        if d1 and d2:
            counts[1] += 1
        if (d1 and len(self.num) == 1) or (d2 and len(other.num) == 1):
            counts[2] += 1
        return mul(self, other)

    def counted_add(self, other):
        counts[3] += 1
        return add(self, other)

    def timed_init(self, num, den=None):
        counts[4] += 1
        t0 = perf_counter()
        init(self, num, den)
        canon_s[0] += perf_counter() - t0

    Scalar.__mul__, Scalar.__add__, Scalar.__init__ = counted_mul, counted_add, timed_init
    return counts, canon_s


def install():
    """Patch qschub for tracing; returns the Tracer.  The check span is the
    root: `cli._verify_one`, the function the campaign calls once per check."""
    t = Tracer()
    _patch(t, "check", [cli], "_verify_one")

    # linalg
    def solve_exit(frame, parent, args, result):
        t.bump("linalg.solve_columns.cols", len(args[0]))
        if parent is not None and parent.name == "cauchon.reexpress":
            t.bump("cauchon.reexpress.solves")
            t.bump("cauchon.reexpress.cols", len(args[0]))

    _patch(t, "linalg.solve_columns", [linalg, cauchon, schubert, modules],
           "solve_columns", on_exit=solve_exit)

    def add_exit(frame, parent, args, result):
        if result:
            t.bump("linalg.echelon_add.accepted")
        if parent is not None and parent.name == "ideals.closure":
            t.bump("ideals.closure.products")
            if result:
                t.bump("ideals.closure.accepted")

    _patch(t, "linalg.echelon_add", [linalg.Echelon], "add", keep=False,
           on_exit=add_exit)
    _patch(t, "linalg.nullspace", [linalg, ideals], "nullspace")

    # pbw
    def mul_exit(frame, parent, args, result):
        if frame.attr is not None:
            t.bump(f"pbw.mul.count@{frame.attr}")

    _patch(t, "pbw.mul", [pbw.Presentation], "mul", keep=False,
           on_exit=mul_exit)

    # modules
    build = modules.build_module

    def counted_build(datum, lam_fw):
        before = len(modules._MODULE_CACHE)
        out = build(datum, lam_fw)
        if len(modules._MODULE_CACHE) > before:
            t.bump("modules.build_module.miss")
        return out

    modules.build_module = counted_build
    _patch(t, "modules.build_module", [modules, schubert, ideals], "build_module")
    _patch(t, "modules.demazure_echelon", [modules, ideals], "demazure_echelon")

    # schubert
    cls = schubert.SchubertCell
    _count(t, cls, "__init__", "schubert.cell.new")
    _count(t, cls, "presentation", "schubert.presentation.extract",
           lambda self: self._presentation is None)
    _patch(t, "schubert.presentation", [cls], "presentation")
    _patch(t, "schubert.quantum_minor", [cls], "quantum_minor")
    _patch(t, "schubert.phi_vectors", [cls], "phi_vectors")

    # cauchon
    dd = cauchon.DeletingDerivations
    _patch(t, "cauchon.new_generators", [dd], "new_generators")
    _patch(t, "cauchon.verify_stage", [dd], "verify_stage")
    _patch(t, "cauchon.theta_check", [dd], "check_theta_consistency")

    def reexpress_exit(frame, parent, args, result):
        t.bump("cauchon.reexpress.nonzero", len(result or ()))

    _patch(t, "cauchon.reexpress", [dd], "reexpress", on_exit=reexpress_exit)

    # ideals
    lab = ideals.IdealLab
    _count(t, lab, "__init__", "ideals.lab.new")
    _count(t, lab, "slices", "ideals.slices.miss",
           lambda self, y_letters: tuple(y_letters) not in self._slices)
    _patch(t, "ideals.slices", [lab], "slices")
    _patch(t, "ideals.add_weight", [lab], "_add_weight")
    _patch(t, "ideals.closure", [lab], "_ideal_closure")
    _patch(t, "ideals.cauchon_diagram", [lab], "cauchon_diagram")
    _patch(t, "ideals.contract", [lab], "_contract")
    _patch(t, "ideals.leading_part", [lab], "_leading_part")

    # subwords and weyl
    _patch(t, "subwords.enumerate_lp", [subwords], "enumerate_lp")
    _patch(t, "weyl.lower_interval", [weyl.RootDatum], "lower_interval", keep=False)

    t.scalar_counts, t.canon_s = _install_scalar()
    return t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t):
    """The per-layer metrics of one traced campaign, by name."""
    tot = t.totals
    c = t.counts.get
    mul, den1, mono, add, canon = t.scalar_counts

    def n(name):
        return tot[name][0]

    def s(name):
        return tot[name][1]

    check_s = s("check")
    check_self = tot["check"][2]
    pbw_attr = {a: c(f"pbw.mul.count@{a}", 0) for a in _ATTRIBUTED}
    return {
        "qscalar.mul.count": mul,
        "qscalar.add.count": add,
        "qscalar.canon.count": canon,
        "qscalar.canon.s": t.canon_s[0],
        "qscalar.mul.den1_ratio": _ratio(den1, mul),
        "qscalar.mul.monomial_ratio": _ratio(mono, mul),
        "linalg.solve_columns.count": n("linalg.solve_columns"),
        "linalg.solve_columns.s": s("linalg.solve_columns"),
        "linalg.solve_columns.cols": c("linalg.solve_columns.cols", 0),
        "linalg.echelon_add.count": n("linalg.echelon_add"),
        "linalg.echelon_add.s": s("linalg.echelon_add"),
        "linalg.echelon_add.accepted_ratio":
            _ratio(c("linalg.echelon_add.accepted", 0), n("linalg.echelon_add")),
        "linalg.nullspace.s": s("linalg.nullspace"),
        "pbw.mul.count": n("pbw.mul"),
        "pbw.mul.s": s("pbw.mul"),
        "pbw.mul.closure_share": _ratio(pbw_attr["ideals.closure"], n("pbw.mul")),
        "pbw.mul.reexpress_share": _ratio(pbw_attr["cauchon.reexpress"], n("pbw.mul")),
        "modules.build_module.count": n("modules.build_module"),
        "modules.build_module.miss": c("modules.build_module.miss", 0),
        "modules.build_module.s": s("modules.build_module"),
        "modules.demazure_echelon.s": s("modules.demazure_echelon"),
        "schubert.cell.new": c("schubert.cell.new", 0),
        "schubert.presentation.extract": c("schubert.presentation.extract", 0),
        "schubert.presentation.s": s("schubert.presentation"),
        "schubert.quantum_minor.s": s("schubert.quantum_minor"),
        "schubert.phi_vectors.s": s("schubert.phi_vectors"),
        "cauchon.new_generators.s": s("cauchon.new_generators"),
        "cauchon.verify_stage.s": s("cauchon.verify_stage"),
        "cauchon.reexpress.count": n("cauchon.reexpress"),
        "cauchon.reexpress.s": s("cauchon.reexpress"),
        "cauchon.reexpress.self_s": tot["cauchon.reexpress"][2],
        "cauchon.reexpress.solves": c("cauchon.reexpress.solves", 0),
        "cauchon.reexpress.cols": c("cauchon.reexpress.cols", 0),
        "cauchon.reexpress.useful_ratio":
            _ratio(c("cauchon.reexpress.nonzero", 0), c("cauchon.reexpress.cols", 0)),
        "ideals.lab.new": c("ideals.lab.new", 0),
        "ideals.slices.miss": c("ideals.slices.miss", 0),
        "ideals.slices.s": s("ideals.slices"),
        "ideals.add_weight.s": s("ideals.add_weight"),
        "ideals.closure.count": n("ideals.closure"),
        "ideals.closure.s": s("ideals.closure"),
        "ideals.closure.products": c("ideals.closure.products", 0),
        "ideals.closure.useful_ratio":
            _ratio(c("ideals.closure.accepted", 0), c("ideals.closure.products", 0)),
        "ideals.cauchon_diagram.s": s("ideals.cauchon_diagram"),
        "subwords.enumerate_lp.s": s("subwords.enumerate_lp"),
        "weyl.lower_interval.s": s("weyl.lower_interval"),
        "trace.coverage_ratio": _ratio(check_s - check_self, check_s),
    }


def layer_self_shares(t):
    """Self time per module (the prefix of each span name) over check time."""
    check_s = t.totals["check"][1]
    shares = {}
    for name, (_, _, self_s) in t.totals.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + self_s
    return {k: _ratio(v, check_s) for k, v in sorted(shares.items())}
