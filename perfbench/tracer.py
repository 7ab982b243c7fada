"""Benchmark-owned tracing of kocom's layers.

`Tracer.install()` replaces public kocom functions and methods with
wrappers, on the defining module or class and on every kocom module that
re-imports the same function object.  A timing wrapper keeps a stack of
open calls, so each call's self time is its duration minus the time of the
wrapped calls it made.  Each wrapper has a mode:

- SPAN: timed, and leaves a span (name, parent span, start, seconds) in
  memory;
- HOT: timed, but only aggregates calls and seconds per name;
- COUNT: counts calls only, so its time stays in the caller's self time
  (for F2Algebra.reduce_monomial, called hundreds of thousands of times
  per pass, mostly as cache hits).

Nothing here changes an argument or a result.

The span name's prefix before the first dot is the layer.
"""

from __future__ import annotations

import importlib
import sys
import time

_perf = time.perf_counter

SPAN, HOT, COUNT = "span", "hot", "count"


def _path_segments(tracer, args, result):
    tracer.counts["o2.path.segments"] += len(args[0].segments)


def _snf_entries(tracer, args, result):
    mat = args[0]
    tracer.counts["integral.smith_normal_form.entries"] += len(mat) * (len(mat[0]) if mat else 0)


def _components(tracer, args, result):
    tracer.counts["commuting.components"] += len(result)


def _distinct_monomials(tracer, args, result):
    tracer.distinct.setdefault(args[0], set()).add(args[1])


def _basis_size(tracer, args, result):
    tracer.counts["f2poly.basis.size"] += len(result)


def _dimension(tracer, args, result):
    tracer.counts["f2poly.basis.size"] += result


def _unit_elements(tracer, args, result):
    tracer.counts["surfaces.units.elements"] += len(result)


def _relations(tracer, args, result):
    tracer.counts["surfaces.relations"] += len(result.relations)


def _checks(tracer, args, result):
    # Only the outermost suite: "all" runs the others through run_suite.
    if not any(frame[2] == "suites.run_suite" for frame in tracer.stack):
        summary = result.summary
        tracer.counts["checks.total"] += summary["total"]
        tracer.counts["checks.failed"] += summary["failed"]


#: (module, attribute or Class.method, span name, mode, hook).  Calls that
#: are not wrapped count toward their caller's self time; that is where the
#: Klein four-group arithmetic, unit orders, F2 sums and equality tests land.
WRAPS = (
    ("o2", "O2Path.__init__", "o2.path", HOT, _path_segments),
    ("o2", "O2Path.pointwise_mul", "o2.pointwise_mul", SPAN, None),
    ("o2", "O2Path.pointwise_pow", "o2.pointwise_pow", SPAN, None),
    ("o2", "O2Path.reparameterized", "o2.reparameterized", SPAN, None),
    ("o2", "O2Path.right_mul_constant", "o2.right_mul_constant", SPAN, None),
    ("o2", "O2Path.value", "o2.value", HOT, None),
    ("o2", "affine_path", "o2.affine_path", SPAN, None),
    ("o2", "constant_path", "o2.constant_path", SPAN, None),
    ("o2", "commutes", "o2.commutes", HOT, None),
    ("o2", "loop_degree", "o2.loop_degree", SPAN, None),
    ("cocycles", "standard_cocycle", "cocycles.standard_cocycle", SPAN, None),
    ("cocycles", "so2_cocycle", "cocycles.so2_cocycle", SPAN, None),
    ("cocycles", "validate", "cocycles.validate", SPAN, None),
    ("cocycles", "power_cocycle", "cocycles.power_cocycle", SPAN, None),
    ("cocycles", "clutching_function", "cocycles.clutching_function", SPAN, None),
    ("cocycles", "bundle_class", "cocycles.bundle_class", SPAN, None),
    ("cocycles", "tc_invariant", "cocycles.tc_invariant", SPAN, None),
    ("cocycles", "tc_sum", "cocycles.tc_sum", SPAN, None),
    ("cocycles", "oriented_invariant", "cocycles.oriented_invariant", SPAN, None),
    ("commuting", "enumerate_components", "commuting.enumerate_components", SPAN, _components),
    ("commuting", "classify_component", "commuting.classify_component", HOT, None),
    ("commuting", "canonical_tuple", "commuting.canonical_tuple", HOT, None),
    ("commuting", "face_map", "commuting.face_map", HOT, None),
    ("commuting", "boundary_matrix", "commuting.boundary_matrix", SPAN, None),
    ("commuting", "component_complex", "commuting.component_complex", SPAN, None),
    ("commuting", "component_homology", "commuting.component_homology", SPAN, None),
    ("commuting", "h2_bcom_so3", "commuting.h2_bcom_so3", SPAN, None),
    ("integral", "smith_normal_form", "integral.smith_normal_form", SPAN, _snf_entries),
    ("integral", "IntChainComplex.__init__", "integral.complex_check", SPAN, None),
    ("integral", "IntChainComplex.homology", "integral.homology", SPAN, None),
    ("integral", "AbelianGroup.from_orders", "integral.from_orders", SPAN, None),
    ("integral", "AbelianGroup.direct_sum", "integral.direct_sum", SPAN, None),
    ("f2poly", "F2Class.__mul__", "f2poly.mul", HOT, None),
    ("f2poly", "F2Algebra.reduce_monomial", "f2poly.reduce", COUNT, _distinct_monomials),
    ("f2poly", "F2Class.homogeneous_degree", "f2poly.degree", HOT, None),
    ("f2poly", "F2Algebra.__init__", "f2poly.algebra", SPAN, None),
    ("f2poly", "F2Algebra.cls", "f2poly.cls", HOT, None),
    ("f2poly", "F2Algebra.basis", "f2poly.basis", SPAN, _basis_size),
    ("f2poly", "F2Algebra.dimension", "f2poly.basis", SPAN, _dimension),
    ("f2poly", "RingMap.__init__", "f2poly.ringmap_init", SPAN, None),
    ("f2poly", "RingMap.__call__", "f2poly.ringmap", HOT, None),
    ("f2poly", "total_steenrod_square", "f2poly.square", HOT, None),
    ("f2poly", "elementary_symmetric", "f2poly.elementary_symmetric", SPAN, None),
    ("bcom_o2", "bcom_o2_algebra", "bcom_o2.algebra", SPAN, None),
    ("bcom_o2", "line_pair_algebra", "bcom_o2.line_pair_algebra", SPAN, None),
    ("bcom_o2", "euler_algebra", "bcom_o2.euler_algebra", SPAN, None),
    ("bcom_o2", "inversion_pullback", "bcom_o2.inversion_pullback", SPAN, None),
    ("bcom_o2", "line_pair_restriction", "bcom_o2.line_pair_restriction", SPAN, None),
    ("bcom_o2", "so2_restriction", "bcom_o2.so2_restriction", SPAN, None),
    ("bcom_o2", "a2_class", "bcom_o2.a2_class", SPAN, None),
    ("bcom_o2", "splitting_oracle_w2_tensor", "bcom_o2.splitting_oracle", SPAN, None),
    ("bcom_o2", "direct_sum", "bcom_o2.direct_sum", SPAN, None),
    ("bcom_o2", "tensor_line", "bcom_o2.tensor_line", SPAN, None),
    ("bcom_o2", "tensor_rank2", "bcom_o2.tensor_rank2", SPAN, None),
    ("surfaces", "surface_algebra", "surfaces.surface_algebra", SPAN, None),
    ("surfaces", "units_group", "surfaces.units_group", SPAN, _unit_elements),
    ("surfaces", "FiniteAbelianGroup.invariant_factors", "surfaces.units_group", SPAN, None),
    ("surfaces", "ko_presentation", "surfaces.ko_presentation", SPAN, _relations),
    ("surfaces", "verify_kocom_products", "surfaces.verify_kocom_products", SPAN, None),
    ("surfaces", "nonstandard_data", "surfaces.nonstandard_data", SPAN, None),
    ("suites", "run_suite", "suites.run_suite", SPAN, _checks),
    ("suites", "cocycle_suite", "suites.cocycle_suite", SPAN, None),
    ("suites", "so3_suite", "suites.so3_suite", SPAN, None),
    ("suites", "char_class_suite", "suites.char_class_suite", SPAN, None),
    ("suites", "surface_suite", "suites.surface_suite", SPAN, None),
    ("report", "check", "report.check", HOT, None),
    ("report", "VerificationReport.to_json", "report.render", SPAN, None),
    ("report", "VerificationReport.text_lines", "report.render", SPAN, None),
    ("cli", "main", "cli.main", SPAN, None),
)

LAYERS = ("o2", "cocycles", "commuting", "integral", "f2poly", "bcom_o2", "surfaces", "suites", "report", "cli")

#: Per-layer metrics reported from one pass: (metric, kind, span name).
#: calls = wrapped calls, self = self seconds, total = inclusive seconds,
#: count = hook counter, layer = summed self seconds of the layer.
METRICS = (
    ("o2.path.built", "calls", "o2.path"),
    ("o2.path.segments", "count", "o2.path.segments"),
    ("o2.loop_degree.calls", "calls", "o2.loop_degree"),
    ("o2.self_s", "layer", "o2"),
    ("cocycles.power_cocycle.calls", "calls", "cocycles.power_cocycle"),
    ("cocycles.clutching_function.calls", "calls", "cocycles.clutching_function"),
    ("cocycles.bundle_class.calls", "calls", "cocycles.bundle_class"),
    ("cocycles.validate.calls", "calls", "cocycles.validate"),
    ("cocycles.self_s", "layer", "cocycles"),
    ("commuting.enumerate_components.calls", "calls", "commuting.enumerate_components"),
    ("commuting.components", "count", "commuting.components"),
    ("commuting.classify_component.calls", "calls", "commuting.classify_component"),
    ("commuting.boundary_matrix.self_s", "self", "commuting.boundary_matrix"),
    ("commuting.self_s", "layer", "commuting"),
    ("integral.smith_normal_form.calls", "calls", "integral.smith_normal_form"),
    ("integral.smith_normal_form.entries", "count", "integral.smith_normal_form.entries"),
    ("integral.smith_normal_form.self_s", "self", "integral.smith_normal_form"),
    ("integral.complex_check.self_s", "self", "integral.complex_check"),
    ("integral.self_s", "layer", "integral"),
    ("f2poly.mul.calls", "calls", "f2poly.mul"),
    ("f2poly.mul.self_s", "self", "f2poly.mul"),
    ("f2poly.reduce.calls", "calls", "f2poly.reduce"),
    ("f2poly.reduce.distinct_ratio", "distinct", "f2poly.reduce"),
    ("f2poly.ringmap.calls", "calls", "f2poly.ringmap"),
    ("f2poly.ringmap.self_s", "self", "f2poly.ringmap"),
    ("f2poly.square.calls", "calls", "f2poly.square"),
    ("f2poly.square.self_s", "self", "f2poly.square"),
    ("f2poly.basis.size", "count", "f2poly.basis.size"),
    ("f2poly.self_s", "layer", "f2poly"),
    ("bcom_o2.algebra_build_s", "total", "bcom_o2.algebra"),
    ("bcom_o2.self_s", "layer", "bcom_o2"),
    ("surfaces.units_group.self_s", "self", "surfaces.units_group"),
    ("surfaces.units.elements", "count", "surfaces.units.elements"),
    ("surfaces.ko_presentation.self_s", "self", "surfaces.ko_presentation"),
    ("surfaces.relations", "count", "surfaces.relations"),
    ("surfaces.self_s", "layer", "surfaces"),
    ("suites.self_s", "layer", "suites"),
    ("report.render_s", "total", "report.render"),
    ("checks.total", "count", "checks.total"),
    ("checks.failed", "count", "checks.failed"),
)


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, total seconds, self seconds]
        self.stack = []  # open calls: [child seconds, span index, name]
        self.spans = []  # [name, parent span index, start, seconds]
        self.counts = {}
        self.distinct = {}  # algebra -> distinct monomials it was asked to reduce

    def reset(self) -> None:
        for record in self.stats.values():
            record[:] = [0, 0.0, 0.0]
        self.stack.clear()
        self.spans = []
        self.counts = {key: 0 for _, kind, key in METRICS if kind == "count"}
        self.distinct = {}

    def _wrap(self, fn, name, mode, hook):
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        tracer = self

        if mode == COUNT:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                record[0] += 1
                hook(tracer, args, result)
                return result

        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1][1] if stack else -1
                if mode == HOT:
                    frame = [0.0, parent, name]
                else:
                    frame = [0.0, len(tracer.spans), name]
                    span = [name, parent, 0.0, 0.0]
                    tracer.spans.append(span)
                stack.append(frame)
                start = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    seconds = _perf() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += seconds
                    record[0] += 1
                    record[1] += seconds
                    record[2] += seconds - frame[0]
                    if mode == SPAN:
                        span[2] = start
                        span[3] = seconds
                if hook is not None:
                    hook(tracer, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Patch every entry of WRAPS; call once, after importing kocom."""
        loaded = [m for n, m in list(sys.modules.items()) if n == "kocom" or n.startswith("kocom.")]
        for module_name, attr, name, mode, hook in WRAPS:
            module = importlib.import_module(f"kocom.{module_name}")
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                if isinstance(original, classmethod):
                    setattr(owner, method, classmethod(self._wrap(original.__func__, name, mode, hook)))
                else:
                    setattr(owner, method, self._wrap(original, name, mode, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, mode, hook)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self.reset()

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out

    def pass_metrics(self) -> dict:
        """Every per-layer metric of the pass just traced."""
        layers = self.layer_self()
        out = {f"layer.{layer}": seconds for layer, seconds in layers.items()}
        for metric, kind, key in METRICS:
            if kind == "layer":
                out[metric] = layers[key]
            elif kind == "count":
                out[metric] = self.counts.get(key, 0)
            elif kind == "distinct":
                calls = self.stats[key][0]
                distinct = sum(len(s) for s in self.distinct.values())
                out[metric] = distinct / calls if calls else 0.0
            else:
                out[metric] = self.stats[key][{"calls": 0, "total": 1, "self": 2}[kind]]
        return out
