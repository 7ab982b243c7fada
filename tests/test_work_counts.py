"""Exact work counts of four kocom workloads, read through the benchmark's
tracer in one child process.

The child loads perfbench/tracer.py by path, installs it (there is no
uninstall, hence the child) and runs each workload once after a reset.  The
pins are the tracer's wrapped-call counts and its hook counters: counts
only, never seconds, so a refactor that adds or removes work fails here
without a clock.  A change that lowers a count updates its pin; one that
raises a count says why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import importlib.util, json, sys

import kocom.cli  # every kocom module is loaded before install() patches them
from kocom import commuting, suites, surfaces

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
tracer.install()


def component_pass():
    complex_ = commuting.component_complex(6)
    for p in range(1, 6):
        complex_.homology(p)


workloads = {
    "all": lambda: suites.run_suite("all"),
    "char-classes cap 32": lambda: suites.char_class_suite(32),
    "surface rp:40": lambda: suites.surface_suite(surfaces.nonorientable(40)),
    "component complex 6": component_pass,
}
out = {}
for name, run in workloads.items():
    tracer.reset()
    run()
    out[name] = {
        "calls": {span: record[0] for span, record in tracer.stats.items() if record[0]},
        "counts": {key: value for key, value in tracer.counts.items() if value},
    }
print(json.dumps(out))
"""

PINS = {
    "all": {
        "calls": {
            "bcom_o2.a2_class": 1, "bcom_o2.algebra": 1, "bcom_o2.direct_sum": 42,
            "bcom_o2.euler_algebra": 1, "bcom_o2.inversion_pullback": 2,
            "bcom_o2.line_pair_algebra": 1, "bcom_o2.line_pair_restriction": 1,
            "bcom_o2.so2_restriction": 1, "bcom_o2.splitting_oracle": 2,
            "bcom_o2.tensor_line": 18, "bcom_o2.tensor_rank2": 12,
            "cocycles.oriented_invariant": 9, "cocycles.power_cocycle": 144,
            "cocycles.so2_cocycle": 9, "cocycles.standard_cocycle": 34,
            "cocycles.tc_invariant": 20, "cocycles.tc_sum": 86, "cocycles.validate": 184,
            "commuting.boundary_matrix": 3, "commuting.canonical_tuple": 42,
            "commuting.classify_component": 28, "commuting.component_complex": 1,
            "commuting.enumerate_components": 8, "commuting.h2_bcom_so3": 1,
            "f2poly.algebra": 5, "f2poly.basis": 1, "f2poly.cls": 52, "f2poly.degree": 25,
            "f2poly.elementary_symmetric": 2, "f2poly.mul": 178, "f2poly.reduce": 921,
            "f2poly.ringmap": 188, "f2poly.ringmap_init": 7, "f2poly.square": 109,
            "integral.complex_check": 1, "integral.direct_sum": 1, "integral.from_orders": 21,
            "integral.homology": 2, "integral.smith_normal_form": 3,
            "o2.affine_path": 135, "o2.commutes": 1104, "o2.constant_path": 55,
            "o2.path": 135, "o2.pointwise_pow": 432,
            "report.check": 299,
            "suites.char_class_suite": 1, "suites.cocycle_suite": 1, "suites.run_suite": 5,
            "suites.so3_suite": 1, "suites.surface_suite": 1,
            "surfaces.ko_presentation": 8, "surfaces.nonstandard_data": 18,
            "surfaces.surface_algebra": 18, "surfaces.units_group": 20,
            "surfaces.verify_kocom_products": 7,
        },
        "counts": {
            "checks.total": 299, "commuting.components": 31, "f2poly.basis.size": 3,
            "integral.smith_normal_form.entries": 10, "o2.path.segments": 135,
            "surfaces.relations": 73, "surfaces.units.elements": 806,
        },
    },
    "char-classes cap 32": {
        "calls": {
            "bcom_o2.a2_class": 1, "bcom_o2.algebra": 1, "bcom_o2.euler_algebra": 1,
            "bcom_o2.inversion_pullback": 2, "bcom_o2.line_pair_algebra": 1,
            "bcom_o2.line_pair_restriction": 1, "bcom_o2.so2_restriction": 1,
            "bcom_o2.splitting_oracle": 2,
            "f2poly.algebra": 5, "f2poly.basis": 1, "f2poly.cls": 52, "f2poly.degree": 545,
            "f2poly.elementary_symmetric": 2, "f2poly.mul": 5794, "f2poly.reduce": 64475,
            "f2poly.ringmap": 4660, "f2poly.ringmap_init": 7, "f2poly.square": 3021,
            "report.check": 15, "suites.char_class_suite": 1,
        },
        "counts": {"f2poly.basis.size": 3},
    },
    "surface rp:40": {
        "calls": {
            "bcom_o2.direct_sum": 81, "bcom_o2.tensor_line": 40, "bcom_o2.tensor_rank2": 2,
            "integral.from_orders": 2, "report.check": 47, "suites.surface_suite": 1,
            "surfaces.nonstandard_data": 3, "surfaces.surface_algebra": 1,
            "surfaces.units_group": 2, "surfaces.verify_kocom_products": 1,
        },
        # units.elements counts the unit group's order, 2^41 here, not a loop.
        "counts": {"surfaces.units.elements": 2**41},
    },
    "component complex 6": {
        # boundary_matrix reads the labels it enumerates without a
        # canonical_tuple re-check.
        "calls": {
            "commuting.boundary_matrix": 6, "commuting.component_complex": 1,
            "commuting.enumerate_components": 13, "integral.complex_check": 1,
            "integral.homology": 5, "integral.smith_normal_form": 6,
        },
        "counts": {"commuting.components": 1711, "integral.smith_normal_form.entries": 31402},
    },
}


def test_work_counts_are_pinned():
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",  # leave perfbench/ as it is
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    }
    tracer = ROOT / "perfbench" / "tracer.py"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tracer)], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    counts = json.loads(child.stdout)
    assert list(counts) == list(PINS)
    for name, pinned in PINS.items():
        assert counts[name] == pinned, name
