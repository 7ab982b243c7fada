"""One benchmark worker process: set up, then run timed passes.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, pass budget and output directory, and
whether to trace.  The worker imports kocom from the checkout's src/,
builds the workload's inputs, prints READY (the end of set-up), runs a
cold pass and warm passes until its budget is spent, with a calibration
loop before the first pass and after each one, and prints one JSON
line with pass times, per-operation results and, when tracing, per-layer
metrics.  Results are condensed (hashes, counts, rendered groups) after
each pass, outside the timed region; run.py checks them against its
oracles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class OverBudget(Exception):
    """Raised by SIGALRM when an operation outlives its budget."""


def _alarm(signum, frame):
    raise OverBudget()


def call_with_budget(fn, seconds: float):
    """fn() interrupted after `seconds` of wall time with OverBudget."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# -- workloads: (label, operation) lists and result condensers ---------------


def verify_all_ops(inputs, out_path):
    from kocom import cli

    (k_lo, k_hi), (n_lo, n_hi) = inputs["k_range"], inputs["n_range"]
    argv = ["verify", "all", f"--k-range={k_lo}..{k_hi}", f"--n-range={n_lo}..{n_hi}", "--out", str(out_path)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def condense(rc):
        data = out_path.read_bytes()
        summary = json.loads(data)["summary"]
        return {"rc": rc, "total": summary["total"], "failed": summary["failed"], "sha": sha(data)}

    return [("verify all", run, condense)]


def char_deep_ops(inputs):
    from kocom import suites

    def op(cap):
        return lambda: suites.run_suite("char-classes", {"degree_cap": cap})

    def condense(report):
        by_id = {c.check_id: c for c in report.checks}
        return {
            "total": len(report.checks),
            "failed": sorted(c.check_id for c in report.checks if not c.passed),
            "involution": by_id["char.involution"].actual,
        }

    return [(f"cap={cap}", op(cap), condense) for cap in inputs["caps"]]


def char_deep_probe(inputs):
    """Graded dimensions of each algebra, for the Hilbert-series oracle."""
    from kocom import bcom_o2

    out = {}
    for cap in inputs["caps"]:
        def dims(cap=cap):
            alg = bcom_o2.bcom_o2_algebra(cap)
            return [alg.dimension(d) for d in range(cap + 1)]

        try:
            out[str(cap)] = call_with_budget(dims, workloads.OP_BUDGET_S)
        except Exception as exc:  # reported to run.py as a failed probe
            out[str(cap)] = f"{type(exc).__name__}: {exc}"
    return out


def surface_wide_ops(inputs):
    from kocom import surfaces

    def op(label):
        def run():
            surface = surfaces.Surface.parse(label)
            text = surfaces.ko_presentation(surface).to_text()
            group = surfaces.units_group(surfaces.surface_algebra(surface))
            return text, str(group.invariant_factors()), len(group)

        return run

    def condense(result):
        text, factors, elements = result
        return {"sha": sha(text), "factors": factors, "elements": elements}

    return [(label, op(label), condense) for label in inputs["surfaces"]]


def component_complex_ops(inputs):
    from kocom import commuting

    built = {}

    def build():
        built.clear()  # drop the previous pass's complex before building
        built["complex"] = commuting.component_complex(inputs["top"])
        return built["complex"]

    def homology(p):
        return lambda: built["complex"].homology(p)

    ops = [("build", build, lambda cx: {"ranks": list(cx.ranks)})]
    ops += [(f"H{p}", homology(p), lambda group: {"group": str(group)}) for p in inputs["degrees"]]
    return ops


# -- the pass loop ------------------------------------------------------------


def run_pass(ops, tracer):
    """One timed sweep over the operations; returns (seconds, records, layers)."""
    if tracer is not None:
        tracer.reset()
    raw = []
    start = time.perf_counter()
    deadline = start + workloads.PASS_BUDGET_S
    for label, fn, _ in ops:
        left = deadline - time.perf_counter()
        if left <= 0:
            raw.append((label, None, "pass over budget"))
            continue
        try:
            raw.append((label, call_with_budget(fn, min(workloads.OP_BUDGET_S, left)), None))
        except OverBudget:
            raw.append((label, None, "over budget"))
        except Exception as exc:  # one failed operation must not end the pass
            raw.append((label, None, f"{type(exc).__name__}: {exc}"))
    seconds = time.perf_counter() - start
    layers = tracer.pass_metrics() if tracer is not None else None
    records = []
    for (label, result, error), (_, _, condense) in zip(raw, ops):
        record = {"op": label}
        if error is None:
            try:
                record.update(condense(result))
            except Exception as exc:
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        if error is not None:
            record["error"] = error
        records.append(record)
    return seconds, records, layers


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = sys.stdout
    signal.signal(signal.SIGALRM, _alarm)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import kocom
    import kocom.cli  # noqa: F401 - part of what every workload imports

    import_s = time.perf_counter() - start
    if not Path(kocom.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"kocom imported from {kocom.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    workload = spec["workload"]
    inputs = workloads.make_inputs(workload, spec["seed"], spec["tiny"])
    out_dir = Path(spec["out_dir"])
    if workload == "verify-all":
        ops = verify_all_ops(inputs, out_dir / f"report-{spec['tag']}.json")
    elif workload == "char-deep":
        ops = char_deep_ops(inputs)
    elif workload == "surface-wide":
        ops = surface_wide_ops(inputs)
    else:
        ops = component_complex_ops(inputs)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("READY", file=out, flush=True)
    calibration = [workloads.calibrate()]  # one more after every pass
    if spec["setup_only"]:
        print(json.dumps({"calibration": calibration}), file=out, flush=True)
        return 0

    passes = []  # seconds per pass, the first one cold
    record_sets = {}  # canonical JSON of a pass's records -> number of passes
    layers = []
    spans = None
    begin = time.perf_counter()
    while True:
        seconds, records, layer_metrics = run_pass(ops, tracer)
        calibration.append(workloads.calibrate())
        passes.append(seconds)
        key = json.dumps(records, sort_keys=True)
        record_sets[key] = record_sets.get(key, 0) + 1
        if layer_metrics is not None:
            layers.append(layer_metrics)
            if spans is None:
                spans = tracer.spans
        elapsed = time.perf_counter() - begin
        # At least one warm pass; the pass cap bounds the result's size.
        if len(passes) >= 2 and (elapsed + seconds > spec["budget_s"] or len(passes) >= 1000):
            break
    probe = char_deep_probe(inputs) if workload == "char-deep" else None
    if spans is not None:
        trace_path = out_dir / f"trace-{spec['tag']}.json"
        trace_path.write_text(json.dumps({"workload": workload, "seed": spec["seed"], "spans": spans}))
    result = {
        "import_s": import_s,
        "passes": passes,
        "calibration": calibration,
        "record_sets": [[json.loads(k), n] for k, n in record_sets.items()],
        "layers": layers,
        "probe": probe,
    }
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
