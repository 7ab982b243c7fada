"""kocom benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a kocom checkout and measures the kocom under its
src/.  One closed-loop client: fresh worker processes run one at a time,
each doing set-up, a cold pass and warm passes (see worker.py).  The
runner checks every operation's result with the workload's oracle
(oracles.py, outside the timed regions) and prints a summary, then one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: setup_s, cold_s, warm_s and
peak_rss_mb, as medians over the run's processes or passes.  Times are
scaled to the reference CPU speed (workloads.CAL_REF_S) by a calibration
loop run in the same process next to each timed region; the summary also
prints the unscaled seconds.  --trace 1 alternates traced and untraced
workers and reports the per-layer metrics of tracer.py, with the tracing
overhead on cold_s.  Exit code 0 when a
result was printed, 2 when there is no kocom source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: set-up is sampled at least this many times per run
SETUP_SAMPLES = 10
#: hard limit on the workers' wall time; a worker still running is killed
RUN_LIMIT_S = 140.0
#: limit on the one real `kocom verify all` process of a verify-all run
CLI_TIMEOUT_S = 20.0

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
#: per-layer metrics this runner adds to tracer.METRICS
TRACE_EXTRA = {"cli.import_s", "trace.cold_s", "trace.untraced_cold_s", "trace.overhead_s"}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # per-layer counts repeat exactly
    return env


def run_worker(spec: dict, deadline: float) -> dict:
    """Start one worker and wait for it.  Returns its set-up time (spawn to
    READY), peak RSS, exit code and parsed result (None if it printed none)."""
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
    )
    data, ready_at, killed = b"", None, False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                if not sel.select(left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                data += chunk
                if ready_at is None and b"\n" in data:
                    ready_at = time.perf_counter()
    except BaseException:
        proc.kill()
        raise
    finally:
        # wait4, not Popen.wait: it also returns the child's peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    lines = data.decode(errors="replace").splitlines()
    result = None
    if len(lines) >= 2 and lines[0] == "READY":
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {
        "setup_s": None if ready_at is None else ready_at - spawned,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "rc": proc.returncode,
        "killed": killed,
        "result": result,
    }


def cli_report_sha(inputs: dict, tag: str) -> tuple:
    """Run the real `kocom verify all` process once; (exit code, report sha)."""
    out = OUT_DIR / f"cli-{tag}.json"
    out.unlink(missing_ok=True)
    (k_lo, k_hi), (n_lo, n_hi) = inputs["k_range"], inputs["n_range"]
    proc = subprocess.run(
        [sys.executable, "-m", "kocom.cli", "verify", "all",
         f"--k-range={k_lo}..{k_hi}", f"--n-range={n_lo}..{n_hi}", "--out", str(out)],
        stdout=subprocess.DEVNULL,
        env=worker_env(),
        cwd=ROOT,
        timeout=CLI_TIMEOUT_S,
    )
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else None
    return proc.returncode, digest


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f} min={min(values):.4f} max={max(values):.4f}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    parser.add_argument("--plant", action="store_true", help="corrupt one expected value; the run must fail")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kocom" / "__init__.py").is_file():
        print(f"error: no kocom source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    run_deadline = started + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    oracle = oracles.ORACLES[args.workload](inputs, ROOT, args.plant)
    processes = 2 if args.tiny else workloads.PROCESSES[args.workload]
    budget = args.seconds / processes

    attempted = failed = 0
    notes = []  # (operation, reason) for the summary
    setup, cold, warm, rss, imports = [], [], [], [], []
    raw = {"setup_s": [], "cold_s": [], "warm_s": []}  # unscaled seconds, for the summary
    traced_cold, layers = [], []
    record_sets = []

    def count(ops: int, failures: list, times: int = 1) -> None:
        nonlocal attempted, failed
        attempted += ops * times
        failed += len({op for op, _ in failures}) * times
        notes.extend(failures)

    def sample_setup(target: int) -> None:
        while len(setup) < target and time.perf_counter() < run_deadline:
            worker = run_worker(worker_spec(args, "setup", 0, False, setup_only=True), run_deadline)
            if worker["result"] is None or worker["rc"] != 0:
                count(1, [("set-up", f"exit code {worker['rc']}")])
                return
            setup.append(worker["setup_s"] * workloads.CAL_REF_S / worker["result"]["calibration"][0])
            raw["setup_s"].append(worker["setup_s"])

    last_worker_s = 0.0
    for i in range(processes):
        elapsed = time.perf_counter() - started
        if i >= 2 and elapsed + last_worker_s > args.seconds:
            break  # the next worker would end after --seconds
        traced = bool(args.trace) and i % 2 == 0
        worker_started = time.perf_counter()
        worker = run_worker(worker_spec(args, i, budget, traced), run_deadline)
        result = worker["result"]
        if result is None:
            why = "killed at the run's time limit" if worker["killed"] else f"exit code {worker['rc']}"
            count(1, [(f"worker {i}", f"no result ({why})")])
            continue
        if worker["rc"] != 0:
            count(1, [(f"worker {i}", f"exit code {worker['rc']}")])
        cal = result["calibration"]
        scales = [workloads.CAL_REF_S / ((a + b) / 2) for a, b in zip(cal, cal[1:])]
        passes = [seconds * f for seconds, f in zip(result["passes"], scales)]
        setup.append(worker["setup_s"] * workloads.CAL_REF_S / cal[0])
        imports.append(result["import_s"] * workloads.CAL_REF_S / cal[0])
        raw["setup_s"].append(worker["setup_s"])
        if traced:
            traced_cold.append(passes[0])
            layers.extend(
                {k: v * f if k.endswith("_s") or k.startswith("layer.") else v for k, v in m.items()}
                for m, f in zip(result["layers"], scales)
            )
        else:
            rss.append(worker["rss_mb"])
            cold.append(passes[0])
            warm.extend(passes[1:])
            raw["cold_s"].append(result["passes"][0])
            raw["warm_s"].extend(result["passes"][1:])
        record_sets.extend(result["record_sets"])
        if result["probe"] is not None:
            count(len(result["probe"]), oracle.probe_failures(result["probe"]))
        if not args.trace:  # extra set-up samples, spread over the run like the workers
            sample_setup(SETUP_SAMPLES * (i + 1) // processes)
        last_worker_s = time.perf_counter() - worker_started
    if not args.trace:
        sample_setup(SETUP_SAMPLES)

    if args.workload == "verify-all":
        try:
            rc, oracle.reference_sha = cli_report_sha(inputs, f"{args.seed}")
        except subprocess.TimeoutExpired:
            rc = "none, timed out"
        count(1, [] if rc == 0 else [("kocom verify all process", f"exit code {rc}")])
    for records, times in record_sets:
        count(len(records), oracle.failures(records), times)

    metrics = {}
    if not args.trace:
        values = {"setup_s": setup, "cold_s": cold, "warm_s": warm, "peak_rss_mb": rss}
        for name, samples in values.items():
            print(f"{name}: {quartiles(samples)}")
            if name in raw:
                print(f"  unscaled {name}: {quartiles(raw[name])}")
            if samples:
                metrics[name] = {"value": statistics.median(samples), "unit": END_TO_END_UNITS[name]}
    else:
        mismatched = layer_metrics(layers, imports, traced_cold, cold, metrics)
        count(len(mismatched), mismatched)
    expected = set(END_TO_END_UNITS) if not args.trace else {m[0] for m in tracer.METRICS} | TRACE_EXTRA
    if set(metrics) != expected:
        count(1, [("metrics", f"missing {sorted(expected - set(metrics))}")])
    attempted = max(attempted, 1)
    for op, reason in list(dict.fromkeys(notes))[:20]:
        print(f"FAIL {op}: {reason}")
    print(f"error_rate: {failed / attempted:.6f} ({failed} failed of {attempted} operations)")
    print(f"wall: {time.perf_counter() - started:.1f}s")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def worker_spec(args, tag, budget: float, traced: bool, setup_only: bool = False) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "budget_s": budget, "trace": traced, "setup_only": setup_only,
        "out_dir": str(OUT_DIR), "tag": f"{args.workload}-{args.seed}-{tag}",
    }


def layer_metrics(layers, imports, traced_cold, untraced_cold, out) -> list:
    """Fill `out` with the per-layer metrics of the traced passes: counts
    from the first pass, times as medians.  Returns a failure for each
    count that does not repeat exactly in every traced pass."""
    if not layers:
        return []
    mismatched = []
    for name, kind, _ in tracer.METRICS:
        values = [m[name] for m in layers]
        if name.endswith("_s"):
            out[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            if any(v != values[0] for v in values):
                mismatched.append((name, f"count differs between traced passes: {sorted(set(values))}"))
            out[name] = {"value": values[0], "unit": "ratio" if kind == "distinct" else "count"}
    out["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    cold_traced = statistics.median(traced_cold)
    out["trace.cold_s"] = {"value": cold_traced, "unit": "s"}
    if untraced_cold:
        cold_plain = statistics.median(untraced_cold)
        out["trace.untraced_cold_s"] = {"value": cold_plain, "unit": "s"}
        out["trace.overhead_s"] = {"value": cold_traced - cold_plain, "unit": "s"}
    layer_self = {layer: statistics.median(m[f"layer.{layer}"] for m in layers) for layer in tracer.LAYERS}
    total = sum(layer_self.values()) or 1.0
    print("self time by layer: " + ", ".join(
        f"{layer} {100 * s / total:.1f}%" for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1])))
    print(f"traced passes: {len(layers)}; traced cold: {quartiles(traced_cold)}; untraced cold: {quartiles(untraced_cold)}")
    return mismatched


if __name__ == "__main__":
    sys.exit(main())
