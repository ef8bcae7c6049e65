"""expander-lab benchmark: one workload, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-exhaustive --seed 1 --seconds 25 --trace 0

``--trace 0`` measures whole CLI invocations (see endtoend.py).  It first
times ``setup_s`` in fresh interpreters, then runs ``python -m expanderlab``
in child processes as a closed loop, one client and one invocation at a
time, for about ``--seconds``.  Every output is checked, and medians over
the invocations are reported.

``--trace 1`` runs the same invocation in this process, alternating
untraced and traced runs (see tracing.py), and reports the per-layer
metrics.

The metric names, units and order come from BENCHMARK.json.  A readable
report goes to stdout, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full result, with the
environment and every sample, is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import endtoend

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

SETUP_REPEATS = 9

# Per-invocation values kept in the result file and reported as medians.
SAMPLE_KEYS = ("wall_s", "cpu_s", "peak_rss_mb", "wall_raw_s", "cpu_raw_s", "speed")

# Prints the CPU seconds a fresh interpreter spends importing the CLI and
# building the workload's field, element table and polynomials.
SETUP_CODE = """\
import sys, time
start = time.process_time()
import expanderlab.cli
from expanderlab import parse_field, parse_poly
field = parse_field(sys.argv[1])
field.elements()
for text in sys.argv[2:]:
    parse_poly(text, field)
print(repr(time.process_time() - start))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("EXPANDER_LAB_BUDGET", None)  # the CLI reads it; inputs come from argv only
    return env


def end_to_end(workload, argv: list[str], seconds: int):
    """Set-up times, then a closed loop of invocations for about ``seconds``:
    the next one starts only if it is expected to finish in time, and there
    is at least one."""
    with endtoend.Core(ROOT, child_env()) as core:
        setup = []
        for _ in range(SETUP_REPEATS):
            run = core.run(["-c", SETUP_CODE, *workload.setup])
            if run["code"] != 0:
                raise RuntimeError(f"set-up failed: {run['stderr'][-300:]!r}")
            setup.append({"setup_s": float(run["stdout"]) * run["speed"],
                          "setup_raw_s": float(run["stdout"])})
        samples = []
        began = time.perf_counter()
        while True:
            start = time.perf_counter()
            run = core.run(["-m", "expanderlab", *argv])
            problem = (f"exit code {run['code']}: {run['stderr'][-300:]!r}" if run["code"]
                       else workload.check(argv, run["stdout"], run["stderr"]))
            if problem is not None:
                print(f"incorrect output: {problem}", file=sys.stderr)
            rows = run["stdout"].count(b"\n") - 1 if workload.unit else None
            samples.append({key: run[key] for key in SAMPLE_KEYS}
                           | {"ok": problem is None, "rows": rows,
                              "elapsed_s": time.perf_counter() - start})
            elapsed = time.perf_counter() - began
            if elapsed + statistics.median(s["elapsed_s"] for s in samples) > seconds:
                break
    return setup, samples


def tail_percentile(values: list[float]):
    """(P, value): the highest nearest-rank percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "expanderlab").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_rev": rev, "src_sha256": src_digest.hexdigest(),
            "loadavg_start": loadavg()}


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def report_end_to_end(workload, setup, samples, units) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    for name in SAMPLE_KEYS:
        values = [s[name] for s in samples]
        metrics[name] = statistics.median(values)
        unit = units.get(name, "x" if name == "speed" else "s")
        line = f"{name:<14}{metrics[name]:.6g} {unit}  median of {len(values)}"
        tail = tail_percentile(values)
        if tail:
            line += f", p{tail[0]} {tail[1]:.6g}"
        lines.append(line)
    for name in ("setup_s", "setup_raw_s"):
        metrics[name] = statistics.median(s[name] for s in setup)
        lines.append(f"{name:<14}{metrics[name]:.6g} s  median of {len(setup)}"
                     " fresh interpreters")
    if workload.unit:
        rows = samples[0]["rows"]
        name = f"{workload.unit}_per_s"
        lines.append(f"{name:<14}{rows / metrics['wall_s']:.6g} 1/s"
                     f"  {rows} {workload.unit} / median wall_s")
    failed = sum(not s["ok"] for s in samples)
    lines.append(f"{'failed_frac':<14}{failed / len(samples):.6g}"
                 f"  {failed} of {len(samples)} invocations")
    return metrics, lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: toy inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "expanderlab" / "__init__.py").is_file():
        print(f"error: {SRC / 'expanderlab'} not found; run from the root of an "
              "expander-lab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports expanderlab, so only once src is on the path

    workload = workloads.workload(args.workload, args.size)
    cli_args = workload.argv(args.seed)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    env = environment()

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size,
              "command": ["python", "-m", "expanderlab", *cli_args]}
    if args.trace:
        import tracing
        measured, attempted, failed, spans = tracing.traced_run(
            cli_args, workload.check, args.seconds)
        lines = [f"{name:<30}{measured.get(name, float('nan')):.6g} {units[name]}"
                 for name in units]
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(spans))
        result["spans_file"] = spans_path.name
    else:
        setup, samples = end_to_end(workload, cli_args, args.seconds)
        measured, lines = report_end_to_end(workload, setup, samples, units)
        attempted, failed = len(samples), sum(not s["ok"] for s in samples)
        result.update(setup_s=setup, samples=samples)
    env["loadavg_end"] = loadavg()
    missing = set(units) - set(measured)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": measured[name], "unit": units[name]} for name in units}
    result.update(environment=env, attempted=attempted, failed=failed, metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  size {args.size}  seconds {args.seconds}")
    print("command  " + " ".join(result["command"]))
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
