"""spinfringe benchmark: one workload, one closed-loop caller, oracle-checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grating-even --seed 1 --seconds 20 --trace 0

The workload's command list is generated from ``--seed`` (see
``workloads.py``).  Set-up time is measured in separate fresh interpreters;
the commands run in one more fresh, single-threaded interpreter
(``child.py``) that calls ``spinfringe.cli.main(argv)`` in-process, one
command after another, for ``--seconds`` seconds.  Every output file of the
warm-up pass is checked against the independent reference in ``check.py``,
and every later pass must reproduce it byte for byte.  Times are reported
at reference machine speed (see ``calib.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics from a traced run with ``--trace 1``.  The lines
before it give the workload's properties, the environment and, for every
subcommand, the median, the highest percentile with at least ten samples
beyond it, and the sample count.

Exit status 2, with no result line, when the checkout holds no
``src/spinfringe`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"  # inputs and outputs of a run; removed when it ends
SPANS_DIR = ROOT / ".perfbench_out"  # span dumps of traced runs

SETUP_PROBES = 7
#: Share of a traced run spent on untraced passes, the baseline for the overhead.
UNTRACED_SHARE = 0.35
#: Every thread pool numpy may use is capped to this, so children run single-threaded.
THREAD_CAP = 1
CHILD_TIMEOUT_S = 170.0
OUTPUT_DIR_ENV = "SPINFRINGE_OUTPUT_DIR"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"run_s": "s", "simulate_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env(out_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # absolute, so the child's cwd does not matter
    env["PYTHONHASHSEED"] = "0"
    env[OUTPUT_DIR_ENV] = str(out_dir)
    for name in THREAD_VARS:
        env[name] = str(THREAD_CAP)
    return env


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples: list[float]) -> dict:
    """Median, the highest listed percentile with >= 10 samples beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"median": statistics.median(ordered) if ordered else None, "n": n,
               "tail_pct": None, "tail": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            summary["tail_pct"] = pct
            summary["tail"] = statistics.quantiles(ordered, n=1000, method="inclusive")[int(pct * 10) - 1]
            break
    return summary


def count_failures(passes: list[dict], problems: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) over every invocation of every pass.

    An invocation fails if it exits non-zero, raises, differs from pass 0,
    or reproduces a pass-0 output that failed its check (``problems[k]``
    lists those of command k).
    """
    attempted = failed = 0
    for record in passes:
        for k, (code, error) in enumerate(zip(record["codes"], record["errors"])):
            attempted += 1
            failed += code != 0 or error is not None or bool(problems[k])
    return attempted, failed


def speed(record: dict) -> float:
    """Factor from a pass's measured times to times at reference speed."""
    return calib.REFERENCE_S / record["cal"]


def scaled_times(record: dict) -> list[float]:
    """A pass's command times at reference speed, each by the speed in its own window."""
    return [t * calib.REFERENCE_S / cal for t, cal in zip(record["times"], record["cals"])]


def _probe_setup(spec_path: Path, env: dict) -> float:
    t_spawn = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path), "--probe"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t_spawn


def _measure(spec: dict, work: Path) -> tuple[list[float], float, dict]:
    """Run the set-up probes and the looping child.

    Returns (raw set-up times, set-up speed factor, child result).
    """
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = _child_env(Path(spec["out_dir"]))
    calib.pin_to_one_cpu()  # children inherit it, so each sampler sees the core that works
    _probe_setup(spec_path, env)  # fills the bytecode cache; users do not pay that per call
    with calib.Sampler() as sampler:
        t_probes = time.perf_counter()
        setups = [_probe_setup(spec_path, env) for _ in range(SETUP_PROBES)]
        setup_cal, _ = sampler.mean_between(t_probes, time.perf_counter())
    subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)], env=env, cwd=ROOT,
                   timeout=CHILD_TIMEOUT_S, check=True, stdout=subprocess.DEVNULL)
    child = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    return setups, calib.REFERENCE_S / setup_cal, child


def _layer_metrics(workload_name: str, traced: list[dict], run_s: float,
                   messages: list[str]) -> dict:
    """Per-layer metrics: medians of times over traced passes, counts that repeat."""
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith("_per_s"):
            metrics[name] = statistics.median(v / speed(r) for v, r in zip(values, traced))
        elif name.endswith("_s"):
            metrics[name] = statistics.median(v * speed(r) for v, r in zip(values, traced))
        else:
            if len(set(values)) != 1:
                messages.append(f"trace: {name} differs between passes: {values}")
            metrics[name] = values[0]
    metrics["cli.output_bytes"] = traced[0]["bytes"]
    metrics["trace.overhead_s"] = statistics.median(sum(scaled_times(r)) for r in traced) - run_s
    uncalled = [name for name in workloads.MUST_CALL[workload_name]
                if any(r["calls"].get(name, 0) == 0 for r in traced)]
    if uncalled:
        messages.append("trace: layers doing this workload's work were not called: "
                        + ", ".join(uncalled))
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
        tiny: bool = False) -> tuple[dict, list[dict]]:
    """Run one workload in ``work``; returns (result line, detail records)."""
    inputs, out_dir, keep_dir = work / "inputs", work / "out", work / "keep"
    for directory in (inputs, out_dir, keep_dir):
        directory.mkdir(parents=True)
    workload = workloads.build(workload_name, seed, inputs, tiny=tiny)
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    spec = {
        "commands": [c.as_dict() for c in workload.commands],
        "configs": workload.write_configs(inputs),
        "out_dir": str(out_dir),
        "keep_dir": str(keep_dir),
        "result": str(work / "result.json"),
        "spans": str(SPANS_DIR / f"spans-{workload_name}.npz"),
        "seconds": seconds,
        "trace": trace,
        "untraced_share": UNTRACED_SHARE,
    }
    setups, setup_speed, child = _measure(spec, work)

    problems = [
        check.check_command(command, code, stdout, keep_dir)
        for command, code, stdout in zip(workload.commands, child["passes"][0]["codes"],
                                          child["first_stdout"])
    ]
    attempted, failed = count_failures(child["passes"], problems)
    messages = sorted({m for p in problems for m in p}
                      | {e for r in child["passes"] for e in r["errors"] if e})

    timed = child["passes"][1:]
    untraced = [r for r in timed if not r["traced"]]
    kinds = [c.kind for c in workload.commands]
    scaled = [scaled_times(r) for r in untraced]
    by_kind = {kind: [times[k] for times in scaled for k, x in enumerate(kinds) if x == kind]
               for kind in dict.fromkeys(kinds)}
    per_pass_run = [sum(times) for times in scaled]
    run_s = statistics.median(per_pass_run)

    if trace:
        metrics = _layer_metrics(workload_name, [r for r in timed if r["traced"]], run_s, messages)
        units = tracer.metric_units()
    else:
        metrics = {
            "run_s": run_s,
            "simulate_s": statistics.median(
                statistics.fmean(times[k] for k, x in enumerate(kinds) if x == "simulate")
                for times in scaled),
            "setup_s": statistics.median(setups) * setup_speed,
            "peak_rss_mb": child["maxrss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS

    details = [
        {"workload": workload.properties()},
        {"environment": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "thread_cap": THREAD_CAP,
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "python": child["python"],
            "numpy": child["numpy"],
            "git_sha": _git_sha(),
            "loop": "closed, 1 caller, in-process spinfringe.cli.main",
        }},
        {"timings_s": {"run": tail(per_pass_run),
                       "setup": tail([t * setup_speed for t in setups]),
                       **{kind: tail(samples) for kind, samples in by_kind.items()}},
         "reference_speed": f"times scaled to a core where the calibration kernel takes {calib.REFERENCE_S} s",
         "speed_factor": {"setup": setup_speed, "passes": [speed(r) for r in timed]},
         "raw_s": {"setup": setups, "run": [r["wall"] for r in untraced]}},
        {"failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted,
                          "base": "command invocations, warm-up pass included"}},
    ]
    if messages:
        details.append({"problems": messages[:20]})
    line = {"correct": failed == 0 and not messages, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinfringe" / "__init__.py").is_file():
        print(f"error: no spinfringe sources under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        line, details = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for record in details:
        print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
