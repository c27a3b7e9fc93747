"""Self-test of the benchmark; no timing thresholds.

Usage (from the repository root)::

    python3 perfbench/selftest.py

* runs every workload's command list at tiny sizes, untraced and traced,
  and requires every output to pass its check, every metric named in
  ``BENCHMARK.json`` to be reported, and every layer a workload depends on
  to be called;
* feeds deliberately corrupted output files to the checker and requires
  each to be flagged, and a flagged output to count as a failed command;
* removes a traced public name and requires the tracer to name it;
* runs ``run.py`` from a copy holding only ``BENCHMARK.json`` and this
  directory, which must exit non-zero without printing a result.

Exits 0 when every test passes; prints one line per test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import run
import tracer
import workloads

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        FAILURES.append(what)


def _corrupt_value(path: Path, row: int, column: int, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = f"{float(cells[column]) + delta:.16e}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_workloads(benchmark: dict) -> None:
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    per_layer = [m["name"] for m in benchmark["per_layer"]]
    declared = [w["name"] for w in benchmark["workloads"]]
    expect(declared == list(workloads.NAMES), f"BENCHMARK.json workloads are {list(workloads.NAMES)}")
    for name in workloads.NAMES:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            work = run.SCRATCH / f"selftest-{name}-{int(trace)}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                line, details = run.run(name, 7, 0.1, trace, work, tiny=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            label = f"{name} trace={int(trace)}"
            problems = [d["problems"] for d in details if "problems" in d]
            expect(line["correct"] and line["failed"] == 0, f"{label}: correct, 0 failed {problems}")
            expect(line["attempted"] >= 2 * len(details[0]["workload"]["commands"]),
                   f"{label}: every command repeated")
            expect(list(line["metrics"]) == names, f"{label}: reports exactly the BENCHMARK.json metrics")
            expect(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                   f"{label}: metric values are numbers")


def test_corruption() -> None:
    work = run.SCRATCH / "selftest-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run.run("grating-even", 11, 0.1, False, work, tiny=True)
        built = workloads.build("grating-even", 11, work / "inputs", tiny=True)
        keep = work / "keep"
        stdout = {c.kind: f"wrote {keep / str(c.output)} ({c.samples} samples)\n" for c in built.commands}
        simulate, _, compare = built.commands
        expect(check.check_command(simulate, 0, stdout["simulate"], keep) == [],
               "pristine simulate output passes")
        _corrupt_value(keep / simulate.output, row=40, column=1, delta=1e-7)
        flagged = check.check_command(simulate, 0, stdout["simulate"], keep)
        expect(bool(flagged), f"corrupted simulate intensity is flagged {flagged}")

        compare_out = stdout["compare"] + "max_abs_diff = 0.0000000000000000e+00\n"
        _corrupt_value(keep / compare.output, row=7, column=2, delta=1e-6)
        flagged = check.check_command(compare, 0, compare_out, keep)
        expect(bool(flagged), f"corrupted compare oracle column is flagged {flagged}")

        passes = [{"codes": [0, 0, 0], "errors": [None, None, None]}] * 3
        expect(run.count_failures(passes, [flagged, [], []]) == (9, 3),
               "a flagged output fails every invocation that reproduced it")
        passes = [{"codes": [0, 0, 0], "errors": [None, None, None]},
                  {"codes": [0, 0, 0], "errors": [None, "simulate: output differs from pass 0", None]}]
        expect(run.count_failures(passes, [[], [], []]) == (6, 1),
               "a byte mismatch with pass 0 is a failed command")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_coverage_guard() -> None:
    """A span the metrics need that has lost its public binding is named in an error."""
    sys.path.insert(0, str(run.SRC))
    import spinfringe
    import spinfringe.cli
    import spinfringe.fringe

    saved = [(module, getattr(module, "measure_factor"))
             for module in (spinfringe, spinfringe.cli, spinfringe.fringe)]
    try:
        for module, _ in saved:
            delattr(module, "measure_factor")
        tracer.Tracer().install(spinfringe)
        message = ""
    except tracer.TraceCoverageError as exc:
        message = str(exc)
    finally:
        for module, value in saved:
            setattr(module, "measure_factor", value)
    expect("fringe.measure_factor" in message, f"a missing binding is named: {message!r}")


def test_bare_directory() -> None:
    bare = run.SCRATCH / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, str(bare / run.HERE.name / "run.py"), "--workload", "grating-even",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(done.returncode != 0 and '"correct"' not in done.stdout,
               f"without src/ run.py exits {done.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.SCRATCH.mkdir(exist_ok=True)
    test_corruption()
    test_coverage_guard()
    test_bare_directory()
    test_workloads(benchmark)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
