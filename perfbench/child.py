"""Closed-loop caller run in a fresh interpreter by ``run.py``.

Usage: ``python child.py SPEC.json`` runs the workload and writes a result
JSON; ``python child.py SPEC.json --probe`` only performs set-up and prints
``time.monotonic()`` at the moment it is ready for the first command.

Set-up is what every CLI call pays before any work: importing
``spinfringe``, building the parser and loading and validating the
workload's config files.  Then one caller calls ``spinfringe.cli.main(argv)``
in-process, one command after another, capturing stdout and stderr.  Pass 0
is a warm-up whose output files are kept for ``run.py`` to check; every
later pass must reproduce each file and each stdout byte for byte.  Timed
passes (at least two untraced) continue while another one fits in
``seconds``.  A ``calib.Sampler`` thread
measures the speed of the core throughout; each command and each pass
records the mean kernel time in its window.  With ``trace`` set, the
time is split between untraced passes and passes traced by
``tracer.Tracer``; the difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import calib


def _setup(spec: dict):
    import spinfringe
    import spinfringe.cli
    import spinfringe.config

    spinfringe.cli.build_parser()
    for path in spec["configs"]:
        spinfringe.config.load_config(path)
    return spinfringe


def _digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


class Runner:
    def __init__(self, spec: dict, package, sampler: calib.Sampler):
        self.spec = spec
        self.sampler = sampler
        self.cli = package.cli
        self.out_dir = Path(spec["out_dir"])
        self.keep_dir = Path(spec["keep_dir"])
        self.tracer = None
        self.passes: list[dict] = []
        self.first_stdout: list[str] = []
        self.first_digest: list[tuple] = []

    def _invoke(self, argv: list[str]) -> tuple[object, str, str | None]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising command is a failed command, not a dead run
            code, error = None, f"{type(exc).__name__}: {exc}"
        if err.getvalue() and error is None:
            error = err.getvalue().strip()[:500]
        return code, out.getvalue(), error

    def run_pass(self) -> dict:
        commands = self.spec["commands"]
        times, results = [], []
        traced = self.tracer is not None
        if traced:
            self.tracer.reset()
        cals = []
        t_pass = time.perf_counter()
        for k, command in enumerate(commands):
            t0 = time.perf_counter()
            invoke = self._invoke
            if traced:
                self.tracer.command[0] = k
                invoke = self.tracer.wrap(invoke, f"bench.{command['kind']}", "bench")
            code, stdout, error = invoke(command["argv"])
            t1 = time.perf_counter()
            times.append(t1 - t0)
            cals.append(self.sampler.mean_between(t0, t1)[0])
            results.append((code, stdout, error))
        t_end = time.perf_counter()
        first = not self.passes
        record = {"wall": t_end - t_pass, "times": times, "cals": cals,
                  "cal": self.sampler.mean_between(t_pass, t_end)[0],
                  "traced": traced, "codes": [], "errors": [], "bytes": 0}
        for k, (command, (code, stdout, error)) in enumerate(zip(commands, results)):
            name = command["output"]
            path = self.out_dir / name if name else None
            digest = (_digest(path) if path else None, hashlib.sha256(stdout.encode()).hexdigest())
            if path is not None and path.is_file():
                record["bytes"] += path.stat().st_size
                if first:
                    os.replace(path, self.keep_dir / name)
                else:
                    path.unlink()
            if first:
                self.first_stdout.append(stdout)
                self.first_digest.append(digest)
            elif error is None and digest != self.first_digest[k]:
                error = f"{command['kind']}: output differs from pass 0"
            record["codes"].append(code)
            record["errors"].append(error)
        if traced:
            from tracer import layer_metrics

            summary = self.tracer.summary()
            record["layers"] = layer_metrics(summary)
            record["calls"] = summary["calls"]
        self.passes.append(record)
        return record

    def loop(self, seconds: float, min_passes: int) -> None:
        """At least ``min_passes`` passes, then more while the next is expected to fit in ``seconds``."""
        t_start = time.perf_counter()
        walls = []
        while True:
            walls.append(self.run_pass()["wall"])
            elapsed = time.perf_counter() - t_start
            if len(walls) >= min_passes and elapsed + statistics.median(walls) > seconds:
                return


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    package = _setup(spec)
    ready = time.monotonic()
    if "--probe" in argv:
        print(repr(ready))
        return 0
    with calib.Sampler() as sampler:
        runner = Runner(spec, package, sampler)
        runner.run_pass()  # warm-up; its outputs are the reference for every later pass
        seconds = spec["seconds"]
        if spec["trace"]:
            from tracer import Tracer

            runner.loop(seconds * spec["untraced_share"], 1)
            tracer = Tracer()
            tracer.install(package)
            runner.tracer = tracer
            runner.loop(seconds * (1.0 - spec["untraced_share"]), 1)
            tracer.save(spec["spans"])
        else:
            runner.loop(seconds, 2)  # a median of at least two, even in a slow phase
    import numpy

    result = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "first_stdout": runner.first_stdout,
        "passes": runner.passes,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
