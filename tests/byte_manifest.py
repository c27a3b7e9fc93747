"""The byte-identity manifest: CLI runs whose outputs are pinned by sha256, and the script that pins them.

Each case is one ``spinfringe`` command line, run in-process in a fresh
directory with a relative output path, so its stdout names no temporary
directory.  ``byte_manifest.json`` holds, per case, the sha256 of every output
file and of stdout, their line counts and every 50th line as text, plus the
fingerprint of the host that wrote it.  ``test_byte_manifest.py`` compares the
digests on that host; on another fingerprint it compares the stored lines, with
every number within 4 ulp, since numpy's SIMD loops and libm may move last bits.

Regenerate (prints every digest that changed) with

    PYTHONPATH=src python tests/byte_manifest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from spinfringe.cli import main
from spinfringe.config import OUTPUT_DIR_ENV

MANIFEST = Path(__file__).with_name("byte_manifest.json")

#: Lines stored per output for the comparison on another host: line 0, 50, 100, ...
ROW_STRIDE = 50

#: How far apart a stored number and its rerun may lie on another host, in units in the last place.
ULP_BOUND = 4


def _irregular_grating() -> dict:
    """64 slits about 2 um apart, each moved by up to 0.5 um, so no two baselines coincide."""
    draw = random.Random(64)  # the stdlib generator's stream is stable across Python versions
    positions = [(k - 31.5) * 2e-6 + (draw.random() - 0.5) * 1e-6 for k in range(64)]
    return {"slit_positions": positions, "samples": 2001}


_IRREGULAR = _irregular_grating()


#: name -> (argv, config document or None); a document is written to config.json and passed as --config.
CASES = {
    # the README's CLI examples
    "readme-simulate": (["simulate", "-o", "fringe.csv"], None),
    "readme-grating": (["simulate", "--slit-count", "4", "--separation", "1e-6", "--samples", "2001",
                        "-o", "grating.csv"], None),
    "readme-detection": (["simulate", "--detection", "1", "-o", "flat.csv"], None),
    "readme-sg": (["simulate", "--sg-factor", "1", "-o", "sg.csv"], None),
    "readme-compare": (["compare", "-o", "table.csv"], None),
    "readme-geometry": (["geometry", "--slit-count", "3", "-o", "angles.csv"], None),
    "verify": (["verify"], None),
    # simulate in both formats, both conventions, without and with the SG stage on either factor
    **{
        f"simulate-{convention}-{stage}-{fmt}": (
            ["simulate", "--samples", "401", "--phase-convention", convention, *sg_flags,
             "--output-format", fmt, "-o", f"out.{fmt}"], None)
        for fmt in ("csv", "json")
        for convention in ("half", "paper")
        for stage, sg_flags in (("plain", []),
                                ("sg1", ["--sg-factor", "1", "--sg-axis-angle", "0.3"]),
                                ("sg2", ["--sg-factor", "2", "--sg-axis-angle", "-0.7"]))
    },
    **{
        f"compare-detection-{fmt}": (
            ["compare", "--slit-count", "3", "--detection", "2", "--samples", "401",
             "--output-format", fmt, "-o", f"out.{fmt}"], None)
        for fmt in ("csv", "json")
    },
    **{
        f"geometry-7-{fmt}": (
            ["geometry", "--slit-count", "7", "--samples", "201", "--output-format", fmt, "-o", f"out.{fmt}"], None)
        for fmt in ("csv", "json")
    },
    # JSON numbers: zeros and powers of two (abs_diff), integer digits and 3-digit exponents
    "compare-plain-json": (["compare", "--samples", "401", "--output-format", "json", "-o", "out.json"], None),
    **{
        f"simulate-i0-{i0}-json": (
            ["simulate", "--samples", "401", "--i0", i0, "--output-format", "json", "-o", "out.json"], None)
        for i0 in ("12345.678", "1e200", "3e-250")
    },
    "irregular-64-simulate": (["simulate", "--config", "config.json", "-o", "out.csv"], _IRREGULAR),
    "irregular-64-compare": (["compare", "--config", "config.json", "-o", "out.csv"], _IRREGULAR),
}


def fingerprint() -> dict:
    """What decides the last bits: machine, numpy and Python versions, and numpy's SIMD ``found`` list."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "python": "%d.%d" % sys.version_info[:2],
        "simd_found": [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]],
    }


def run_case(name: str, directory: Path) -> dict[str, str]:
    """Run one case in the empty ``directory``; its stdout and each output file's text, by name."""
    argv, document = CASES[name]
    if document is not None:
        (directory / "config.json").write_text(json.dumps(document), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            os.environ.pop(OUTPUT_DIR_ENV, None)
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0 or stderr.getvalue():
        raise AssertionError(f"{name}: exit {code}, stderr {stderr.getvalue()!r}")
    outputs = {"stdout": stdout.getvalue()}
    for path in sorted(directory.iterdir()):
        if path.name != "config.json":
            outputs[path.name] = path.read_bytes().decode("utf-8")
    return outputs


def record(text: str) -> dict:
    """The manifest entry of one output."""
    lines = text.split("\n")
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "lines": len(lines),
        "rows": lines[::ROW_STRIDE],
    }


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def row_mismatch(expected: str, actual: str) -> str | None:
    """Why ``actual`` is not ``expected`` up to ``ULP_BOUND`` ulp per number, or None if it is."""
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return f"text differs: {expected!r} != {actual!r}"
    want = np.array(_NUMBER.findall(expected), dtype=float)
    got = np.array(_NUMBER.findall(actual), dtype=float)
    if want.size != got.size:
        return f"number count differs: {expected!r} != {actual!r}"
    bound = ULP_BOUND * np.spacing(np.maximum(np.abs(want), np.abs(got)))
    far = np.abs(want - got) > bound
    if far.any():
        return f"{float(want[far][0])!r} != {float(got[far][0])!r} by more than {ULP_BOUND} ulp in {actual!r}"
    return None


def build_manifest() -> dict:
    """Every case's output entries, with this host's fingerprint."""
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            directory = Path(tmp) / name
            directory.mkdir()
            cases[name] = {output: record(text) for output, text in run_case(name, directory).items()}
    return {"fingerprint": fingerprint(), "cases": cases}


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))["cases"] if MANIFEST.exists() else {}
    new = build_manifest()
    for name, outputs in new["cases"].items():
        for output, entry in outputs.items():
            if old.get(name, {}).get(output, {}).get("sha256") != entry["sha256"]:
                print(f"changed: {name} {output}")
    for name in old.keys() - new["cases"].keys():
        print(f"removed: {name}")
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(new['cases'])} cases)")
