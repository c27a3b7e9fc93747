"""Every output and stdout in byte_manifest.json is reproduced: byte for byte on the host that wrote it.

On a host with another fingerprint the digests are not compared; each output's
line count and every stored 50th line are, with every number within 4 ulp, and
a warning says so.  Regenerate the manifest only with ``tests/byte_manifest.py``.
"""

import json
import warnings

import numpy as np
import pytest

from byte_manifest import CASES, MANIFEST, ROW_STRIDE, ULP_BOUND, fingerprint, record, row_mismatch, run_case

_MANIFEST = json.loads(MANIFEST.read_text(encoding="utf-8"))


def _check_case(name, directory, same_host):
    expected = _MANIFEST["cases"][name]
    outputs = {output: record(text) for output, text in run_case(name, directory).items()}
    assert sorted(outputs) == sorted(expected)
    if same_host:
        for output, entry in outputs.items():
            assert entry["sha256"] == expected[output]["sha256"], f"{name}: {output} changed"
        return
    warnings.warn(f"host fingerprint {fingerprint()} is not the manifest's {_MANIFEST['fingerprint']}: "
                  f"compared every {ROW_STRIDE}th line within {ULP_BOUND} ulp, not the bytes")
    for output, entry in outputs.items():
        assert entry["lines"] == expected[output]["lines"], f"{name}: {output} line count"
        for k, (want, got) in enumerate(zip(expected[output]["rows"], entry["rows"])):
            why = row_mismatch(want, got)
            assert why is None, f"{name}: {output} line {k * ROW_STRIDE}: {why}"


def test_manifest_covers_every_case():
    assert sorted(_MANIFEST["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_manifest(name, tmp_path):
    _check_case(name, tmp_path, _MANIFEST["fingerprint"] == fingerprint())


def test_line_comparison_passes_where_the_bytes_do(tmp_path):
    with pytest.warns(UserWarning, match="not the manifest's"):
        _check_case("geometry-7-json", tmp_path, same_host=False)


def test_line_comparison_tolerates_4_ulp_and_no_more():
    x = 0.123456789
    near, far = float(np.nextafter(x, 1.0)), x + 5 * float(np.spacing(x))
    assert row_mismatch(f"{x!r},{x!r}", f"{x!r},{near!r}") is None
    assert row_mismatch(f"{x!r}", f"{far!r}") is not None
    assert row_mismatch("phi_1_2", "phi_1_3") is not None
    assert row_mismatch("PASS  x", "FAIL  x") is not None
