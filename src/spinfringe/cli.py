"""Command-line interface: simulate fringe profiles, verify laws, compare with the oracle.

Subcommands
-----------
simulate   compute a fringe profile and write it as CSV or JSON
verify     run the self-check battery; exit 0 iff every law holds
compare    write per-angle model vs classical-oracle intensities
geometry   dump per-angle incidence angles and pair phases

Exit codes: 0 success, 1 verification failure, 2 config error (such as a screen
distance whose offsets (x - a_k)/L overflow), 3 I/O error.  Output files are
written atomically (temp file + rename) by ``_atomic_text``, the one owner of that
contract, with the mode ``open(path, "w")`` gives, or the replaced file's own, and
identical configs produce byte-identical files.
CSV numbers (``%.16e``) and JSON numbers (``repr``) are rendered per row block by ``render_profile(layout,
column_arrays)``, a numpy implementation of that format (not a new one), against the table's one ``_table_layout``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from .config import (
    _FIELD_NAMES,
    OUTPUT_FORMATS,
    ConfigError,
    SimulationConfig,
    default_config,
    load_config,
    merge_overrides,
    resolve_output_path,
)
from .fringe import (
    PHASE_CONVENTIONS,
    TRANSMITTED_CHOICES,
    _row_blocks,
    intensity_profile,
    measure_factor,  # noqa: F401 -- a public binding the benchmark's tracer wraps and its self-test removes
)
from .geometry import SlitGeometry, incidence_angles, pair_phase, slit_phases
from .oracle import classical_intensity, independent_intensity


#: Fixed 17-significant-digit decimal form; deterministic and lossless.  CSV blocks are
#: rendered by ``_decimal_parts`` and ``_csv_cells``, an implementation of this format, not another.
_FMT = "%.16e"
#: The digit engine's fast path takes 1e-280 <= |x| < 1e280, which keeps its power table split-safe.
_FAST_RANGE = 280
#: How near a rounding tie or a gap's edge the fast path gives up; its scaling error is below 2**-47.
_TIE_MARGIN = 2.0**-40
#: What joins consecutive rows of a table, and so consecutive row blocks, per output format.
_ROW_SEPARATOR = {"csv": "\n", "json": ",\n"}
#: Cells per row block (at least one row) that ``_write_table`` hands ``render_profile``, which renders it whole.
_CHUNK_CELLS = 2**13


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digit engine's tables, built on first use with exact ``int`` arithmetic: per exponent
    estimate E, 10**(16 - E) as fl(.), the rounded rest and fl(.)'s Veltkamp halves; then as zero-padded 4-byte
    words the sign byte (NUL or ``-``), lead digit and point and ``'%04d' % n``; as 8-byte ones, ``'e%+03d' % E``.
    """
    powers = []
    for k in range(17 + _FAST_RANGE, 15 - _FAST_RANGE, -1):  # column 0 is E = -1 - _FAST_RANGE
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        powers.append((hi, (num * hi_den - hi_num * den) / (den * hi_den), *_split(hi)))
    heads = b"".join(b"%s%d.\0" % (sign, d) for sign in (b"\0", b"-") for d in range(10))
    quads = b"".join(b"%04d" % n for n in range(10_000))
    exponents = b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-324, 309))
    heads, quads = (np.frombuffer(text, np.uint32) for text in (heads, quads))
    return np.array(powers).T.copy(), heads, quads, np.frombuffer(exponents, np.uint64)


def _split(x):
    """Veltkamp's split of x into high + low halves of at most 26 significant bits each."""
    high = x * 134217729.0 - (x * 134217729.0 - x)
    return high, x - high


def _decimal_parts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(D, E, missed, residual)``: ``_FMT % |x|`` is D's 17 digits as d.ddd...eE; zero gives (0, 0).

    y = |x| * 10**(16 - E), with E from ``log10``, is a double-double by Dekker's exact
    two-product.  Its high part is an integer above 2**53, so D = hi + rint(lo), with residual
    y - D, is exact unless lo is within ``_TIE_MARGIN`` of a tie or D leaves (10**16, 10**17), as
    a wrong E or a power of ten makes it.  Those cells and any outside the fast range are ``missed``
    and read back from ``_FMT`` itself, so no libm result decides a digit.
    """
    size = np.abs(values)
    fast = (size >= 10.0**-_FAST_RANGE) & (size < 10.0**_FAST_RANGE)
    size[~fast] = 1.0
    exponent = np.floor(np.log10(size)).astype(np.int64) + (_FAST_RANGE + 1)  # the power table's column
    p_hi, p_lo, p_high, p_low = _digit_tables()[0]
    high, low = _split(size)
    hi = size * p_hi.take(exponent)
    lo = high * p_high.take(exponent) - hi
    # ((high*p_high - hi) + high*p_low + low*p_high) + low*p_low + size*p_lo, one power row alive at a time
    for part, power in ((high, p_low), (low, p_high), (low, p_low), (size, p_lo)):
        lo += part * power.take(exponent)
    del size, high, low, part  # freed before the casts below, which would otherwise set the block's peak
    exponent -= _FAST_RANGE + 1
    near = np.rint(lo)
    mantissa = np.minimum(hi, 2.0**62, out=hi).astype(np.int64) + near.astype(np.int64)  # a cast-safe hi
    zero = values == 0
    mantissa[zero], exponent[zero] = 0, 0
    residual = np.subtract(lo, near, out=lo)
    exact = fast & (np.abs(residual) < 0.5 - _TIE_MARGIN) & (mantissa > 10**16) & (mantissa < 10**17)
    missed = np.flatnonzero(~(exact | zero))
    texts = [_FMT % value for value in np.abs(values[missed]).tolist()]
    mantissa[missed], exponent[missed] = [int(t[0] + t[2:18]) for t in texts], [int(t[19:]) for t in texts]
    return mantissa, exponent, missed, residual


def _csv_cells(block: np.ndarray) -> np.ndarray:
    """A finite (rows, columns) block's ``_FMT`` CSV text as zero-padded 28-byte cells, rendered whole: the
    sign-byte head, four ``'%04d'`` quads and the exponent word (``_digit_tables``), then the separator byte."""
    _, heads, quads, exponents = _digit_tables()
    values = block.ravel()
    mantissa, exponent = _decimal_parts(values)[:2]
    words = np.empty((values.size, 7), np.uint32)  # head, 4 quads, exponent; separator in the last byte
    lead = mantissa // 10**16
    words[:, 0], rest = heads.take(lead + 10 * np.signbit(values)), mantissa - lead * 10**16
    for column, place in enumerate((10**12, 10**8, 10**4, 1), 1):
        quad = rest // place
        words[:, column] = quads.take(quad)
        rest -= quad * place
    words[:, 5:].view(np.uint64)[:, 0] = exponents.take(exponent + 324)  # one unaligned 8-byte word
    text = words.view(np.uint8)
    text[:, 27] = ord(",")
    text[block.shape[1] - 1::block.shape[1], 27] = ord("\n")
    text[-1:, 27] = 0
    return text


def _shortest_parts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(M, E, missed)``: ``repr(|x|)`` is M's digits, less trailing zeros, as d.ddd...eE; zero gives (0, 0).

    ``repr`` is the shortest decimal that reads back as x, the nearest if several.  x's half-gaps are
    y * 2**-54 / f units of D's last digit (y = D + residual, f frexp's fraction; halved below a power
    of two), 0.555 to 11.1: D fits; of the candidates 10 or 100 apart the nearer that fits wins.  Near a
    gap's edge or a tie (``_TIE_MARGIN``), on a round-up to 10**17 or if missed, ``repr`` itself is read.
    """
    mantissa, exponent, missed, residual = _decimal_parts(values)
    above = np.abs(np.frexp(values)[0])  # f, exact; then the half-gap above, in the same name so f is freed
    below = np.where(above <= 0.5, 0.5, 1.0)  # a power of two's gap below is half its gap above; zero's too
    above = mantissa / np.maximum(above, 0.5) * 2.0**-54  # 0.5 stands in for zero's 0
    below *= above
    shortest, near = mantissa, np.full(values.shape, np.inf)
    for step in (10, 100):  # a 15-digit candidate that fits replaces a 16-digit one; temporaries go as they are read
        base = mantissa // step * step
        offset = np.add(mantissa - base, residual)
        down, up = below - offset, np.add(above, offset)  # how far inside its half-gap each candidate lies
        up -= step
        low, high, nearer = down > _TIE_MARGIN, up > _TIE_MARGIN, offset > step / 2  # base + step is the nearer
        for part in (down, up, np.subtract(offset, step / 2, out=offset)):
            np.minimum(near, np.abs(part, out=part), out=near)
        del down, up, offset
        base += (nearer & high | ~(nearer | low)) * step  # the nearer that fits
        shortest = np.where(low | high, base, shortest)
    missed = np.union1d(missed, np.flatnonzero((near <= _TIE_MARGIN) & (values != 0) | (shortest == 10**17)))
    from decimal import Decimal  # the fallback's only user, so it stays out of start-up
    texts = ["{:.16e}".format(Decimal(repr(value))) for value in np.abs(values[missed]).tolist()]
    shortest[missed], exponent[missed] = [int(t[0] + t[2:18]) for t in texts], [int(t[19:]) for t in texts]
    return shortest, exponent, missed


@functools.cache
def _json_tables() -> tuple[np.ndarray, ...]:
    """The JSON cells' tables, built on first use, as little-endian 8-byte words: per digit piece of ``_json_cells``
    (the sign and d1, d2-d4, d5-d6, d7-d10, d11-d14) its word, the power of ten that splits it off, its text there
    and the index of its last nonzero digit; d15-d17's text in word 3 and that index; the exponent text per E after
    it; 17 times each E's form; the mask per key; and per E in 4..15 the low, high and point bytes of words 1-3."""
    text, digits = (lambda parts: np.frombuffer(b"".join(parts), "<u8")), _digit_tables()[2].view(np.uint8)
    leads = text(b"%s0.000%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10))
    dotted = text(b"%c.%c.%c.\0\0" % tuple(b"%03d" % n) for n in range(1000))
    pairs = text(b"\0\0\0\0\0\0%02d" % n for n in range(100))
    quads = digits.view("<u4").astype("<u8")
    places = [np.zeros(20, np.uint8)] + [((np.arange(10**size) > 0) * (start + size - 1 - np.argmax(
        digits.reshape(-1, 4)[:10**size, :-size - 1:-1] > 48, 1))).astype(np.uint8)
        for start, size in ((1, 3), (4, 2), (6, 4), (10, 4), (14, 3))]  # d1, d2-d4, d5-d6, d7-d10, d11-d14, d15-d17
    forms = 17 * np.array([e + 4 if -4 <= e < 16 else 20 for e in range(-324, 309)])
    masks = np.zeros((21, 17, 32), np.uint8)  # d1-d4 are bytes 2i + 4, each with a point slot after it; d5-d17, i + 9
    for point, n in itertools.product(range(-4, 17), range(1, 18)):
        at = lambda i: 2 * i + 4 if i < 5 else i + 9 + (4 <= point < 16 and i > point + 1)  # past a moved point
        if point == 16:  # d[.ddd]e±dd(d)
            keep = [*map(at, range(1, n + 1)), *([7] if n > 1 else []), *range(27, 32)]
        elif point >= 0:  # ddd.ddd or ddd.0, whose 0 is the digit after the point
            keep = [*map(at, range(1, max(n, point + 2) + 1)), 2 * point + 7 if point < 4 else point + 11]
        else:  # 0.000ddd
            keep = [1, 2, *range(3, 2 - point), *map(at, range(1, n + 1))]
        masks[point + 4, n - 1, [0, *keep]] = 0xFF
    byte, point = np.arange(8, 32), np.arange(15, 27)[:, None]  # words 1-3; the point's byte is E + 11
    shifts = np.stack([(byte < point) * 0xFF, (byte > point) * 0xFF, (byte == point) * ord(".")]).astype(np.uint8)
    pieces = [*zip((0, 1, 1, 2, 2), (10**16, 10**13, 10**11, 10**7, 10**3), (leads, dotted, pairs, quads, quads << 32),
                   places)]
    triples = text(b"%03d\0\0\0\0\0" % n for n in range(1000))
    return (pieces, triples, places[-1], _digit_tables()[3].view("<u8") << 24, forms,
            masks.view("<u8").reshape(-1, 4).T.copy(), shifts.view("<u8").transpose(0, 2, 1))


def _table_layout(columns, output_format: str, scalars: dict) -> tuple[str, str, list | None, tuple | None]:
    """A table's layout, built once per table: the text before and after its rows (the CSV header, or ``json.dumps``
    of the JSON document, ``scalars`` or ``columns``, with ``Infinity`` for its rows), the column order of a keyed
    row (``None`` for an array row or CSV) and ``_json_record``'s ``heads`` (``None`` for CSV): the texts before a
    row's numbers, each NUL-padded on the left to whole 8-byte words of its own, as one (columns, words) array per
    run of columns whose texts take equal words, and the padded text after the last number.  ValueError for a format
    not in ``OUTPUT_FORMATS``."""
    if output_format not in OUTPUT_FORMATS:
        raise ValueError(f"must be one of {list(OUTPUT_FORMATS)}, got {output_format!r}")
    if output_format == "csv":
        return ",".join(columns) + "\n", "\n", None, None
    order = sorted(range(len(columns)), key=columns.__getitem__) if scalars else None
    closing = "}" if scalars else "]"
    # (text, count) pairs: an array row's texts after its first are one text, so it is built once and repeated
    segments = ([(f"{',' if k else '    {'}\n      {json.dumps(columns[j])}: ", 1) for k, j in enumerate(order)]
                if scalars else [("    [\n      ", 1), (",\n      ", len(columns) - 1)][: len(columns)])
    runs = [np.frombuffer(b"".join(text.encode("ascii").rjust(8 * width, b"\0") * count for text, count in run),
                          "<u8").reshape(-1, width)
            for width, run in itertools.groupby(segments, lambda segment: -(-len(segment[0]) // 8))]
    closing = f"\n    {closing}{_ROW_SEPARATOR['json']}".encode("ascii")
    heads = runs, np.frombuffer(closing.rjust(-(-len(closing) // 8) * 8, b"\0"), "<u8")
    # the frame last, so its texts (one column name a line) are not alive while the row texts are built
    key, document = ("samples", scalars) if scalars else ("rows", {"columns": columns})
    text = json.dumps({**document, key: float("inf")}, sort_keys=True, indent=2)
    head, _, tail = text.partition(f'"{key}": Infinity')  # no finite number or escaped string renders so
    return f'{head}"{key}": [\n', f"\n  ]{tail}\n", order, heads


def _json_record(block: np.ndarray, heads: tuple[list, np.ndarray]) -> np.ndarray:
    """A finite block's JSON rows as NUL-padded words (``json.dumps`` escapes NUL in a key), rendered whole: per row
    ``heads``' texts, each but the last followed by its column's ``_json_cells`` cell; no separator after the last."""
    (rows, count), (runs, closing) = block.shape, heads
    cells = _json_cells(block.ravel()).reshape(4, rows, count).transpose(1, 2, 0)
    record = np.empty((rows, sum(run.size + 4 * len(run) for run in runs) + closing.size), "<u8")
    units, end, column = [], 0, 0
    for run in runs:  # each run's (rows, columns, words) view, its texts placed in the first row
        units.append(record[:, end:(end := end + run.size + 4 * len(run))].reshape(rows, len(run), len(run[0]) + 4))
        units[-1][:1, :, :-4] = run
    record[:1, end:] = closing
    record[1:] = record[:1]  # every row's texts in one copy
    for view in units:
        view[..., -4:] = cells[:, column:(column := column + view.shape[1])]
    record.view(np.uint8)[-1:, -len(_ROW_SEPARATOR["json"]):] = 0
    return record


def _json_cells(values: np.ndarray) -> np.ndarray:
    """Finite values' ``repr`` text as 32-byte cells, built word-major in a (4, cells) array of 8-byte words: the sign
    byte and ``0.000``, d1-d4 each with a point slot after it, d5-d17 packed, then ``e±dd(d)``.  The mask of a cell's
    key, 17 times its form (E + 4 for -4 <= E < 16, else 20) plus its digit count less one, keeps ``repr``'s bytes;
    where 4 <= E < 16, d(E+2) on move one byte up first, and the point takes the gap after d(E+1)."""
    pieces, triples, triple_places, exponents, forms, masks, shifts = _json_tables()
    rest, exponent, _ = _shortest_parts(values)
    rest += np.signbit(values) * 10**17  # d1 and the sign are one piece
    cells, last = np.zeros((4, values.size), "<u8"), 0
    for word, place, table, places in pieces:  # the sign and d1, d2-d4, d5-d6, d7-d10, d11-d14; the rest is d15-d17
        piece = rest // place
        rest -= piece * place
        cells[word] |= table.take(piece)
        last = np.maximum(last, places.take(piece))
    cells[3] = triples.take(rest) | exponents.take(exponent + 324)
    moved = np.flatnonzero((exponent >= 4) & (exponent < 16))
    if moved.size:  # 1e4 <= |x| < 1e16
        low, high, point = shifts.take(exponent[moved] - 4, axis=2)
        old = cells.take(moved, axis=1)
        for word, new in zip(cells[1:], old[1:] & low | (old[1:] << 8 | old[:-1] >> 56) & high | point):
            word[moved] = new
    key = forms.take(exponent + 324) + np.maximum(last, triple_places.take(rest))
    for word, mask in zip(cells, masks):
        word &= mask.take(key)
    return cells


def render_profile(layout, column_arrays) -> str:
    """Render one row block of equal-length float columns, 1-D or 2-D blocks of them, as output-file text.

    ``layout`` is the table's ``_table_layout``, which holds its format and row form.  Rows are joined by
    ``_ROW_SEPARATOR`` of the format, with none before the first or after the last, so consecutive blocks
    join by it too.  A CSV row is one line, every number in ``_FMT``.  A JSON row is indented as
    ``json.dumps(document, sort_keys=True, indent=2)`` places it: an object keyed by column name (the
    ``samples`` of a document with scalars) or an array (the ``rows`` of ``{"columns", "rows"}``).
    JSON numbers are ``repr``, the ``float.__repr__`` that ``json`` writes, so the text is byte-identical
    to ``json.dumps``.  A non-finite value, which ``json`` would spell otherwise, raises ``ValueError``.
    Both formats end in one text chain (``tobytes``, ``translate``, ``decode``)
    started from the NUL-padded byte record as a temporary, so each step's input
    is freed once the next returns and at most two copies of it are alive.
    """
    _, _, order, heads = layout
    block = np.column_stack(column_arrays)
    if not np.isfinite(block).all():
        raise ValueError("output tables hold finite numbers only")
    if order is not None:
        block = block[:, order]  # frees the unordered copy
    # no name binds the record: one would hold it through the chain, a third copy at the peak
    return (_csv_cells(block) if heads is None else _json_record(block, heads)
            ).tobytes().translate(None, b"\0").decode("ascii")


@contextlib.contextmanager
def _atomic_text(path: Path):
    """A UTF-8 text handle on a new temp file beside ``path``, which replaces ``path`` on a clean exit; any exception,
    ``KeyboardInterrupt`` too, removes it and the directories made for it and leaves ``path`` as it was."""
    made = list(itertools.takewhile(lambda parent: not parent.exists(), path.parents))
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # umask applies, as in open(path, "w")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            with contextlib.suppress(FileNotFoundError):  # an overwritten file keeps its mode
                os.chmod(tmp_name, stat.S_IMODE(os.stat(path).st_mode))
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        for made_dir in made:  # innermost first; one that another writer filled meanwhile stays
            with contextlib.suppress(OSError):
                made_dir.rmdir()
        raise


def _write_table(config: SimulationConfig, columns, table, **scalars) -> Path:
    """Write a table in the config's output format through ``_atomic_text``; ``table`` is the whole columns, or a
    function from a row slice to that block's columns (``config.samples`` rows).  The table's one ``_table_layout``
    gives the head, the ``render_profile`` text of each block of ``_CHUNK_CELLS`` cells or one row, however wide,
    and the tail, which go to the handle in turn, so neither the text nor a function's table is ever held whole."""
    count = config.samples if callable(table) else len(table[0])
    block_of = table if callable(table) else lambda rows: [column[rows] for column in table]
    layout = _table_layout(columns, config.output_format, scalars)
    head, tail, *_ = layout
    with _atomic_text(path := resolve_output_path(config)) as handle:
        handle.write(head)
        step = max(1, _CHUNK_CELLS // len(columns))
        for start in range(0, count, step):
            if start:
                handle.write(_ROW_SEPARATOR[config.output_format])
            rows = slice(start, min(start + step, count))
            handle.write(render_profile(layout, block_of(rows)))
        handle.write(tail)
    return path


def run_simulate(config: SimulationConfig) -> Path:
    """Compute and atomically write the profile; returns the output path."""
    layout, grid = config.validate()
    profile = intensity_profile(layout, grid, config.phase_convention, config.transmitted, config.detection,
                                config.i0, config.sg_stage)
    return _write_table(config, ["theta", "intensity"], [profile.thetas, profile.intensities], i0=profile.i0)


def run_compare(config: SimulationConfig) -> tuple[Path, float]:
    """Write the per-angle model/oracle table; returns (path, max abs difference)."""
    layout, grid = config.validate()
    # only the intensities are kept: the profile's copy of the grid would be a second theta column
    intensities = intensity_profile(layout, grid, config.phase_convention, config.transmitted, config.detection,
                                    config.i0, config.sg_stage).intensities
    oracle = independent_intensity if len(config.detection) else classical_intensity
    # the oracle sees the layout moved to its midpoint (far off axis, k*a_k loses digits) unless that merges slits
    mid = (layout.slit_positions[0] + layout.slit_positions[-1]) / 2
    with contextlib.suppress(ConfigError):
        layout = SlitGeometry([a - mid for a in layout.slit_positions], layout.wavelength, layout.screen_distance)
    # row blocks: no (S, N) phase table; the oracle reduces each row on its own
    reference = np.concatenate([config.i0 * oracle(slit_phases(layout, grid[rows]))
                                for rows in _row_blocks(grid.size, layout.n_slits)])
    diffs = np.abs(intensities - reference)
    max_abs_diff = float(diffs.max())
    header = ["theta", "intensity", "oracle", "abs_diff"]
    table = [grid, intensities, reference, diffs]
    return _write_table(config, header, table, max_abs_diff=max_abs_diff), max_abs_diff


def run_geometry_dump(config: SimulationConfig) -> Path:
    """Write per-angle incidence angles alpha_i and pair phases phi_i_j, computed per row block."""
    layout, grid = config.validate()
    n = layout.n_slits
    first, second = (index + 1 for index in np.triu_indices(n, 1))
    header = ["theta"] + [f"alpha_{i}" for i in range(1, n + 1)]
    header += [f"phi_{i}_{j}" for i, j in zip(first, second)]
    return _write_table(config, header, lambda rows: [
        grid[rows], incidence_angles(layout, grid[rows]), pair_phase(layout, grid[rows], first, second)])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every caller, so treat it as read-only."""
    parser = argparse.ArgumentParser(
        prog="spinfringe",
        description="Spin-pair correlation model of multi-slit interference.",
    )
    flags = argparse.ArgumentParser(add_help=False)  # the config flags of the three output commands
    flags.add_argument("--config", metavar="PATH", help="JSON config file")
    flags.add_argument("--wavelength", type=float, help="wavelength in meters")
    flags.add_argument("--screen-distance", type=float, help="aperture-to-screen distance in meters")
    flags.add_argument(
        "--slit-positions",
        type=_float_list,
        metavar="A1,A2,...",
        help="comma-separated transverse slit positions in meters",
    )
    flags.add_argument("--slit-count", type=float, help="number of evenly spaced slits")
    flags.add_argument("--separation", type=float, help="center-to-center slit separation in meters")
    flags.add_argument("--theta-min", type=float, help="lower screen angle in radians")
    flags.add_argument("--theta-max", type=float, help="upper screen angle in radians")
    flags.add_argument("--samples", type=float, help="number of grid points (>= 2)")
    flags.add_argument("--phase-convention", metavar="|".join(PHASE_CONVENTIONS), help="fringe phase convention")
    flags.add_argument("--transmitted", metavar="|".join(TRANSMITTED_CHOICES),
                       help="which invariant state reaches the screen")
    flags.add_argument(
        "--detection",
        type=_float_list,
        metavar="I,J,...",
        help="comma-separated which-way detector slit indices ('' for none)",
    )
    flags.add_argument("--sg-factor", type=float, metavar="1|2", help="tensor factor measured by the SG stage")
    flags.add_argument("--sg-axis-angle", type=float, help="SG stage measurement axis in radians")
    flags.add_argument("--i0", type=float, help="intensity scale")
    flags.add_argument("--output-format", metavar="|".join(OUTPUT_FORMATS), help="output file format")
    flags.add_argument("-o", "--output", dest="output_path", metavar="PATH", help="output file path")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("simulate", "compute a fringe profile and write it to a file"),
        ("compare", "tabulate model vs classical-oracle intensities"),
        ("geometry", "dump incidence angles and pair phases over the grid"),
    ):
        commands.add_parser(name, help=doc, parents=[flags])
    commands.add_parser("verify", help="run the self-check battery")
    # no option starts "-" then a digit, so such a token (-1e-6, -.5,1) is a value
    for each in (parser, *commands.choices.values()):
        each._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _float_list(text: str) -> tuple[float, ...]:
    """A comma-separated flag value as numbers; blank entries are skipped."""
    return tuple(float(piece) for piece in text.split(",") if piece.strip() != "")


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    """The ``--config`` file's config, or the default, with the flags given; each flag's ``dest`` is its field."""
    config = load_config(args.config) if args.config else default_config()
    overrides = {name: value for name, value in vars(args).items() if name in _FIELD_NAMES}
    stage = {"factor": args.sg_factor, "axis_angle": args.sg_axis_angle}
    stage = {key: value for key, value in stage.items() if value is not None}
    return merge_overrides(config, {**overrides, "sg_stage": stage or None})  # None keeps the config's stage


def run_verify() -> int:
    """Print the law-check report; return 0 iff every check passed."""
    from . import verify  # the battery's only caller, so it stays out of start-up
    results = verify.run_checks()
    print(verify.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify()
        config = _config_from_args(args)
        if args.command == "compare":
            path, max_abs_diff = run_compare(config)
        else:
            path = (run_simulate if args.command == "simulate" else run_geometry_dump)(config)
        print(f"wrote {path} ({config.samples} samples)")
        if args.command == "compare":
            print(f"max_abs_diff = {_FMT % max_abs_diff}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
