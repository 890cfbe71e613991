"""The byte parsers of every input file, driven without files.

Any bytes give a value or a ConfigError/DataError, never a bare
ValueError, struct.error, UnicodeDecodeError or IndexError; and
read_numeric_csv reads back what write_csv writes.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levosc.cli import _parse_config
from levosc.detection import load_geometry
from levosc.errors import ConfigError, DataError
from levosc.fitting import load_tau_series_csv
from levosc.formats import read_numeric_csv, write_csv
from levosc.media import ViscosityTable
from levosc.ringdown import BIN_MAGIC, BIN_VERSION, read_block_bin

# each parser, with a start of a well-formed file so that the examples
# also reach past the first check
PARSERS = {
    "config": (lambda data: _parse_config(data, "config.json"),
               b'{"ringdown": {"seed": '),
    "geometry": (lambda data: load_geometry(data, "geom.json"),
                 b'{"transmitter": {"center_m": '),
    "viscosity": (lambda data: ViscosityTable.from_csv(data, "eta.csv"),
                  b"T_K,eta_Pa_s\n1.0,2.3e-5\n"),
    "tau-series": (lambda data: load_tau_series_csv(data, "tau.csv"),
                   b"T_K,tau_s\n0.02,1.2e5\n"),
    "rngd": (lambda data: read_block_bin(data, "block.rngd"),
             BIN_MAGIC + struct.pack("<I", BIN_VERSION)),
}

# text made of the characters these formats are written in, and packed
# float64 values, the body of a binary block
FORMAT_TEXT = st.text("0123456789.,-+eE#=:[]{}\" \nnaifNI_", max_size=80)
PACKED_FLOATS = st.lists(st.floats(), max_size=6).map(
    lambda xs: struct.pack(f"<{len(xs)}d", *xs))


@pytest.mark.parametrize("parse, start", PARSERS.values(), ids=PARSERS)
@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(), FORMAT_TEXT.map(str.encode),
                      PACKED_FLOATS),
       prefixed=st.booleans())
def test_any_bytes_parse_or_raise_a_levosc_error(parse, start, data,
                                                 prefixed):
    try:
        parse(start + data if prefixed else data)
    except (ConfigError, DataError):
        pass


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=1,
                max_size=20))
def test_read_numeric_csv_reads_back_write_csv(rows):
    buf = io.StringIO()
    write_csv(buf, ["a comment"], ["x", "y", "z"], list(zip(*rows)))
    assert read_numeric_csv(buf.getvalue().encode(), "t.csv", "test",
                            3) == rows


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 9000])
def test_write_csv_writes_chunks_as_one_table(rows):
    # rows across chunk boundaries, NaN, inf, ints, bools and a list
    # column; zip stops at the shortest column
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows)
    x[::7] = np.nan
    x[::11] = np.inf
    columns = [x, np.arange(rows), x > 0, x.tolist(),
               rng.random(max(rows - 3, 0))]
    want = "# c\nx,k,b,l,short\n" + "".join(
        ",".join("" if text == "nan" else text for text in map(repr, row))
        + "\n" for row in zip(*(np.asarray(c).tolist() for c in columns)))
    buf = io.StringIO()
    write_csv(buf, ["c", None], ["x", "k", "b", "l", "short"], columns)
    assert buf.getvalue() == want
