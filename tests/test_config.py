import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fsqubit.config import (ConfigError, convert, format_csv, parse_config, parse_csv,
                            read_csv)
from fsqubit.units import TWO_PI


def test_basic_parse_and_convert():
    text = "[drive]\ndetuning = -6 GHz\nrabi = 36 MHz\n"
    sections = parse_config(text)
    det = convert(sections["drive"]["detuning"], "frequency")
    assert det == -6e9 * TWO_PI
    assert convert(sections["drive"]["rabi"], "frequency") == 36e6 * TWO_PI


def test_comments_and_blank_lines():
    text = "# header\n[a]\nx = 1 ms  # trailing\n\n"
    sections = parse_config(text)
    assert convert(sections["a"]["x"], "time") == 1e-3


def test_missing_unit_is_an_error():
    sections = parse_config("[a]\ndetuning = -6\n")
    with pytest.raises(ConfigError) as err:
        convert(sections["a"]["detuning"], "frequency")
    assert "unit" in str(err.value)


def test_wrong_unit_kind():
    sections = parse_config("[a]\ndetuning = -6 ms\n")
    with pytest.raises(ConfigError):
        convert(sections["a"]["detuning"], "frequency")


def test_unknown_unit_reports_line_number():
    sections = parse_config("[a]\n\nx = 5 parsec\n")
    with pytest.raises(ConfigError) as err:
        convert(sections["a"]["x"], "length")
    assert ":3:" in str(err.value)


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("[a]\njust words\n")
    assert ":2:" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[a]\nx = 1 ms\nx = 2 ms\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("x = 1 ms\n")


def test_percent_and_dimensionless():
    sections = parse_config("[a]\nspread = 0.4 %\ncount = 12\n")
    assert convert(sections["a"]["spread"], "dimensionless") == pytest.approx(0.004)
    assert convert(sections["a"]["count"], "dimensionless") == 12


def test_ramp_units():
    sections = parse_config("[a]\nramp = 80 Hz/ms\n")
    assert convert(sections["a"]["ramp"], "ramp") == pytest.approx(TWO_PI * 80e3)


def test_angle_units():
    sections = parse_config("[a]\nbeta = 90 deg\n")
    assert convert(sections["a"]["beta"], "angle") == pytest.approx(TWO_PI / 4)


# ------------------------------------------------------------- numeric CSV

_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                -1.7976931348623157e308])


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS))
def test_csv_roundtrip_is_bit_exact(data):
    names = [f"c{k}" for k in range(data.shape[1])]
    text = format_csv({n: data[:, k] for k, n in enumerate(names)})
    header, back = _read_csv_bytes(text.encode())
    assert header == names
    assert back.shape == data.shape
    assert np.array_equal(back.view(np.int64), data.view(np.int64))


def test_format_csv_matches_repr_exact_reference():
    t = np.array([0.0, 1e-7, 2.0000000000000004e-7, -0.0])
    y = np.array([1 / 3, 5e-324, -1.7976931348623157e308, 0.1])
    want = "t_s,value\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, y))
    assert format_csv({"t_s": t, "value": y}) == want


def test_format_csv_header_only():
    assert format_csv({"a": [], "b": []}) == "a,b\n"
    header, data = parse_csv("a,b\n")
    assert header == ["a", "b"] and data.shape == (0, 2)


def test_parse_csv_headerless_two_columns():
    header, data = parse_csv("0,1.5\n1e-6,-2\n")
    assert header == []
    assert np.array_equal(data, [[0.0, 1.5], [1e-6, -2.0]])


def test_parse_csv_nan_first_row_is_data():
    with pytest.raises(ValueError, match=r"t.csv: non-finite 'column 1' on line 1"):
        parse_csv("nan,1\n1,2\n", source="t.csv")


def test_parse_csv_line_numbers_count_comments_and_blanks():
    text = "# run 7\n\nt,y\n# first block\n0,1\n\n1,2\n# note\n2,3\n"
    header, data = parse_csv(text)
    assert header == ["t", "y"] and np.array_equal(data, [[0, 1], [1, 2], [2, 3]])
    with pytest.raises(ValueError, match=r"t.csv: line 9 has 3 fields, expected 2"):
        parse_csv(text.replace("2,3", "2,3,4"), source="t.csv")
    with pytest.raises(ValueError, match=r"t.csv: 'x' is not a number on line 7"):
        parse_csv(text.replace("1,2", "1,x"), source="t.csv")
    with pytest.raises(ValueError, match=r"t.csv: non-finite 'y' on line 7"):
        parse_csv(text.replace("1,2", "1,inf"), source="t.csv")


def test_parse_csv_header_after_data_is_an_error():
    with pytest.raises(ValueError, match=r"'t' is not a number on line 3"):
        parse_csv("t,y\n0,1\nt,y\n1,2\n")


def _read_csv_bytes(raw: bytes, source: str | None = None):
    """`read_csv` of a temporary file holding `raw`.  The file is made here,
    not by a fixture, because hypothesis runs a test many times per fixture."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as f:
            f.write(raw)
        return read_csv(path, source)


# Texts whose UTF-8 files land near read_csv's plain path and across its gate: numbers,
# junk pieces (letters, `_`, `#`, `nan`, `inf`, an Arabic-Indic digit, whitespace) and every
# kind of line end, where `\x0c` and `\x85` end a line for the line parser but are
# whitespace to numpy.
_PIECES = [*"0123456789+-.e,_tx \t\r\n\x0c\x85#", "nan", "inf", "\u0663"]
_JUNK = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)
_PAD = st.sampled_from(["", " ", "\t", "\r", "\x0c", "\x85"])
_NUMBER = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
           | st.sampled_from(["0", "-1", "+.5", "2.5e-3", "1E5", "nan", "-inf"]))
_FIELD = st.tuples(_PAD, _NUMBER, _PAD).map("".join) | _JUNK


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 3))
    row = st.lists(_FIELD, min_size=width, max_size=width).map(",".join)
    lines = draw(st.lists(row | _JUNK, max_size=5))
    if draw(st.booleans()):
        lines.insert(0, ",".join("abc"[:width]))
    ends = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\n\n", "\n \n", "\n# note\n"])
    return "".join(line + draw(ends) for line in lines)


@settings(max_examples=400, deadline=None)
@given(_csv_texts() | _JUNK)
@example("t,y\n0,1\n1,2\n")  # plain
@example("t,y\r\n0,1\r\n")  # CR LF
@example("1\x0c,2\n")  # a form feed ends a line
@example("0\x85,1\n")  # so does NEL, which is not ASCII
@example("t\r0\r\n1\n")  # a lone CR inside the header line
@example("0,1\r1,2\r")  # lone CR line ends
@example("t,y\n0,1 # note\n")  # an inline comment
@example("\u0663,1\n")  # an Arabic-Indic digit
@example("t,y\n")  # header only
@example("t,y\n0,1\n1,2,3\n")  # ragged
@example("t,y\n0\n1\n")  # narrower than the header
@example("t,y\n0,nan\n")  # non-finite
@example("\nt,y\n0,1\n")  # a leading blank line
@example(" t,y\n0,1\n")  # a leading space
@example("t,y\n0,1\n1,2")  # no trailing newline
@example("t,y\r\n0,1\r\n1,2\r\n")  # a CR LF file
@example("\ufefft,y\n0,1\n")  # a UTF-8 byte order mark
def test_parse_csv_agrees_with_line_parser(text):
    def outcome(parse, arg):
        try:
            return parse(arg, "t.csv")
        except ValueError as err:
            return str(err)
    got, want = outcome(_read_csv_bytes, text.encode()), outcome(parse_csv, text)
    if isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
