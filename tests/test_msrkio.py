import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspmsrk.cli import main
from sspmsrk.methods import forward_euler, ssprk33
from sspmsrk.msrkio import (
    MethodFileError,
    dumps_method,
    loads_method,
    read_method,
    write_method,
)
from sspmsrk.theory import gen_second_order

from conftest import random_valid_method

BENCH_METHODS = Path(__file__).resolve().parents[1] / "perfbench" / "methods"


def assert_methods_equal(a, b):
    assert (a.s, a.k, a.name, a.claimed_order) == (b.s, b.k, b.name, b.claimed_order)
    for key in ("D", "Ahat", "A", "theta", "bhat", "b"):
        np.testing.assert_array_equal(getattr(a, key), getattr(b, key))


class TestRoundTrip:
    @pytest.mark.parametrize("method", [
        forward_euler(), ssprk33(), gen_second_order(2, 2), gen_second_order(4, 3),
    ])
    def test_named_methods(self, method):
        assert_methods_equal(loads_method(dumps_method(method)), method)

    @pytest.mark.parametrize("path", sorted(BENCH_METHODS.glob("*.msrk")), ids=lambda p: p.name)
    def test_written_files_read_back_to_the_same_text(self, path):
        text = path.read_text()
        assert dumps_method(loads_method(text)) == text

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "method.msrk"
        m = gen_second_order(3, 4)
        write_method(m, path)
        assert_methods_equal(read_method(path), m)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.text().filter(lambda n: n == n.strip() and "".join(n.splitlines()) == n))
    def test_random_methods_bit_exact(self, s, k, seed, name):
        m = random_valid_method(np.random.default_rng(seed), s, k)
        m = dataclasses.replace(m, name=name)
        assert_methods_equal(loads_method(dumps_method(m)), m)

    @pytest.mark.parametrize("name", ["  padded  ", "a\nb", "carriage\r", "tab\t", "\u2028"])
    def test_name_that_would_not_read_back_rejected(self, name):
        with pytest.raises(ValueError, match="field 'name'"):
            dumps_method(dataclasses.replace(forward_euler(), name=name))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected_on_write(self, value):
        b = np.array(ssprk33().b)
        b[0] = value
        with pytest.raises(MethodFileError, match=r"non-finite coefficient .*\(field 'b'\)$"):
            dumps_method(dataclasses.replace(ssprk33(), b=b))

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + dumps_method(forward_euler())
        assert_methods_equal(loads_method(text), forward_euler())


class TestErrors:
    def test_wrong_format_tag(self):
        text = dumps_method(forward_euler()).replace("msrk/1", "msrk/9")
        with pytest.raises(MethodFileError, match="unsupported format"):
            loads_method(text)

    def test_missing_field(self):
        text = "\n".join(
            line for line in dumps_method(forward_euler()).splitlines()
            if not line.startswith("theta")
        )
        with pytest.raises(MethodFileError, match="theta"):
            loads_method(text)

    def test_garbage_line(self):
        text = dumps_method(forward_euler()) + "not a key value pair\n"
        with pytest.raises(MethodFileError, match="key = value"):
            loads_method(text)

    def test_non_integer_scalar(self):
        text = dumps_method(forward_euler()).replace("s = 1", "s = one")
        with pytest.raises(MethodFileError, match="not an integer"):
            loads_method(text)

    def test_malformed_array(self):
        text = dumps_method(forward_euler()).replace("b = [1]", "b = [1, oops]")
        with pytest.raises(MethodFileError, match="not a numeric array"):
            loads_method(text)

    @pytest.mark.parametrize("field", ["s", "k"])
    def test_no_stage_or_step_rejected(self, field):
        text = dumps_method(forward_euler()).replace(f"{field} = 1", f"{field} = 0")
        with pytest.raises(MethodFileError, match="^s and k must be at least 1$"):
            loads_method(text)

    def test_shape_mismatch_reported(self):
        text = dumps_method(forward_euler()).replace("b = [1]", "b = [0.5, 0.5]")
        with pytest.raises(MethodFileError):
            loads_method(text)

    def test_error_carries_line_context(self):
        text = dumps_method(forward_euler()).replace("s = 1", "s = one")
        with pytest.raises(MethodFileError) as excinfo:
            loads_method(text)
        assert excinfo.value.field == "s"
        assert excinfo.value.line is not None

    def test_repeated_key_rejected(self):
        text = dumps_method(forward_euler()) + "b = [2]\n"
        with pytest.raises(MethodFileError, match="repeated key") as excinfo:
            loads_method(text)
        assert excinfo.value.field == "b"
        assert excinfo.value.line == len(text.splitlines())

    def test_huge_step_count_rejected(self):
        text = dumps_method(forward_euler()).replace("k = 1", "k = 1000000000000")
        with pytest.raises(MethodFileError):
            loads_method(text)
        with pytest.raises(MethodFileError, match=r"\(line 6, field 'D'\)"):
            loads_method(text)

    @pytest.mark.parametrize("field", ["claimed_order", "theta"])
    def test_missing_field_named_as_missing(self, field):
        text = "".join(line for line in dumps_method(forward_euler()).splitlines(True)
                       if not line.startswith(field))
        with pytest.raises(MethodFileError, match=rf"^missing field \(field '{field}'\)$"):
            loads_method(text)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


class TestArbitraryFieldValue:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([ssprk33(), gen_second_order(2, 2)]), st.integers(0, 10),
           st.text() | _JSON_VALUES.map(json.dumps))
    def test_loads_or_names_the_error_and_analyze_exits_cleanly(self, tmp_path_factory,
                                                               method, index, value):
        lines = dumps_method(method).splitlines()
        key = lines[index].partition(" =")[0]
        lines[index] = f"{key} = {value}"
        text = "\n".join(lines) + "\n"
        try:
            loads_method(text)
        except MethodFileError:
            pass
        path = tmp_path_factory.mktemp("arbitrary") / "method.msrk"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path)]) in {0, 2, 3, 5}
