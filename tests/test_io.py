import json

import numpy as np
import pytest

from morreyheat.io import write_csv, write_json


def reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_non_finite_floats_are_valid_json(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"np_nan": np.float64("nan"), "np_inf": np.float64("inf"),
                      "np_ninf": np.float32("-inf"), "py_nan": float("nan"),
                      "py_inf": float("inf"), "array": np.array([1.5, np.nan, -np.inf]),
                      "finite": np.float64(0.25)})
    doc = json.loads(path.read_text(), parse_constant=reject_constant)
    assert doc == {"np_nan": "nan", "np_inf": "inf", "np_ninf": "-inf", "py_nan": "nan",
                   "py_inf": "inf", "array": [1.5, "nan", "-inf"], "finite": 0.25}


@pytest.mark.parametrize("value, field, loaded", [
    (2**53 + 1, "9007199254740993", 2**53 + 1),   # exact, not rounded through a float
    (None, "", None),                             # an empty field, JSON null
    (np.int64(-3), "-3", -3),                     # a numpy integer is a JSON integer
])
def test_ints_and_none_are_written_exactly(value, field, loaded, tmp_path):
    write_csv(tmp_path / "t.csv", "x", [(value,)])
    assert (tmp_path / "t.csv").read_text() == f"x\n{field}\n"
    write_json(tmp_path / "d.json", {"x": value})
    doc = json.loads((tmp_path / "d.json").read_text())
    assert doc == {"x": loaded} and type(doc["x"]) is type(loaded)
