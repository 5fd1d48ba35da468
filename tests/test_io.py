import json

import numpy as np

from morreyheat.io import write_json


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
