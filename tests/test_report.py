import json
import math

import numpy as np
import pytest

from hwave.report import JsonText, json_rows, write_json


def _members(n):
    for i in range(n):
        yield {"level": -i, "values": [float(i), math.nan, -math.inf],
               "nested": {"b": [i, {"z": None, "a": True}], "a": "x"}}


@pytest.mark.parametrize("payload_of", [
    lambda: {},
    lambda: {"a": math.nan, "b": math.inf, "c": -math.inf, "d": [math.nan]},
    lambda: {"empty": iter(()), "rows": (r for r in []), "n": 0},
    lambda: {"rows": ([float(i) / 3, 1e-300, 1e300] for i in range(4)),
             "weights": [0.1, 0.2], "name": "cycle(4)"},
    lambda: {"members": _members(3), "k_fine": 2, "k_coarse": -1,
             "delta": 0.25},
    lambda: {"z": iter([{"b": 1, "a": 2}]), "a": iter([[], {}, "s"])},
    # float ndarrays are written as their tolist()
    lambda: {"m": np.array([[0.0, -0.0, math.nan], [math.inf, -math.inf, 1e16]]),
             "w": np.array([1e-7, 5e-324, -1.5]), "n": 2},
    lambda: {"none": np.zeros((0, 3)), "empty": np.zeros(0)},
    lambda: {"members": iter([{"values": next(json_rows(np.array([[math.nan, -0.0]]))),
                               "k": 1}]),
             "rows": json_rows(np.eye(2))},
])
def test_write_json_equals_dumps(tmp_path, payload_of):
    def listed(value):
        if isinstance(value, JsonText):
            return json.loads(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {key: listed(item) for key, item in value.items()}
        if hasattr(value, "__next__"):
            return [listed(item) for item in value]
        return value

    path = tmp_path / "out.json"
    write_json(path, payload_of())
    assert path.read_text() == json.dumps(listed(payload_of()),
                                          sort_keys=True) + "\n"
