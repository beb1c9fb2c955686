import json
import math

import pytest

from hwave.report import write_json


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
])
def test_write_json_equals_dumps(tmp_path, payload_of):
    listed = {key: list(value) if hasattr(value, "__next__") else value
              for key, value in payload_of().items()}
    path = tmp_path / "out.json"
    write_json(path, payload_of())
    assert path.read_text() == json.dumps(listed, sort_keys=True) + "\n"
