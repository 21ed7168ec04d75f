"""Key/value files."""

import numpy as np

from sleddyn.kvfile import dump_kv, load_kv


def test_numpy_scalars_round_trip_as_plain_numbers(tmp_path):
    pairs = {"a": np.float64(0.1) + np.float64(0.2), "b": np.float64(-0.0), "c": 2.5, "n": np.int64(7)}
    path = tmp_path / "p.kv"
    dump_kv(pairs, path, header=["demo"])
    text = path.read_text()
    assert "np." not in text
    assert "a = 0.30000000000000004\n" in text
    back = load_kv(path)
    assert back == {"a": "0.30000000000000004", "b": "-0.0", "c": "2.5", "n": "7"}
    assert all(float(back[k]) == pairs[k] for k in pairs)
