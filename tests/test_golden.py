"""Golden digests of the gain-sweep CSV on the four bundled pairs.

The CSV is the reproducible output of a sweep, so every speed-up must keep
its bytes.  The digests were recorded before the sweep's per-pair caches and
per-sweep memo existed; any drift in a single printed float fails here.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from supercat.cli import main
from supercat.examples import EXAMPLE_PAIRS

GOLDEN = {
    ("float", "1"): "6ab8de4a9160dc1c4cbf2741433c7532eec288a671372203ca507d3ffa0b2e3f",
    ("float", "2"): "77df0143584c6ae9731688b3138e9e8d27fea238cdd089596ce7418a43b142eb",
    ("float", "3"): "a17fef009dc4a925e44a5aa007da791a04e7c9089f293197ef3c020a11ef5c7a",
    ("float", "4"): "0d2db0350783ff2fcac62ed4e8937d7f38d88810096a22229233eb8a486c562b",
    ("exact", "1"): "e39ba4bcb034fb0c33ae86f4596a1db7f564070abd9f99b1ce5bbfc9da3f7aa2",
    ("exact", "2"): "74737aa65e7066d6877160809ea82849179f8803921eaca709963f5945858ff3",
    ("exact", "3"): "955b173199bb663176d6eac22f209a197b0ecdd13a4e0aaec733d006455bdde8",
    ("exact", "4"): "674240fc9b83f02dd0f8ce194fd6beb2a6d44f7dda7b6c45b7b6685bd5184965",
}
MODE_ARGS = {"float": ["--points", "200"], "exact": ["--exact", "--points", "50"]}


@pytest.mark.parametrize("mode,name", sorted(GOLDEN))
def test_sweep_csv_digest(mode, name, tmp_path):
    a, b = EXAMPLE_PAIRS[name]
    out = tmp_path / "sweep.csv"
    with redirect_stdout(io.StringIO()):
        code = main(["gain-sweep", "--a", ",".join(a), "--b", ",".join(b),
                     *MODE_ARGS[mode], "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[mode, name]
