"""Golden digests of every output whose bytes must not change: the gain-sweep
CSV and summary on the four bundled pairs and on a pair with a single
two-level catalyst, the examples output tree with its stdout, and the stdout
of catalyst-range --verify, of gain-sweep --c --verify, of loans at
returned-rank cap 3 and 4, of epsilon-family and of convert-check.

This module is the one list of reproducibility cases.  CI runs it under
PYTHONHASHSEED=1 and 2, so no printed byte may depend on the iteration order
of a set or dict, and examples runs through python -m supercat.cli.  Most
digests were recorded before the caches, memos and probe rewrites they now
guard, so every speed-up must keep these bytes; any drift in a single printed
float fails here.
"""

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import supercat
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
# the summary, which gain-sweep prints on stdout and writes next to the CSV
SUMMARY_GOLDEN = {
    ("float", "1"): "804643f88ca4aeba279a8bc6e4f636fc8954426fd49f255c81904029ea3392cb",
    ("float", "2"): "f79a699308689af404444ee229b2731f39b3a613b046e93a48fab922426fb6df",
    ("float", "3"): "0d38a28570c8edbdd7e90a49c6c300f525903ef9ac1de02309303177b3ba4a91",
    ("float", "4"): "6d44b362e6388476ef02fdb16af03fb7913da1249966e87bd69db7213951c60d",
    ("exact", "1"): "1453e961dee2850662f166abcb2bc4185f270601ce13cd88256efdf1d7dc8a18",
    ("exact", "2"): "4dbb9e22a5dd920b72c5405306bfa6c6e50e05aac79c2d83269aed60cfb573fd",
    ("exact", "3"): "b9a1fc167cc3366b6641d53a6941875664f7157dc35c8a9aa9a291147128c4cd",
    ("exact", "4"): "62dfa90e7d0fbc7bcb74baec8cb62c14a02c6c97b451308a868c1f06f7c79da5",
}
# gain-sweep --exact --points 5 of a pair whose two-level catalysts are the
# single point x = 3/5, so the pieces of y*(x) the sweep reads have zero
# width, as (CSV, summary)
SINGLE_POINT_PAIR = ("2/5,3/8,3/20,3/40", "19/40,1/4,1/4,1/40")
SINGLE_POINT_GOLDEN = ("a6a7e04762566bcc35fafa853c74a3db812170f54a6eb3e808ee2686ccba0941",
                       "0de470fc6d2ced2d847e8afb68f8f117f421ea891469786a526d5bdd2908ffb2")
# examples.summary.json of `supercat examples` at its default 200 points
EXAMPLES_GOLDEN = {
    "plain": "a10c1cca72d7c74a0fe2c968c75656390fa3f4cc6cc02ff36011517d3f45ec0b",
    "verify": "1bc6916d1c07c94ce6215cee19f66b1634816f924f39f6d3acd76a287dad9d39",
}
# every file under its relative --out-dir, which the manifests record, then stdout
EXAMPLES_TREE_GOLDEN = {
    "plain": "2cc3757c70d73ad7ed8667e0e0aa4d5b3413d299e9d5fae2c7caaf9fb392cd47",
    "verify": "edb50a0afb680c1e54e53d09ec584358576321b4456fb21147759dd1e9475919",
}
# stdout of catalyst-range --verify, whose "oracle" block holds the interval
# oracle's bisected ends
RANGE_GOLDEN = {
    ("float", "1"): "f456b1cd3ebfb4c5ce09b41f4a404b6edf2e27b23b3baf7000c102dac85ea0f6",
    ("float", "2"): "33fb7f331d5ea6dd27d505996d96f17894bbe865b72d2a672719fdfb592745cb",
    ("float", "3"): "bd26f90bdc4c7e819eafac51c39f1408a7d524d23d3e67fe9b4865709c80be27",
    ("float", "4"): "9b2f9bebcb70eccc6ed71bf44d11f035eb4bfee0659a5aad73209de4fac1e6b0",
    ("exact", "1"): "c2372249f98060d7de6138234ced2be29e3539dd82ae6137c6dad65cb0f762da",
    ("exact", "2"): "33fb7f331d5ea6dd27d505996d96f17894bbe865b72d2a672719fdfb592745cb",
    ("exact", "3"): "760afe547c34379bdc42de6c9f43a23a188d5c07668c466d23d364f4e1d7b5c4",
    ("exact", "4"): "c468ce69f3cce753a68c3313cb4411b1dbe11c2bd2c88b2bb2d3600ce24701a0",
}
# stdout of gain-sweep --c --verify, which prints the gain oracle's oracle_gain,
# by (mode, pair, c): a two-level loan of each bundled pair, and loans of pairs 1
# and 4 whose only feasible grid point is the last one
LOAN_GOLDEN = {
    ("float", "1", "0.625,0.375"): "9e8958381876b76214cd895efd0335deba2aa23a21c694764fdff1abcff9ebca",
    ("float", "1", "0.61,0.39"): "8a33eda5a3056f53d5b9c5b587ed197598576cbf882e8743a975f7c09b83ee3b",
    ("float", "2", "0.6,0.4"): "ed0a26eaa91ae79b2d2e61ee25f757a788983706192e56fd82f1a077364fe943",
    ("float", "3", "0.6,0.4"): "642fdbfc61d95f4e1945996c1cdd07929ed1e6b782c2a71e105bafdf0cfa2047",
    ("float", "4", "0.65,0.35"): "21e64aee93241862819c0dd78e785966d07d4839368d375bc5df0f5853391e8b",
    ("float", "1", "0.6001,0.3999"): "345157d0454d55a2f1944e1586cb99c65a60d76db7bf271906672d8b07431b6e",
    ("float", "4", "0.6003,0.3997"): "07369433d09f71eec0a0bc6474254e42f64fb9bc74bc33b03193e34d77cff317",
    ("exact", "1", "0.625,0.375"): "9397c29b5992ff926275ad09239f78eb535577cc90b887053edafab44e3d8c12",
    ("exact", "1", "0.61,0.39"): "61386538dba775c7ddc754dc5c77cb3d5bc4bd02e8d801cf7e7631d8ad7b00b8",
    ("exact", "2", "0.6,0.4"): "45580b4406cd4e37a8d0f48bb2de74462159a6e128c986eede407aedc2034170",
    ("exact", "3", "0.6,0.4"): "be805cf04a30438c3d37d2a329127bb6f7553628db6a2d8e57ae5c18cbf8a652",
    ("exact", "4", "0.65,0.35"): "9a8620d22aff58aa5c1e2268548aad7a0871aab3ec4f7a1d1271a23063ebd638",
    ("exact", "1", "0.6001,0.3999"): "ed4dccc68b11ad05936fdb585395ea34eda9cad16148d1d40f10a5ab07e221c9",
    ("exact", "4", "0.6003,0.3997"): "d860cfa6b2b03f0170f1925886143f1918c24f123c7165ccd7a7dd683270e176",
}
# stdout of gain-sweep --c for loans whose returned-rank cap is 3 or 4, so the
# returned state comes from the grid search and its hill-climb: a rank-3 loan
# of a rank-4 pair, a two-level loan of a rank-5 pair and a rank-3 loan of
# bundled pair 1, each as (a, b, c)
HIGH_CAP_LOANS = {
    "cap3": ("0.55,0.27,0.13,0.05", "0.62,0.19,0.17,0.02", "0.65,0.3,0.05"),
    "cap3-two-level": ("0.5,0.35,0.05,0.05,0.05", "0.6,0.2,0.2", "0.646,0.354"),
    "cap4": (",".join(EXAMPLE_PAIRS["1"][0]), ",".join(EXAMPLE_PAIRS["1"][1]), "1/2,3/10,1/5"),
}
HIGH_CAP_GOLDEN = {
    ("float", "cap3"): "c16fe236c43677f59376a48e53bed98572d0790b33f55c60452d23218a007f94",
    ("float", "cap3-two-level"): "707c3c382d4ae7bea58e6b6e45425d14f5b27cc47308dd2772289ab4a37b5e26",
    ("float", "cap4"): "637eaed823d0ae67c3b3dad607036b5c333bf5effe7f38aebfce33f1d323d1f2",
    ("exact", "cap3"): "01e93caf3371da4fa0f763b08d09b531047935e4b8e312578de1c6285c6ad45f",
    ("exact", "cap3-two-level"): "b8a99e4192cc80052ad501a15c35506c44e2ee9d90c30c7d2699eed3d0a240d4",
    ("exact", "cap4"): "f3910d67e522fe92fbf6a39017ee15dc6b74896e8f6671f7f06ba440f8e906eb",
}
# stdout of epsilon-family --eps 1/100,1/10000, the verifier's reports
EPSILON_GOLDEN = {
    "float": "3cfce94bdebf11f15d04b8d9188b4dbadbbabe917bcaf8afd7917f8450cf11bc",
    "exact": "024f2d95337100d9392a30d170b4cd160be753fdea9587fa180d90d3e7f477e9",
}
# stdout of convert-check on bundled pair 1, blocked at k = 2; the partial sums
# print as floats, so both arithmetics give the same bytes
CONVERT_GOLDEN = {
    "float": "d6c87d217cefd51e0ddeb8f6b7025d8ac3d2aec1c54153cc5db31d1dd99fc2f5",
    "exact": "d6c87d217cefd51e0ddeb8f6b7025d8ac3d2aec1c54153cc5db31d1dd99fc2f5",
}
MODE_ARGS = {"float": ["--points", "200"], "exact": ["--exact", "--points", "50"]}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sweep(mode, name, out):
    a, b = EXAMPLE_PAIRS[name]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(["gain-sweep", "--a", ",".join(a), "--b", ",".join(b),
                     *MODE_ARGS[mode], "--out", str(out)])
    assert code == 0
    return stdout.getvalue()


@pytest.mark.parametrize("mode,name", sorted(GOLDEN))
def test_sweep_csv_digest(mode, name, tmp_path):
    out = tmp_path / "sweep.csv"
    _sweep(mode, name, out)
    assert _sha256(out.read_bytes()) == GOLDEN[mode, name]


@pytest.mark.parametrize("mode,name", sorted(SUMMARY_GOLDEN))
def test_sweep_summary_digest(mode, name, tmp_path):
    stdout = _sweep(mode, name, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.summary.json").read_text() == stdout
    assert _sha256(stdout.encode()) == SUMMARY_GOLDEN[mode, name]


@pytest.mark.parametrize("flag", sorted(EXAMPLES_GOLDEN))
def test_examples_summary_digest(flag, tmp_path):
    # through the module's entry point, under the hash seed this process has
    env = {**os.environ, "PYTHONPATH": str(Path(supercat.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "supercat.cli", "examples", "--out-dir", "out",
                           *(["--verify"] if flag == "verify" else [])],
                          cwd=tmp_path, env=env, capture_output=True, check=True, timeout=120)
    out = tmp_path / "out"
    assert _sha256((out / "examples.summary.json").read_bytes()) == EXAMPLES_GOLDEN[flag]
    tree = b"".join(p.relative_to(out).as_posix().encode() + b"\0" + p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file())
    assert _sha256(tree + proc.stdout) == EXAMPLES_TREE_GOLDEN[flag]


def _stdout(argv) -> str:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    assert code == 0
    return stdout.getvalue()


def test_single_point_sweep_digest(tmp_path):
    out = tmp_path / "sweep.csv"
    stdout = _stdout(["gain-sweep", "--a", SINGLE_POINT_PAIR[0], "--b", SINGLE_POINT_PAIR[1],
                      "--exact", "--points", "5", "--out", str(out)])
    assert (tmp_path / "sweep.summary.json").read_text() == stdout
    assert (_sha256(out.read_bytes()), _sha256(stdout.encode())) == SINGLE_POINT_GOLDEN


@pytest.mark.parametrize("mode,name", sorted(RANGE_GOLDEN))
def test_catalyst_range_verify_digest(mode, name):
    a, b = EXAMPLE_PAIRS[name]
    stdout = _stdout(["catalyst-range", "--a", ",".join(a), "--b", ",".join(b), "--verify",
                      *(["--exact"] if mode == "exact" else [])])
    assert _sha256(stdout.encode()) == RANGE_GOLDEN[mode, name]


@pytest.mark.parametrize("mode,name,c", sorted(LOAN_GOLDEN))
def test_loan_verify_digest(mode, name, c):
    a, b = EXAMPLE_PAIRS[name]
    stdout = _stdout(["gain-sweep", "--a", ",".join(a), "--b", ",".join(b), "--c", c,
                      "--verify", *(["--exact"] if mode == "exact" else [])])
    assert '"oracle_agrees": true' in stdout
    assert c != "0.625,0.375" or '"oracle_gain": 0.07442316637776933' in stdout
    assert _sha256(stdout.encode()) == LOAN_GOLDEN[mode, name, c]


@pytest.mark.parametrize("mode,case", sorted(HIGH_CAP_GOLDEN))
def test_high_cap_loan_digest(mode, case):
    a, b, c = HIGH_CAP_LOANS[case]
    stdout = _stdout(["gain-sweep", "--a", a, "--b", b, "--c", c,
                      *(["--exact"] if mode == "exact" else [])])
    assert '"method": "grid-approximate"' in stdout
    assert _sha256(stdout.encode()) == HIGH_CAP_GOLDEN[mode, case]


@pytest.mark.parametrize("mode", sorted(EPSILON_GOLDEN))
def test_epsilon_family_digest(mode):
    stdout = _stdout(["epsilon-family", "--eps", "1/100,1/10000",
                      *(["--exact"] if mode == "exact" else [])])
    assert stdout.count('"ok": true') == 2
    assert _sha256(stdout.encode()) == EPSILON_GOLDEN[mode]


@pytest.mark.parametrize("mode", sorted(CONVERT_GOLDEN))
def test_convert_check_digest(mode):
    a, b = EXAMPLE_PAIRS["1"]
    stdout = _stdout(["convert-check", "--a", ",".join(a), "--b", ",".join(b),
                      *(["--exact"] if mode == "exact" else [])])
    assert '"violated_at": [\n    2\n  ]' in stdout
    assert _sha256(stdout.encode()) == CONVERT_GOLDEN[mode]
