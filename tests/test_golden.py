"""Byte-for-byte pins of the ``--out`` reports of fast exact commands.

Each case runs ``cli.main(argv + ["--out", path])`` in process and compares
the exit code and the written bytes with ``tests/golden/<name>``.  Numeric
mode is left out: the last bits of its floats depend on the platform's
``cmath``.  To re-record after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import os
import sys

import pytest

from wscalc.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (file name, argv, expected exit code)
CASES = [
    ("eval_21.json", ["eval", "--n", "2", "--m", "1", "--f", "2,1", "--d", "1"], 0),
    ("eval_31.json", ["eval", "--n", "3", "--m", "1", "--f", "2,1,0", "--d", "1"], 0),
    ("eval_32_f600.json", ["eval", "--n", "3", "--m", "2", "--f", "6,0,0"], 0),
    ("eval_32_d10_f210.json", ["eval", "--n", "3", "--m", "2", "--d", "1,0", "--f", "2,1,0"], 0),
    ("eval_non_dominant.json", ["eval", "--n", "2", "--m", "1", "--f", "1,2"], 1),
    ("verify_constant_32.json", ["verify", "constant", "--n", "3", "--m", "2"], 0),
    ("verify_gamma_32.json", ["verify", "gamma", "--n", "3", "--m", "2"], 0),
    ("verify_invariance_32.json", ["verify", "invariance", "--n", "3", "--m", "2"], 0),
    ("verify_invariance_21_d1_f11.json",
     ["verify", "invariance", "--n", "2", "--m", "1", "--d", "1", "--f", "1,1"], 0),
    ("verify_shintani_32_K6.json", ["verify", "shintani", "--n", "3", "--m", "2", "--K", "6"], 0),
    ("series_21_K5.json", ["series", "--n", "2", "--m", "1", "--K", "5"], 0),
    ("series_32_K5.json", ["series", "--n", "3", "--m", "2", "--K", "5"], 0),
    ("series_21_K5.csv", ["series", "--n", "2", "--m", "1", "--K", "5", "--csv"], 0),
    ("reduce_32.json", ["reduce", "--n", "3", "--m", "2", "--d", "0,0", "--a", "2", "--r", "3,1"], 0),
    ("verify_cone_32.json", ["verify", "cone", "--n", "3", "--m", "2", "--count", "50", "--bound", "2"], 0),
    ("verify_padic_32.json", ["verify", "padic", "--n", "3", "--m", "2", "--samples", "3"], 0),
    ("verify_gauss.json", ["verify", "gauss"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_out_bytes_match_golden(tmp_path, name, argv, code):
    path = tmp_path / name
    assert main(argv + ["--out", str(path)]) == code
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert path.read_bytes() == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv, code in CASES:
        got = main(argv + ["--out", os.path.join(GOLDEN, name)])
        if got != code:
            sys.exit("%s exited %d, expected %d" % (name, got, code))
