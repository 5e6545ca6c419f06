"""The command-line contract: exit code 0 on success, 1 when a computation
precondition fails, 2 on a usage error (with an ``error: ...`` line and no
traceback), 3 on an I/O error; and byte-identical audit output across runs."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbernstein.audit import MAX_DRAWN_INDEX
from qbernstein.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
POINT = ["--rho", "2/3", "--c", "1", "--d", "2"]


def run(capsys, argv):
    """Exit code and combined output of one in-process invocation."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out + err


def test_success_exits_0(capsys):
    argv = ["eval", "--family", "stirling2", "--n", "4", "--m", "2"]
    assert run(capsys, argv) == (0, "7\n")
    code, out = run(capsys, ["eval", "--family", "prob-qbernstein", "--dist", "poisson",
                             "--alpha", "1", "--r", "1", "--n", "2"] + POINT)
    assert (code, out) == (0, "18/25\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "prob-bernoulli", "--dist", "constant", "--value", "0",
         "--n", "2", "--arg", "1"],
        ["series", "--dist", "poisson", "--alpha", "1", "--kind", "qbernstein-gf",
         "--r", "5", "--order", "3"] + POINT,
        ["series", "--dist", "custom", "--moments", "1,2", "--order", "3"],
        ["table", "--dist", "custom", "--moments", "1,2,5,7,11,13", "--rho", "1/2",
         "--c", "1", "--d", "2", "--n", "0..6", "--r", "0..6"],
    ],
    ids=["zero-mean", "r-above-order", "too-few-moments", "table-too-few-moments"],
)
def test_computation_error_exits_1(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 1
    assert out.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "--trials", "0"], "--trials"),
        (["audit", "--order", str(MAX_DRAWN_INDEX - 1)], "--order"),
        (["audit", "--order", "0"], "--order"),
        (["audit", "--order", "-3"], "--order"),
        (["series", "--dist", "poisson", "--alpha", "1", "--order", "-1"], "--order"),
        (["eval", "--family", "prob-stirling2", "--dist", "custom",
          "--moments", "1,1/0", "--n", "2", "--m", "1"], "--moments"),
        (["eval", "--family", "prob-stirling2", "--dist", "custom",
          "--moments", "2,1", "--n", "2", "--m", "1"], "start with 1"),
        (["eval", "--family", "stirling2", "--n", "4"], "--m is required"),
        (["eval", "--family", "prob-euler", "--n", "4", "--arg", "1"],
         "--dist is required"),
        (["eval", "--family", "qbernstein", "--r", "1", "--n", "2"], "--rho"),
        (["series", "--dist", "poisson", "--alpha", "1", "--kind", "qbernstein-gf",
          "--r", "-1"] + POINT, "--r"),
    ],
)
def test_usage_error_exits_2(capsys, argv, message):
    code, out = run(capsys, argv)
    assert code == 2
    assert "error: " in out and message in out
    assert "Traceback" not in out


@pytest.mark.parametrize(
    "law, message",
    [
        (["poisson"], "--alpha is required for poisson"),
        (["bernoulli"], "--p1 is required for bernoulli"),
        (["binomial", "--p1", "1/2"], "--nbar and --p1 are required for binomial"),
        (["binomial", "--nbar", "3"], "--nbar and --p1 are required for binomial"),
        (["geometric"], "--p1 is required for geometric"),
        (["negbinomial", "--p1", "1/2"], "--a and --p1 are required for negbinomial"),
        (["negbinomial", "--a", "2"], "--a and --p1 are required for negbinomial"),
        (["constant"], "--value is required for constant"),
        (["custom"], "--moments is required for custom"),
    ],
    ids=["poisson", "bernoulli", "binomial-no-nbar", "binomial-no-p1", "geometric",
         "negbinomial-no-a", "negbinomial-no-p1", "constant", "custom"],
)
def test_missing_law_flag_exits_2(capsys, law, message):
    argv = ["eval", "--family", "prob-stirling2", "--n", "2", "--m", "1", "--dist"]
    assert run(capsys, argv + law) == (2, f"error: {message}\n")


def test_io_error_exits_3(capsys, tmp_path):
    target = tmp_path / "missing" / "table.csv"
    argv = ["table", "--n", "0..2", "--r", "0..2", "--out", str(target)] + POINT
    code, out = run(capsys, argv)
    assert code == 3
    assert out.startswith("i/o error: ")


def test_audit_jsonl_is_byte_identical_across_processes(tmp_path):
    """Two separate processes, with different string-hash seeds, pass at the
    least admissible order and write the same bytes."""
    outputs = []
    for hash_seed in ("1", "2"):
        path = tmp_path / f"audit_{hash_seed}.jsonl"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "qbernstein", "audit", "--trials", "1",
             "--order", str(MAX_DRAWN_INDEX), "--out", str(path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0]


TABLE_LAWS = [
    ["poisson", "--alpha", "3/2"],
    ["bernoulli", "--p1", "1/3"],
    ["binomial", "--nbar", "3", "--p1", "1/4"],
    ["geometric", "--p1", "3/4"],
    ["negbinomial", "--a", "2", "--p1", "2/3"],
    ["uniform01"],
]
# SHA-256 of the `table` CSVs of the six audit laws over 0 <= r <= n <= 12,
# concatenated in TABLE_LAWS order.  The bytes are a contract, as the audit's are.
TABLE_DIGESTS = {
    "q-point": "193bdc061bd57b577f2a3bc5ddaf44f65e5cb5fa18c20ea01ff22e0e5314b30e",
    "classical": "cfb1fae643376f5fcee5a0310ceb13774e423518352c6d02dd71216622a54f13",
}


@pytest.mark.parametrize(
    "point, key",
    [(["--rho", "3/2", "--c", "1", "--d", "3"], "q-point"), (["--x", "2/5"], "classical")],
    ids=["q-point", "classical"],
)
def test_table_csvs_match_their_pinned_digest(tmp_path, point, key):
    payload = b""
    for i, law in enumerate(TABLE_LAWS):
        path = tmp_path / f"table_{i}.csv"
        argv = ["table", "--dist"] + law + point + ["--n", "0..12", "--r", "0..12"]
        assert main(argv + ["--out", str(path)]) == 0
        payload += path.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == TABLE_DIGESTS[key]
