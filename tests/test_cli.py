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
from qbernstein.cli import build_parser, main

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
    # r = 0 reads M only through n, so three moments carry n = 2
    code, out = run(capsys, ["eval", "--family", "prob-bernoulli-higher", "--dist", "custom",
                             "--moments", "1,1,2", "--n", "2", "--r", "0", "--arg", "2/3"])
    assert (code, out) == (0, "10/9\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--family", "prob-bernoulli", "--dist", "constant", "--value", "0",
          "--n", "2", "--arg", "1"],
         "prob-bernoulli: law has mean zero; v/(M - 1) is undefined"),
        (["series", "--dist", "poisson", "--alpha", "1", "--kind", "qbernstein-gf",
          "--r", "5", "--order", "3"] + POINT,
         "monomial degree outside truncation order"),
        (["series", "--dist", "custom", "--moments", "1,2", "--order", "3"],
         "only 2 moments provided, order 3 requested"),
        (["table", "--dist", "custom", "--moments", "1,2,5,7,11,13", "--rho", "1/2",
          "--c", "1", "--d", "2", "--n", "0..6", "--r", "0..6"],
         "only 6 moments provided, order 6 requested"),
        (["padic", "--op", "volkenborn", "--q", "1", "--expr", "t"],
         "q must be a positive rational different from 1"),
        (["series", "--dist", "custom", "--moments", "1,2", "--kind", "log-mgf",
          "--order", "3"],
         "only 2 moments provided, order 3 requested"),
        (["eval", "--family", "frobenius-euler", "--u", "1", "--n", "2",
          "--order-param", "1", "--arg", "0"],
         "frobenius-euler: u = 1 makes the generating function degenerate"),
    ],
    ids=["zero-mean", "r-above-order", "too-few-moments", "table-too-few-moments",
         "volkenborn-at-q-1", "log-mgf-too-few-moments", "frobenius-euler-at-u-1"],
)
def test_computation_error_exits_1(capsys, argv, message):
    assert run(capsys, argv) == (1, f"error: {message}\n")


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
    target = tmp_path / "missing" / "out"
    for argv in (
        ["table", "--n", "0..2", "--r", "0..2"] + POINT,
        ["audit", "--trials", "1", "--order", str(MAX_DRAWN_INDEX)],
    ):
        code, out = run(capsys, argv + ["--out", str(target)])
        message = f"[Errno 2] No such file or directory: '{target}'"
        assert (code, out) == (3, f"i/o error: {message}\n")


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
# SHA-256 of the `table` CSVs of the six audit laws over 0 <= r <= n <= 12
# (0 <= r <= n <= 32 for "q-point-32", the benchmark's size, where the base of
# Uniform01's moments grows through every prime up to 33), concatenated in
# TABLE_LAWS order.  The bytes are a contract, as the audit's are.
TABLE_DIGESTS = {
    "q-point": "193bdc061bd57b577f2a3bc5ddaf44f65e5cb5fa18c20ea01ff22e0e5314b30e",
    "classical": "cfb1fae643376f5fcee5a0310ceb13774e423518352c6d02dd71216622a54f13",
    "q-point-32": "97be931f1a4bb6bab25640175f2d2da7e9cd8804dd3310ea599aac936fe307c9",
}


@pytest.mark.parametrize(
    "point, top, key",
    [
        (["--rho", "3/2", "--c", "1", "--d", "3"], 12, "q-point"),
        (["--x", "2/5"], 12, "classical"),
        (["--rho", "3/2", "--c", "1", "--d", "3"], 32, "q-point-32"),
    ],
    ids=["q-point", "classical", "q-point-32"],
)
def test_table_csvs_match_their_pinned_digest(tmp_path, point, top, key):
    payload = b""
    for i, law in enumerate(TABLE_LAWS):
        path = tmp_path / f"table_{i}.csv"
        span = f"0..{top}"
        argv = ["table", "--dist"] + law + point + ["--n", span, "--r", span]
        assert main(argv + ["--out", str(path)]) == 0
        payload += path.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == TABLE_DIGESTS[key]


Q_POINT = ["--rho", "3/2", "--c", "1", "--d", "3"]


def _table(fmt):
    """One `table` run per law of TABLE_LAWS, at Q_POINT over 0 <= r <= n <= 8."""
    span = ["--n", "0..8", "--r", "0..8", "--format", fmt]
    return [["table", "--dist"] + law + Q_POINT + span for law in TABLE_LAWS]


def _series(kind, fmt, *extra):
    law = ["--dist", "negbinomial", "--a", "2", "--p1", "2/3"]
    return [["series"] + law + ["--kind", kind, "--order", "8", "--format", fmt, *extra]]


def _audit(fmt):
    return [["audit", "--trials", "1", "--order", "8", "--format", fmt]]


GF = ("--r", "2", *Q_POINT)
# name -> (the invocations whose --out files are concatenated, their SHA-256)
OUTPUT_DIGESTS = {
    "table-json-lines": (
        _table("json-lines"),
        "412f8f8951d5200f226bad8e02ddf3b00df6c7488e65ced3ce8c491b10e0594e",
    ),
    "table-latex": (
        _table("latex"),
        "7c13350b96c68417a62fe745ace1964f4ea0f1b45e5959318acdbd02349f4657",
    ),
    "series-mgf-csv": (
        _series("mgf", "csv"),
        "7a56fae960e2259af956cdd5543fa3e7ee1119435f6d6db57133f101fe2a2382",
    ),
    "series-mgf-json-lines": (
        _series("mgf", "json-lines"),
        "ca5cd3c3a989afe1d2bca7a422e9c9a75e2d4b88e5610e53d419cfa875f67893",
    ),
    "series-log-mgf-csv": (
        _series("log-mgf", "csv"),
        "3483ca4089e7bedc4da572bba4e76a33839144fea794cb6d3df1ff9391bce180",
    ),
    "series-log-mgf-json-lines": (
        _series("log-mgf", "json-lines"),
        "c7d2a43d1190cc6bb5d6ac857e1a48742b38c8bb126e9684b87a46cc4489ac41",
    ),
    "series-qbernstein-gf-csv": (
        _series("qbernstein-gf", "csv", *GF),
        "1f5aa266c4d6af4deb1b53007e6678abcc653934077436d42e230e841dedc0d7",
    ),
    "series-qbernstein-gf-json-lines": (
        _series("qbernstein-gf", "json-lines", *GF),
        "f6744526f584f7c5b5c4a35b02b3a32b8c6694970c1c89ed9ad7f3bbec5ce1b2",
    ),
    "audit-csv": (
        _audit("csv"),
        "7dbaa045de51ba000876721ad09555a4cad84704d11e992baa93f511456dae44",
    ),
    "audit-latex": (
        _audit("latex"),
        "0173546fda4d7c7e78d0a70576076dd5b3881ebc84e7f1ceb290492c6588ac03",
    ),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_cli_output_matches_its_pinned_digest(tmp_path, capsys, name):
    """The table, series and audit writers in every format they offer."""
    invocations, digest = OUTPUT_DIGESTS[name]
    payload = b""
    for i, argv in enumerate(invocations):
        path = tmp_path / f"out_{i}"
        assert main(argv + ["--out", str(path)]) == 0
        payload += path.read_bytes()
    capsys.readouterr()
    assert hashlib.sha256(payload).hexdigest() == digest


# SHA-256 of the `series` CSVs of the six audit laws at order 48, where the
# common denominators of the coefficients run to hundreds of bits,
# concatenated in TABLE_LAWS order.
DEEP_SERIES_DIGESTS = {
    "log-mgf": "6b11487a805aeae4e8375cedee5d7f89ce01bad59e283ae903d34c7f7529d0ab",
    "qbernstein-gf": "feecdeee04c81a586e98f290f9365cc122b82e83eb271f9e4af2ea4b6b366fa7",
}


@pytest.mark.parametrize("kind", sorted(DEEP_SERIES_DIGESTS))
def test_deep_series_csvs_match_their_pinned_digest(tmp_path, kind):
    extra = GF if kind == "qbernstein-gf" else ()
    payload = b""
    for i, law in enumerate(TABLE_LAWS):
        path = tmp_path / f"series_{i}.csv"
        argv = ["series", "--dist", *law, "--kind", kind, "--order", "48", *extra]
        assert main(argv + ["--out", str(path)]) == 0
        payload += path.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == DEEP_SERIES_DIGESTS[kind]


def test_main_reuses_one_parser(tmp_path):
    """The parser is built once per process, and reusing it changes nothing:
    two different invocations run one after the other in this process write
    the bytes that each writes alone in a fresh process."""
    assert build_parser() is build_parser()
    invocations = [
        ["table", "--dist", "geometric", "--p1", "3/4", "--n", "0..6", "--r", "0..6"] + POINT,
        ["series", "--dist", "poisson", "--alpha", "3/2", "--kind", "log-mgf", "--order", "6"],
    ]
    alone = []
    for i, argv in enumerate(invocations):
        path = tmp_path / f"alone_{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "qbernstein", *argv, "--out", str(path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        alone.append(path.read_bytes())
    for i, argv in enumerate(invocations):
        path = tmp_path / f"shared_{i}"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == alone[i]
