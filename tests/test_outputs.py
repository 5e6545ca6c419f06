"""Every output a user can ask for, pinned byte for byte by one check.

A row's producer is a list of command lines, each run once through
:func:`qbernstein.cli.main`, whose ``--out`` files are concatenated; or a
function that returns the bytes.  A pair of digests also pins the summary
lines an audit prints, without the final newline: they carry each case's
expectation class, and so decide the exit code."""

import hashlib
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis.configuration import storage_directory

from qbernstein.cli import build_parser, main
from qbernstein.padic import integrate_corollaries

from oracles import SIX_LAWS

# the six audit laws, in the order a row concatenates their runs
LAWS = [
    ["poisson", "--alpha", "3/2"],
    ["bernoulli", "--p1", "1/3"],
    ["binomial", "--nbar", "3", "--p1", "1/4"],
    ["geometric", "--p1", "3/4"],
    ["negbinomial", "--a", "2", "--p1", "2/3"],
    ["uniform01"],
]
Q_POINT = ["--rho", "3/2", "--c", "1", "--d", "3"]
GF = ["--r", "2", *Q_POINT]


def _per_law(command, *argv):
    """One run of ``command`` per law of LAWS."""
    return [[command, "--dist", *law, *argv] for law in LAWS]


def _tables(point, top, *fmt):
    return _per_law("table", *point, "--n", f"0..{top}", "--r", f"0..{top}", *fmt)


def _series(kind, fmt, *extra):
    law = ["--dist", "negbinomial", "--a", "2", "--p1", "2/3"]
    return [["series", *law, "--kind", kind, "--order", "8", "--format", fmt, *extra]]


def _audit(seed, trials, order, *fmt):
    return [["audit", "--seed", str(seed), "--trials", str(trials), "--order", str(order), *fmt]]


def _laurent_lines(q):
    """The integrate_corollaries lines of SIX_LAWS over 0 <= r <= n <= 8, in
    the format of the benchmark's laurent workload."""
    lines = []
    for i, law in enumerate(SIX_LAWS):
        for n in range(9):
            for r in range(n + 1):
                bos, ferm = integrate_corollaries(law, r, n, q)
                lines.append(f"{i} {n} {r} {bos} | {ferm}\n")
    return "".join(lines).encode()


# name, producer, pin.  The bytes are a contract: a row is re-pinned only by a
# change that names the output it changed in CHANGES.md, with the old and the
# new value.
PINNED = {name: (produce, pin) for name, produce, pin in [
    # the audit JSONL and summary at its defaults (5 trials, order 16)
    ("audit-seed-42", _audit(42, 5, 16),
     ("06c7a7263de44d25d594f222b6ef5895a905dfbc66e6f6167f8eb55341e3cbf4",
      "f00201dc4d32468fae23dcdbdc3031171cbad4043cae2af184649230d9b5d4d4")),
    ("audit-seed-7", _audit(7, 5, 16),
     ("e679d2169e9c409faa353e1bd70a4590fd018ec5c1fc44aec0639cecb9759010",
      "cb13f8ad9bec7792bbea0dfac9c096376e3fd0b50e8255e8d99c1e3f800f5498")),
    ("audit-seed-99", _audit(99, 5, 16),
     ("9a4728ab2ffa672cb287b33cf714ffb2a56c4c6fb4db9bd4edf4603330f4b42a",
      "b85515e35c9b8a88f88da9f91c74ea253bab043e67c46db98f50f420a2d6474f")),
    # every case at a larger order than the defaults reach
    ("audit-heavy", _audit(99, 20, 24),
     ("e8398477197ea517a4254d41d018680995330c9ed29a6179aad6a0c912660c03",
      "67f012950e05f7b23adf38400258d95f8121b106a09e2ad3c6100482692c628e")),
    # P-LOG, T2.6 corrected and T2.8 on long series
    ("audit-deep", _audit(42, 5, 48),
     ("f05d0ee0b1d0c721bb83d4620ce61bb09eab861481265c86c11344a21ee529e7",
      "f00201dc4d32468fae23dcdbdc3031171cbad4043cae2af184649230d9b5d4d4")),
    ("audit-csv", _audit(42, 1, 8, "--format", "csv"),
     "7dbaa045de51ba000876721ad09555a4cad84704d11e992baa93f511456dae44"),
    ("audit-latex", _audit(42, 1, 8, "--format", "latex"),
     "0173546fda4d7c7e78d0a70576076dd5b3881ebc84e7f1ceb290492c6588ac03"),
    ("table-csv-q-point", _tables(Q_POINT, 12),
     "193bdc061bd57b577f2a3bc5ddaf44f65e5cb5fa18c20ea01ff22e0e5314b30e"),
    ("table-csv-classical", _tables(["--x", "2/5"], 12),
     "cfb1fae643376f5fcee5a0310ceb13774e423518352c6d02dd71216622a54f13"),
    # the benchmark's size, where the base of Uniform01's moments grows
    # through every prime up to 33
    ("table-csv-q-point-32", _tables(Q_POINT, 32),
     "97be931f1a4bb6bab25640175f2d2da7e9cd8804dd3310ea599aac936fe307c9"),
    ("table-json-lines", _tables(Q_POINT, 8, "--format", "json-lines"),
     "412f8f8951d5200f226bad8e02ddf3b00df6c7488e65ced3ce8c491b10e0594e"),
    ("table-latex", _tables(Q_POINT, 8, "--format", "latex"),
     "7c13350b96c68417a62fe745ace1964f4ea0f1b45e5959318acdbd02349f4657"),
    ("series-mgf-csv", _series("mgf", "csv"),
     "7a56fae960e2259af956cdd5543fa3e7ee1119435f6d6db57133f101fe2a2382"),
    ("series-mgf-json-lines", _series("mgf", "json-lines"),
     "ca5cd3c3a989afe1d2bca7a422e9c9a75e2d4b88e5610e53d419cfa875f67893"),
    ("series-log-mgf-csv", _series("log-mgf", "csv"),
     "3483ca4089e7bedc4da572bba4e76a33839144fea794cb6d3df1ff9391bce180"),
    ("series-log-mgf-json-lines", _series("log-mgf", "json-lines"),
     "c7d2a43d1190cc6bb5d6ac857e1a48742b38c8bb126e9684b87a46cc4489ac41"),
    ("series-qbernstein-gf-csv", _series("qbernstein-gf", "csv", *GF),
     "1f5aa266c4d6af4deb1b53007e6678abcc653934077436d42e230e841dedc0d7"),
    ("series-qbernstein-gf-json-lines", _series("qbernstein-gf", "json-lines", *GF),
     "f6744526f584f7c5b5c4a35b02b3a32b8c6694970c1c89ed9ad7f3bbec5ce1b2"),
    # order 48, where the common denominators of the coefficients run to
    # hundreds of bits
    ("series-log-mgf-csv-deep", _per_law("series", "--kind", "log-mgf", "--order", "48"),
     "6b11487a805aeae4e8375cedee5d7f89ce01bad59e283ae903d34c7f7529d0ab"),
    ("series-qbernstein-gf-csv-deep",
     _per_law("series", "--kind", "qbernstein-gf", "--order", "48", *GF),
     "feecdeee04c81a586e98f290f9365cc122b82e83eb271f9e4af2ea4b6b366fa7"),
    ("laurent-4/9", lambda: _laurent_lines(F(4, 9)),
     "b0d217be301e3983799461d2ff748b74de703da87155f839a014af1f049a29b6"),
    ("laurent-3/2", lambda: _laurent_lines(F(3, 2)),
     "c4a2c508697809e939e7f7dd254153cd540c1955c7fdf5d52dde30cec140d49a"),
]}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", PINNED)
def test_output_matches_its_pin(tmp_path, capsys, name):
    produce, pin = PINNED[name]
    if callable(produce):
        assert _sha256(produce()) == pin
        return
    payload = b""
    for i, argv in enumerate(produce):
        path = tmp_path / f"out_{i}"
        assert main([*argv, "--out", str(path)]) == 0, argv
        payload += path.read_bytes()
    got = _sha256(payload)
    if isinstance(pin, tuple):
        got = got, _sha256(capsys.readouterr().out.removesuffix("\n").encode())
    assert got == pin


def _choices(parser, dest):
    return next((a.choices for a in parser._actions if a.dest == dest), None)


def test_every_output_a_user_can_ask_for_has_a_row():
    """Each (subcommand, --kind, --format) of a subcommand that offers
    formats is written by some row, so a new format or kind cannot land
    unpinned."""
    offered = {
        (name, kind, fmt)
        for name, parser in _choices(build_parser(), "command").items()
        if _choices(parser, "format")
        for kind in _choices(parser, "kind") or [None]
        for fmt in _choices(parser, "format")
    }
    pinned = {
        (args.command, getattr(args, "kind", None), args.format)
        for produce, _ in PINNED.values() if not callable(produce)
        for args in map(build_parser().parse_args, produce)
    }
    assert offered - pinned == set()


def test_hypothesis_storage_lies_outside_the_checkout():
    home = storage_directory(intent_to_write=False).home_directory
    assert not home.resolve().is_relative_to(Path(__file__).resolve().parents[1])


def test_no_benchmark_plugin_is_active(pytestconfig):
    """pyproject.toml blocks pytest-benchmark, so a run writes no .benchmarks/."""
    assert not pytestconfig.pluginmanager.has_plugin("benchmark")
