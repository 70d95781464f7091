"""Byte-for-byte pins on the verify report and every count/table/oracle output.

Each digest is the SHA-256 of the exact text, so a changed note, verdict,
table cell or JSON layout fails here.  Re-record them only for a deliberate
change of output.
"""
import hashlib
from itertools import product

from statecount.cli import ORACLES, main
from statecount.verify import format_report

REPORT_SHA256 = "d1197d34b628a33b6aab66f821f7de18268605bb6531fd2c0355b8ad2c0c0337"
CLI_SHA256 = "77eb353647b4dca4d3287d6a3114e2c772c8850b4cc20001c96b257c7626fb9f"
ORACLE_SHA256 = "6691faf900e880393930902c93b44be7db73a17cc145a033587eab4610e43c6b"

CLI_CASES = (
    [["count", "--variant", v, "--format", f]
     for v in ("xiangqi", "janggi") for f in ("dec", "json")]
    + [["table", "--variant", "xiangqi", "--table", t, "--format", f]
       for t in ("t1", "t2", "t3", "t4", "t5", "klist", "slist", "geometry")
       for f in ("csv", "json")]
    + [["table", "--variant", "janggi", "--table", t, "--format", f]
       for t in ("t6", "klist", "slist", "geometry") for f in ("csv", "json")]
)


def test_report_and_cli_outputs_are_byte_identical(full_verify, capsys):
    cli = hashlib.sha256()
    for argv in CLI_CASES:
        assert main(argv) == 0
        cli.update(capsys.readouterr().out.encode())
    report = hashlib.sha256(format_report(full_verify).encode()).hexdigest()
    assert len(CLI_CASES) == 28
    assert (report, cli.hexdigest()) == (REPORT_SHA256, CLI_SHA256)


# every in-domain argument tuple of every oracle target; enum_pair_fill only
# up to 10^5 sequences, so the whole set runs in a few seconds
ORACLE_CASES = [
    ["oracle", "--target", target, *map(str, params)]
    for target, (_, domains, _) in ORACLES.items() for params in product(*domains)
    if target != "enum_pair_fill" or params[0] ** params[1] <= 10 ** 5
]


def test_oracle_outputs_are_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in ORACLE_CASES:
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert lines[-1].startswith("wall_time_s=")
        digest.update("".join(lines[:-1]).encode())
    assert len(ORACLE_CASES) == 456
    assert digest.hexdigest() == ORACLE_SHA256
