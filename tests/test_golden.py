"""Golden CLI reports: the stdout of each command below, run in process
through cli.main, must equal its committed file under tests/golden/.

The commands are A9's five, `verify --suite all --seed 0`, and
`ec roundtrip`, `ec coker` and `ec scan --B 200` on every shipped
fixture.  A change that alters a
report on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which reports changed and why.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sigcalc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("f7l13", "f251l271", "f1009l967", "f4003l4111", "f11003l11093")
SEED = ["--json", "--seed", "11"]

COMMANDS = {
    "a9-dlog-index": ["dlog", "--p", "1021", "--ell", "5", "--g", "10", "--a", "800",
                      "--method", "index", *SEED],
    "a9-signature-both": ["signature", "--lift", "1021,5,10,800", "--method", "both",
                          "--B", "80", *SEED],
    "a9-ec-roundtrip-f7l13": ["ec", "roundtrip", "--fixture", "f7l13", *SEED],
    "a9-ec-scan-f7l13": ["ec", "scan", "--fixture", "f7l13", "--B", "150", *SEED],
    "a9-verify-reciprocity": ["verify", "--suite", "reciprocity", "--trials", "5",
                              "--seed", "11"],
    "verify-all": ["verify", "--suite", "all", "--seed", "0"],
}
for _fixture in FIXTURES:
    COMMANDS[f"ec-roundtrip-{_fixture}"] = ["ec", "roundtrip", "--fixture", _fixture, *SEED]
    COMMANDS[f"ec-coker-{_fixture}"] = ["ec", "coker", "--fixture", _fixture, *SEED]
    COMMANDS[f"ec-scan-{_fixture}"] = ["ec", "scan", "--fixture", _fixture, "--B", "200",
                                       *SEED]


def report(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert report(COMMANDS[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(report(argv), encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)
