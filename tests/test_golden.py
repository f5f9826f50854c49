"""Golden digests of the CLI's byte output: the behaviour contract.

Each case runs ``radii`` in process and pins the sha256 of everything it
writes to stdout.  A refactor must leave every digest unchanged.  The digests
depend on the platform libm (they were taken on x86-64 glibc) but not on the
CPython version: they are the same on 3.10 through 3.13, because verify adds
its partial sums with ``math.fsum`` rather than the builtin ``sum``, which
3.12 made compensated.  A change that alters output on purpose re-pins them
with ``python tests/test_golden.py`` and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

import pytest

from radii.cli import main

GOLDEN = {
    ("verify", "--format", "json"):
        "f91b9c48494ccc25d4f0bd5d88861b80da2dde204142dc95dfe62e723ec9cfef",
    ("bounds", "--family", "all", "--range", "-0.9", "0.9", "0.05",
     "--k", "6", "--source", "both", "--format", "csv"):
        "d0446fb4bce49df9fd98b553ce112a84d85303bce52ab6a81d829e5eacf1395d",
    ("radius", "--family", "all", "--range", "-0.9", "0.9", "0.05", "--format", "csv"):
        "21836e76f4646156408f4130fb7dd8ca1c6a34ad06380ba6cad47e5f23d2a4ef",
    ("explore-interlace", "--format", "json"):
        "7038d597cc2ed6a935071cee4e50be715bf27ccc82cfd0bb32f6b9798b00eb16",
    ("explore-interlace", "--nu=-0.25", "--nu=0.25", "--count", "20", "--format", "json"):
        "97af0c4c718360a3c06ac827546c8f08969d83d57a363e68faa34d5d19ba2410",
}


def digest(argv) -> tuple[int, str]:
    """(exit code, sha256 of stdout) for one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def case_id(argv) -> str:
    """The subcommand, with the zero count when one is given."""
    if "--count" in argv:
        return f"{argv[0]}-count{argv[argv.index('--count') + 1]}"
    return argv[0]


@pytest.mark.parametrize("argv", list(GOLDEN), ids=case_id)
def test_output_matches_golden_digest(argv):
    code, sha = digest(argv)
    assert code == 0
    assert sha == GOLDEN[argv]


if __name__ == "__main__":
    # Print the current digests in GOLDEN's layout, for re-pinning.
    for argv in GOLDEN:
        print(f"    {argv!r}:\n        {digest(argv)[1]!r},", file=sys.stdout)
