"""One traced ``radii`` command line invocation in a fresh interpreter.

Usage: python perfbench/traced_cli.py SPANS_OUT RUN_ID -- CLI_ARGS...

Installs the span wrappers, then calls ``radii.cli.main`` with CLI_ARGS the
way ``python -m radii.cli CLI_ARGS`` would; the command's output goes to
stdout unchanged, and the spans go to SPANS_OUT as JSON.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import radii.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_out, run_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    tracer.run_id = run_id
    tracer.install()
    code = radii.cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
