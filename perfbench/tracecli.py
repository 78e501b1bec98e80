"""The ``thomae`` CLI with tracing on: one job, run like the untraced CLI.

Usage (from the repository root, with ``src`` on PYTHONPATH):
    python3 perfbench/tracecli.py SPANS_OUT.json RUN_ID PARENT_SPAN -- CLI_ARGS...

``thomae.cli.main`` runs in this process under a ``cli.main`` span.  Every
library function the CLI module calls directly is wrapped in a span named
after its layer, so the self time of ``cli.main`` is what the CLI spends on
argument parsing, report assembly and output.
"""

from __future__ import annotations

import inspect
import sys

from spans import Recorder


def main(argv: list[str]) -> int:
    out, run, parent, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracecli.py SPANS_OUT RUN_ID PARENT_SPAN -- CLI_ARGS...")
    rec = Recorder(run, parent)
    import thomae.cli as cli

    for name, fn in list(vars(cli).items()):
        module = getattr(fn, "__module__", "") or ""
        if inspect.isfunction(fn) and module.startswith("thomae.") and module != cli.__name__:
            setattr(cli, name, rec.wrap(f"{module.split('.')[1]}.{name}", fn))
    try:
        with rec.span("cli.main"):
            code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        rec.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
