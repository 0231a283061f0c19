"""Runs a profact command line in this process, for the traced cli run.

The traced run needs the command's own work without interpreter start-up
and import, and needs its spans in this process's tracer.
"""

from __future__ import annotations

import contextlib
import io


def run_in_process(args: list[str]) -> tuple[int, bytes]:
    """Exit code and standard output of `profact <args>`."""
    import click
    from profact import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=list(args), prog_name="profact", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:
            # the interpreter exits 1 on an uncaught exception
            code = 1
    return code, out.getvalue().encode()
