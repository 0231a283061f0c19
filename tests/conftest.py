"""Helpers the tests share: the in-process command-line runner and the
enumeration of every map between two finite sets."""

import contextlib
import io
import itertools
from dataclasses import dataclass

from profact.base import morphism
from profact.cli import main


@dataclass
class Result:
    """What one call of `main` left behind: its exit code, its standard
    output and error, and the exception it ended with, None for exit 0."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def invoke(args: list[str]) -> Result:
    """Run `profact <args>` in this process with stdout and stderr captured.

    `main` ends in SystemExit, whose code is the result's; any other
    exception is kept, with code 1, as the interpreter would exit."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args)
            code = 0
        except SystemExit as exc:
            code = exc.code
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return Result(code, stdout.getvalue(), stderr.getvalue(), exception)


def all_maps(source, target):
    """Every map source -> target, in product order over target's carrier."""
    for values in itertools.product(target.carrier, repeat=len(source.carrier)):
        yield morphism(source, target, dict(zip(source.carrier, values)))
