"""Runs the command line in-process for tests: CliRunner().invoke(main,
args) calls main(args) with stdout and stderr captured. exit_code is main's
return value, or 1 when it raises; exception is the raised exception, or
SystemExit(exit_code) for a non-zero exit."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        """stdout followed by stderr."""
        return self.stdout + self.stderr


class CliRunner:
    def invoke(self, main, args) -> Result:
        out, err = io.StringIO(), io.StringIO()
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:  # --help, as argparse ends it
                code = exc.code
            except Exception as exc:
                code, exception = 1, exc
        if code and exception is None:
            exception = SystemExit(code)
        return Result(code, out.getvalue(), err.getvalue(), exception)
