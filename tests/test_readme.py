"""README stays runnable: every command of its command block exits 0 and its
library block runs clean."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from expanderlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)


def test_readme_commands_exit_0():
    commands = [line for _, body in BLOCKS
                for line in body.replace("\\\n", " ").splitlines()
                if line.startswith("expander-lab ")]
    assert commands
    for line in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(line)[1:])
        assert code == 0, line


def test_readme_library_block_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
