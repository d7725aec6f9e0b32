"""The measuring tools under tools/, run as a user runs them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_surface_ends_quietly_on_a_closed_pipe():
    """A reader that takes the first line and closes the pipe, as `| head -1`
    does, ends the run with exit code 0 and nothing on stderr."""
    proc = subprocess.Popen([sys.executable, os.path.join(ROOT, "tools", "surface.py"), ROOT],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.stdout.readline().startswith(b"src/bergman lines: ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, stderr
    assert stderr == b""
