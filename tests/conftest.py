import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import edgekt

# The directory this test process imported edgekt from: src/ under
# PYTHONPATH=src, the checkout for an editable install, or site-packages.
_EDGEKT_IMPORT_ROOT = str(Path(edgekt.__file__).resolve().parents[1])


@pytest.fixture
def run_cli():
    """Run ``python -m edgekt ARGS`` in a child process and return the result.

    The child inherits this process's environment, with ``env`` overrides
    applied and the directory edgekt was imported from put first on
    ``PYTHONPATH``, so it runs the same edgekt as the in-process tests from
    any working directory.
    """
    def run(args, **env):
        child_env = {**os.environ, **env}
        child_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_EDGEKT_IMPORT_ROOT, child_env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "edgekt", *args],
                              capture_output=True, text=True, env=child_env)
    return run


class CallCount:
    """A call count that calls in the forked renderer process reach too: one
    byte per call, written to a temporary file whose offset the renderer
    shares."""

    def __init__(self):
        self._file = tempfile.TemporaryFile(buffering=0)

    def add(self):
        self._file.write(b".")

    def __len__(self):
        return os.fstat(self._file.fileno()).st_size

    def clear(self):
        self._file.seek(0)
        self._file.truncate()


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` for the test with
    a wrapper that counts its calls, and returns their ``CallCount``."""
    def count(owner, name):
        calls = CallCount()
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.add()
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
        return calls
    return count
