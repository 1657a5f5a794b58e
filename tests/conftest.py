import json
import os
import subprocess
import sys
import textwrap

import pytest

import drawrating
from drawrating import engine


@pytest.fixture
def chunk_bound(monkeypatch):
    """``chunk_bound(cells)`` sets ``engine.GRID_CHUNK`` to ``cells`` for the
    test and returns a list that gets the number of chunks of every later
    ``engine.chunks`` call."""
    def bound(cells):
        counts, chunks = [], engine.chunks

        def counted(n, item_cells):
            parts = chunks(n, item_cells)
            counts.append(len(parts))
            return parts

        monkeypatch.setattr(engine, "GRID_CHUNK", cells)
        monkeypatch.setattr(engine, "chunks", counted)
        return counts
    return bound


@pytest.fixture
def fresh_python():
    """``fresh_python(script)`` runs ``script`` in a new interpreter that
    imports this checkout's drawrating, and returns the JSON it prints."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(drawrating.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def run(script):
        done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return json.loads(done.stdout)
    return run
