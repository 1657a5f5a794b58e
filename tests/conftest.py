import pytest

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
