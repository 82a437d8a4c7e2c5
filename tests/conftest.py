import pytest

from helpers import serve_stub


@pytest.fixture
def stub():
    """An HTTP/1.0 stub endpoint: every reply closes its connection."""
    yield from serve_stub("HTTP/1.0")


@pytest.fixture
def keep_alive_stub():
    """An HTTP/1.1 stub endpoint that keeps connections open between requests."""
    yield from serve_stub("HTTP/1.1")
