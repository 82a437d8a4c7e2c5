"""Shared plumbing: hashing, canonical JSON, atomic writes, seed derivation."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# json.dumps(obj, sort_keys=True) with one encoder shared by every JSONL
# writer; json.dumps builds a new encoder for each call.
sorted_json = json.JSONEncoder(sort_keys=True).encode


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_HASH_CHUNK = 1 << 20


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            chunk = f.read(_HASH_CHUNK)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path: Path | str, mode: str = "w") -> Iterator[Any]:
    """Write to a temp file in the target directory, rename on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def derive_seed(*parts: Any) -> int:
    """Stable 63-bit seed from a sequence of hashable labels."""
    text = "|".join(map(str, parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def unit_uniform(*parts: Any) -> float:
    """Stable uniform draw in [0, 1) keyed by the given labels."""
    return text_uniform("|".join(map(str, parts)))


def text_uniform(text: str) -> float:
    """unit_uniform of labels already joined by '|'."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64
