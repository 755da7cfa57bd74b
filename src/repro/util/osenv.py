"""The two ways this package touches its process environment: validated
environment-variable reads and atomic file replacement."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Callable


def env_value(var: str, parse: Callable[[str], Any]) -> Any:
    """``parse($var)``, or None when ``var`` is unset or empty.  A value
    ``parse`` rejects is a ``ValueError`` naming the variable and its
    value: a usage error, not a traceback from wherever it was needed."""
    raw = os.environ.get(var)
    if not raw:
        return None
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"invalid ${var}={raw!r}: {exc}") from None


def atomic_write(path: Path, data: "bytes | str") -> None:
    """Replace ``path`` (parent created if missing) via tempfile + rename,
    so concurrent readers and writers never see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
