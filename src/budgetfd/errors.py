"""Shared exception types, and the input readers that raise them."""

from typing import Any


class BudgetFDError(Exception):
    """Base class for errors raised by this package."""


class CapExceededError(BudgetFDError):
    """An instance-size cap was exceeded (atom count, edge count, path count)."""


def read_text(path: str) -> str:
    """A file's text, newlines untranslated as ``csv`` needs; BudgetFDError if unreadable."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise BudgetFDError(f"cannot read {path}: {exc}") from None


def field(data: Any, key: str, what: str) -> Any:
    """``data[key]`` of parsed JSON; a ValueError when ``what`` lacks it."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{what} has no {key!r} field")
    return data[key]
