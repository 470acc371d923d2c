"""Shared exception types and the one guard check."""


class GuardExceeded(RuntimeError):
    """Raised when an exhaustive computation is refused at desk scale.

    Each entry point bounds its size by a keyword (``max_shrubs``,
    ``max_triples`` or ``max_size``) whose default is one of the four
    limits in :mod:`shrubstat.names`, so going past it is always a
    conscious choice; the command line derives its n limits from them.
    """


def check_guard(size: int, limit: int, keyword: str, what: str) -> None:
    """Refuse size past limit: the message is size, then what, then the
    keyword setting that would allow it."""
    if size > limit:
        raise GuardExceeded(f"{size} {what}; pass {keyword}={size} to allow it")
