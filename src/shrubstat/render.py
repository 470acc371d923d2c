"""Text, CSV and JSON of labeling listings, a digit column at a time.

Loaded only by ``extensions --mode list``: the command line compiles it
for that command alone, so no other command's start-up grows with it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: A labeling's text per format: what precedes element 0's label, which
#: starts the labeling, what precedes each other label, and what follows
#: every label.
_FIELDS = {
    "text": ("\n", "  ", ""),
    "csv": ("\n", ",", ""),
    "json": ('], ["', ', "', '"'),
}


def labeling_chunks(blocks: Iterable[str], size: int, fmt: str) -> Iterator[str]:
    """Each block of :func:`shrubstat.posets.labeling_blocks` (size > 0)
    as a chunk in fmt: its labelings as lines joined by newlines for text
    and CSV, as dumped payload items joined by ", " for JSON.  Each label
    is in decimal, preceded by what _FIELDS gives for element 0 or for
    the others and followed by its end.

    A label's field has fixed width: the prefix, then one column per
    digit of size, then the end, with short prefixes and leading zeros as
    NULs.  A block fills one bytearray with strided slices, the prefixes
    and end directly (element 0's field starts every labeling) and each
    digit column by one translate of the block, and then drops the NULs:
    a fixed number of C-level calls whatever the block's length."""
    first, other, end = _FIELDS[fmt]
    # a block's text starts with what precedes its first labeling, "\n"
    # or "], ", which the writer puts between chunks, and JSON's last
    # labeling lacks its "]"
    cut, close = (3, "]") if fmt == "json" else (1, "")
    digits = len(str(size))
    labels = "".join(map(chr, range(1, size + 1)))
    names = [str(v).rjust(digits, "\0") for v in range(1, size + 1)]
    columns = [
        str.maketrans(labels, "".join(name[d] for name in names))
        for d in range(digits)
    ]
    pad = max(len(first), len(other))
    first, other = (
        prefix.rjust(pad, "\0").encode() + bytes(digits) + end.encode()
        for prefix in (first, other)
    )
    width = len(other)
    fixed = [j for j in range(width) if not pad <= j < pad + digits]
    for block in blocks:
        count = len(block)
        text = bytearray(count * width)
        for j in fixed:
            text[j::width] = other[j : j + 1] * count
            text[j :: width * size] = first[j : j + 1] * (count // size)
        for j, column in enumerate(columns, pad):
            text[j::width] = block.translate(column).encode("ascii")
        yield text.translate(None, b"\0")[cut:].decode("ascii") + close
