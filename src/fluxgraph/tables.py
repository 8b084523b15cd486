"""Output files and CSV tables: the one place that writes a file.

atomic_output writes UTF-8 without newline translation into a hidden
sibling that is renamed onto the target only once complete. A table is
a header row plus data rows in the csv module's default dialect; a
reader converts the integer columns it names, which must hold
non-negative decimal integers, and raises MalformedRecordError naming
the file and the 1-based line of every fault.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import operator
import os
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from .errors import MalformedRecordError


@contextlib.contextmanager
def atomic_output(path: str) -> Iterator[TextIO]:
    """Open a temporary sibling of path for writing text; rename it onto
    path when the block completes, and delete it when the block raises,
    leaving any earlier file at path as it was."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise _naming(exc, path) from None
        raise


def _naming(exc: OSError, path: str) -> OSError:
    """The same error, about path instead of its temporary sibling."""
    return OSError(exc.errno, exc.strerror, path)


def write_json(path: str, data, sort_keys: bool = True) -> None:
    """Write data as indented JSON followed by a newline."""
    with atomic_output(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with atomic_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def sorted_items(mapping: Mapping) -> Iterable[tuple]:
    """The items of mapping in ascending key order. A mapping built in
    that order costs one linear check instead of a sort."""
    if all(map(operator.lt, mapping, itertools.islice(mapping, 1, None))):
        return mapping.items()
    return sorted(mapping.items())


def read_table(
    path: str,
    header: Sequence[str],
    ints: Sequence[str] = (),
    check: Optional[Callable[[list], Optional[str]]] = None,
) -> Iterator[list]:
    """Yield the data rows of a CSV file that starts with exactly header.

    Every row must be as wide as the header. The columns named in ints
    are converted to int in place. check, when given, sees each
    converted row and returns the reason to reject it, or None.
    """
    header = list(header)
    width = len(header)
    columns = [header.index(name) for name in ints]
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                raise MalformedRecordError(
                    f"expected header {','.join(header)!r}, got {found!r}", 1, path
                )
            for row in reader:
                if len(row) != width:
                    raise MalformedRecordError(
                        f"expected {width} fields, got {len(row)}", reader.line_num, path
                    )
                for i in columns:
                    cell = row[i]
                    # isdigit alone admits non-ASCII digits such as '²'
                    if not (cell.isdigit() and cell.isascii()):
                        raise MalformedRecordError(
                            f"{header[i]} must be a non-negative integer, got {cell!r}",
                            reader.line_num,
                            path,
                        )
                    row[i] = int(cell)
                if check is not None:
                    reason = check(row)
                    if reason is not None:
                        raise MalformedRecordError(reason, reader.line_num, path)
                yield row
        except csv.Error as exc:
            raise MalformedRecordError(str(exc), reader.line_num + 1, path) from None
        except UnicodeDecodeError as exc:
            # text is decoded in chunks, so the bad byte may lie a few lines on
            raise MalformedRecordError(
                f"not UTF-8 at or after this line ({exc.reason})", reader.line_num + 1, path
            ) from None
