"""The CSV kinds schoolsim writes, each declared once by its header.

Rows go through ``csv.writer``, so a float is written as its ``repr()``,
the shortest text that reads back to the same double.
"""

import csv
from itertools import islice

import numpy as np

HEADERS = {
    "field": ["cell_i", "cell_j", "x_center", "y_center", "fluid_flag", "U", "dUdx", "dUdy"],
    "results": ["N", "trials", "failure_count", "presuccess_count", "success_count",
                "success_probability"],
    "trials": ["N", "trial_index", "seed", "outcome", "final_center_x", "final_center_y",
               "components"],
    "trajectory": ["t", "particle_id", "x", "y", "vx", "vy"],
}
READ_ROWS = 4096


def write(path, kind, blocks):
    """Write a `kind` CSV: its header, then the rows of each block of columns.

    A column is an array or a list; an array goes through ``tolist()``, so
    a uint64 column of trial seeds writes every seed exactly.  A cell that
    is neither a string nor a number is written as its ``str()``.
    """
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(HEADERS[kind])
        for block in blocks:
            cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            out.writerows(zip(*cols, strict=True))


def read(path, kind) -> np.ndarray:
    """The rows of a `kind` CSV, in file order, as a (rows, columns) float
    array, parsed READ_ROWS rows at a time.  Raises ValueError unless the
    text is UTF-8 that csv can read, the header is that of `kind`, every row
    holds one finite number per column, and every index or count is a
    nonnegative integer below 2**63, which the readers can cast to int."""
    header = HEADERS[kind]
    ints = [k for k, name in enumerate(header)
            if name in ("cell_i", "cell_j", "fluid_flag", "N", "trials", "failure_count",
                        "presuccess_count", "success_count", "particle_id")]
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            found = next(rows, None)
            if found != header:
                raise ValueError(f"not a {kind} CSV (header {found})")
            blocks = [np.empty((0, len(header)))]
            while block := list(islice(rows, READ_ROWS)):
                if any(len(row) != len(header) for row in block):
                    raise ValueError(f"{kind} CSV has a row without {len(header)} cells")
                cells = np.array(block, dtype=float)
                whole = cells[:, ints]
                if not (np.isfinite(cells).all() and (whole >= 0).all()
                        and (whole < 2**63).all() and (whole == np.floor(whole)).all()):
                    raise ValueError(f"{kind} CSV cells must be finite numbers, and its "
                                     f"{', '.join(header[k] for k in ints)} cells "
                                     f"nonnegative integers below 2**63")
                blocks.append(cells)
    except (csv.Error, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: {e}") from e
    return np.concatenate(blocks)


def kind_of(path):
    """The kind whose header heads the CSV at path, or None."""
    try:
        with open(path, newline="") as fh:
            found = next(csv.reader(fh), None)
    except (csv.Error, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: {e}") from e
    return next((kind for kind, header in HEADERS.items() if found == header), None)
