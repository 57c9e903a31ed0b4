"""The binary container of spectrogram caches (`.lssg`) and checkpoints
(`.lsck`): a 4-byte magic; the format version and the header's length as
`<II`; a JSON object header whose "arrays" list gives each array's name,
dtype (`<f4` or `<f8`) and shape, in file order; then the arrays' bytes."""

import json
import math
import os
import struct

import numpy as np

from .errors import FormatError

_PREFIX = struct.Struct("<4sII")


def save(path, magic, version, header, arrays):
    """Writes the JSON object `header` plus the "arrays" list of `arrays` (name
    -> `<f4` or `<f8` array, in file order) to `path`.tmp, then renames it."""
    listing = [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
               for name, a in arrays.items()]
    blob = json.dumps({**header, "arrays": listing}, sort_keys=True).encode()
    with open(f"{path}.tmp", "wb") as fh:
        fh.writelines([_PREFIX.pack(magic, version, len(blob)), blob,
                       *(np.ascontiguousarray(a) for a in arrays.values())])
    os.replace(f"{path}.tmp", path)


def load(path, magic, version, kind):
    """(header less "arrays", {name: read-only view into the file's bytes}).
    Before any array is built, a FormatError naming `path` and `kind` is
    raised for another magic or version, a header that is not a JSON object
    with an "arrays" list, a malformed or repeated entry, or a file length
    other than the one the list implies."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PREFIX.size or blob[:4] != magic:
        raise FormatError(f"{path}: not a {kind} file")
    _, found, n = _PREFIX.unpack_from(blob)
    if found != version:
        raise FormatError(f"{path}: unsupported {kind} version {found}")
    offset = _PREFIX.size + n
    try:
        header = json.loads(blob[_PREFIX.size : offset])
        listing = [(e["name"], e["dtype"], e["shape"])
                   for e in header.pop("arrays")]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: corrupt {kind} header: {exc!r}") from exc
    spans = {}  # name -> (dtype, shape, offset)
    for name, dtype, shape in listing:
        if not (type(name) is str and dtype in ("<f4", "<f8")
                and type(shape) is list
                and all(type(d) is int and d >= 0 for d in shape)):
            raise FormatError(f"{path}: malformed {kind} array entry "
                              f"{name!r}: {dtype!r}, {shape!r}")
        if name in spans:
            raise FormatError(f"{path}: {kind} lists array {name!r} twice")
        spans[name] = dtype, shape, offset
        offset += np.dtype(dtype).itemsize * math.prod(shape)
    if len(blob) != offset:
        raise FormatError(f"{path}: {kind} is {len(blob)} bytes; its arrays "
                          f"list implies {offset}")
    return header, {name: np.frombuffer(blob, dtype, math.prod(shape),
                                        start).reshape(shape)
                    for name, (dtype, shape, start) in spans.items()}
