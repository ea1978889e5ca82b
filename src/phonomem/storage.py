"""Versioned JSON persistence for trained models.

Tensors are stored row-major with an explicit shape, as decimal floats at
full round-trip precision, so a saved model reloads bit-exactly. The file
puts each top-level key on its own line and each tensor row on its own
line, so it stays line-diffable while every value goes through the C JSON
encoder (an indented dump would run the pure-Python one). Each distinct
value of a range goes through it once, and the rows are joined from those
strings.
"""

from __future__ import annotations

import json
import os
import threading
from array import array
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .alphabet import Alphabet
from .errors import ModelFormatError
from .model import InteractionModel

FORMAT_VERSION = 1


def model_to_dict(m: InteractionModel) -> dict:
    """The saved file's content: the model's JSON text, parsed."""
    return json.loads(_model_text(m))


def model_from_dict(payload: dict) -> InteractionModel:
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ModelFormatError("not a model file: missing format_version")
    version = payload["format_version"]
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    try:
        _check_types(payload)
        alphabet = Alphabet(
            tuple(payload["alphabet"]),
            tuple((k, v) for k, v in payload.get("digraphs", [])),
        )
        shape = tuple(payload["g"]["shape"])
        if min(shape, default=0) < 0:  # numpy's reshape reads -1 as "infer"
            raise ValueError("g.shape holds a negative length")
        # array("d") takes numbers only (a bool as 0 or 1), where numpy would
        # also parse numeric strings, and costs no per-item type check.
        tensors = np.frombuffer(array("d", payload["g"]["data"])).reshape(shape)
        return InteractionModel(
            alphabet, payload["r_max"], payload["g0"], tensors, payload.get("meta", {})
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    except RecursionError as exc:  # freezing a meta nested too deep
        raise ModelFormatError("malformed model file: nested too deeply") from exc


def _list_of(value, types: set) -> bool:
    """Whether value is a list whose items each have one of these types."""
    return type(value) is list and types.issuperset(map(type, value))


def _check_types(payload: dict) -> None:
    """Refuse, rather than convert, a field of the wrong JSON type: a bool is
    not a number, nor a string a list of its characters. meta's items go
    unchecked: meta carries the whole training word list."""
    digraphs = payload.get("digraphs", [])
    checks = {
        "r_max is not an integer": type(payload["r_max"]) is int,
        "g0 is not a number": type(payload["g0"]) in (int, float),
        "alphabet is not a list of strings": _list_of(payload["alphabet"], {str}),
        "digraphs is not a list of string pairs": _list_of(digraphs, {list})
        and all(len(pair) == 2 and _list_of(pair, {str}) for pair in digraphs),
        "meta is not an object": isinstance(payload.get("meta", {}), dict),
    }
    for message, ok in checks.items():
        if not ok:
            raise TypeError(message)


def _plain(value):
    """JSON encoder hook: meta's read-only mappings are written as dicts."""
    if isinstance(value, MappingProxyType):
        return dict(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(value) -> str:
    return json.dumps(value, ensure_ascii=False, default=_plain)


def _model_text(m: InteractionModel) -> str:
    """The model file: one line per top-level key, and the tensor data one
    row (last axis) per line. Every field is written here, straight from the
    model's tuples and read-only meta. The pieces are joined once, so the
    text is not copied again on its way to one string."""
    head = {
        "format_version": FORMAT_VERSION,
        "alphabet": m.alphabet.symbols,
        "digraphs": m.alphabet.digraphs,
        "r_max": m.r_max,
        "g0": m.g0,
    }
    parts = ["{\n"]
    for key, value in head.items():
        parts += [" ", _dumps(key), ": ", _dumps(value), ",\n"]
    parts.append(f' "g": {{"shape": {_dumps(m.g.shape)}, "data": [\n  ')
    for matrix in m.g:
        # A trained range is u + v*count, so it holds few distinct values: each
        # is formatted once, keyed by its bits so that -0.0 and 0.0 stay apart.
        bits, inverse = np.unique(matrix.view(np.uint64), return_inverse=True)
        reprs = np.array(_dumps(bits.view(np.float64).tolist())[1:-1].split(", "), object)
        for row in reprs[inverse.reshape(matrix.shape)].tolist():
            parts += [", ".join(row), ",\n  "]
    parts[-1] = "\n ]},\n"  # the last row takes no comma
    parts += [' "meta": ', _dumps(m.meta), "\n}\n"]
    return "".join(parts)


def save_model(m: InteractionModel, path) -> None:
    """Write the model as JSON to a temporary file beside `path`, then move it
    over `path`, so a failed write leaves any earlier file intact."""
    path = Path(path)
    text = _model_text(m)
    # Named per process and thread rather than by mkstemp, whose 0600 mode
    # would replace the usual umask-based mode of the model file.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path) -> InteractionModel:
    try:
        return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:  # parsing a value nested too deep
        raise ModelFormatError(f"{path}: malformed model file: nested too deeply") from exc
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except ValueError as exc:  # an integer literal too long to convert
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
