"""Versioned JSON persistence for trained models.

Tensors are stored row-major with an explicit shape, as decimal floats at
full round-trip precision, so a saved model reloads bit-exactly. The file
puts each top-level key on its own line and each tensor row on its own
line, so it stays line-diffable while every value goes through the C JSON
encoder (an indented dump would run the pure-Python one).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

from .alphabet import Alphabet
from .errors import CorpusError, ModelFormatError
from .model import InteractionModel, _thaw

FORMAT_VERSION = 1


def model_to_dict(m: InteractionModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "alphabet": list(m.alphabet.symbols),
        "digraphs": [list(kv) for kv in m.alphabet.digraphs],
        "r_max": m.r_max,
        "g0": m.g0,
        "g": {"shape": list(m.g.shape), "data": m.g.reshape(-1).tolist()},
        "meta": _thaw(m.meta),
    }


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
        alphabet = Alphabet(
            tuple(payload["alphabet"]),
            tuple((k, v) for k, v in payload.get("digraphs", [])),
        )
        shape = tuple(payload["g"]["shape"])
        tensors = np.array(payload["g"]["data"], dtype=np.float64).reshape(shape)
        return InteractionModel(
            alphabet,
            int(payload["r_max"]),
            float(payload["g0"]),
            tensors,
            dict(payload.get("meta", {})),
        )
    except CorpusError as exc:  # the only CorpusError of Alphabet: no symbols
        raise ModelFormatError("malformed model file: empty alphabet") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc


def _dumps(value) -> str:
    return json.dumps(value, ensure_ascii=False)


def _model_text(m: InteractionModel) -> str:
    """model_to_dict(m) as JSON text: one line per top-level key, and the
    tensor data one row (last axis) per line. The pieces are joined once, so
    the text is not copied again on its way to one string."""
    parts: list[str] = []
    for key, value in model_to_dict(m).items():
        parts += [",\n " if parts else "{\n ", _dumps(key), ": "]
        if key != "g":
            parts.append(_dumps(value))
            continue
        data, width = value["data"], value["shape"][-1]
        parts.append(f'{{"shape": {_dumps(value["shape"])}, "data": [\n  ')
        for i in range(0, len(data), width):
            parts += [_dumps(data[i : i + width])[1:-1], ",\n  "]
        parts[-1] = "\n ]}"  # the last row takes no comma
    parts.append("\n}\n")
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
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return model_from_dict(payload)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
