"""Deterministic CSV/JSON writers: '.' decimals, LF endings, 17 significant digits."""

import json
import math
from pathlib import Path


def format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if x is None:
        return ""
    xf = float(x)
    if xf == 0.0:
        return "0"   # not "-0"
    return format(xf, ".17g")   # "nan", "inf" and "-inf" included


def write_csv(path: Path, header: str, rows) -> None:
    """Write rows under an exact header string; every float at 17 significant digits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def _jsonable(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN or infinity; write them as the strings "nan", "inf", "-inf"
        obj = float(obj)
        return str(obj) if math.isnan(obj) or math.isinf(obj) else obj
    return obj


def write_json(path: Path, obj: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
