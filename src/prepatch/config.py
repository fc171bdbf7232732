"""Runtime configuration with JSON file loading and flag overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional

# The JSON values each annotation takes (never a bool), named for a refusal.
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "Optional[str]": ((str, type(None)), "a string or null")}


def read_json(path: Path) -> Any:
    """The JSON value in ``path``; ValueError("<path>: <reason>") if none."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class Config:
    desired_width: int = 640
    desired_height: int = 320
    slice_depth: int = 1
    detection_threshold: float = 0.8
    image_count: int = 100
    seed: int = 20240817
    repack_command: Optional[str] = None

    @classmethod
    def from_file(cls, path: Path) -> "Config":
        """Checks keys and types; the readers of each value check its range."""
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: the top level must be a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(raw) - set(types))
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
        for key, value in raw.items():
            accepted, name = _JSON_TYPES[types[key]]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"{path}: {key} must be {name}, got {json.dumps(value)}")
        return cls(**raw)

    def merged(self, **overrides) -> "Config":
        """New config with the non-None overrides applied."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self
