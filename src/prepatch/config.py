"""Runtime configuration with JSON file loading and flag overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional


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
        raw = json.loads(path.read_text(encoding="utf-8"))
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys in {path}: {', '.join(unknown)}")
        return cls(**raw)

    def merged(self, **overrides) -> "Config":
        """New config with the non-None overrides applied."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
