"""Perturbation parameters shared by the injector and the simulator.

A PerturbationSpec says how to disturb a wrapper's pre-processing
values: force or shift the rotation, pin width or height, or swap the
stored format tag. Rotation arithmetic is (current + delta) mod 360
unless normalization is turned off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

RIGHT_ANGLES = (0, 90, 180, 270)


@dataclass(frozen=True)
class PerturbationSpec:
    rotation_override: Optional[int] = None
    rotation_delta: Optional[int] = None
    width_override: Optional[int] = None
    height_override: Optional[int] = None
    format_override: Optional[int] = None
    normalize_rotation: bool = True

    def __post_init__(self) -> None:
        if self.rotation_override is not None and self.rotation_delta is not None:
            raise ValueError("rotation_override and rotation_delta are exclusive")
        for name in ("width_override", "height_override"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def is_noop(self) -> bool:
        return (self.rotation_override is None and self.rotation_delta is None
                and self.width_override is None and self.height_override is None
                and self.format_override is None)

    def effective_rotation(self, current: Optional[int]) -> Optional[int]:
        """Rotation value after applying this spec to a stored value."""
        if self.rotation_override is not None:
            value = self.rotation_override
        elif self.rotation_delta is not None:
            if current is None:
                return None
            value = current + self.rotation_delta
        else:
            return current
        return value % 360 if self.normalize_rotation else value

    def rotation_warnings(self, current: Optional[int]) -> List[str]:
        """Human-facing cautions about a planned rotation change."""
        effective = self.effective_rotation(current)
        notes = []
        if effective is None:
            return notes
        if current is not None and effective == current:
            notes.append(f"rotation stays {current}; change is a no-op")
        if effective not in RIGHT_ANGLES:
            notes.append(
                f"rotation {effective} is not a right angle; some decoders "
                "reject values outside 0/90/180/270")
        return notes

    def to_dict(self) -> dict:
        return {
            "rotation_override": self.rotation_override,
            "rotation_delta": self.rotation_delta,
            "width_override": self.width_override,
            "height_override": self.height_override,
            "format_override": self.format_override,
            "normalize_rotation": self.normalize_rotation,
        }
