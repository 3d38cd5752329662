"""The road world: a 1-D roadway with named zones.

Use Case I (Fig. 2) only needs longitudinal geometry: an autonomous
vehicle approaches a construction site along a road, with a road-side
unit located ahead of the site.  The world is therefore a 1-D position
axis (metres) with named :class:`Zone` intervals (construction site,
RSU radio coverage, intersection box, ...).  Keeping the geometry minimal
keeps every scenario deterministic and the safety predicates crisp
("vehicle inside the construction zone while in automated mode").
"""

from __future__ import annotations

import dataclasses

from repro.errors import SimulationError


class ClampedPosition(float):
    """A road position produced by :meth:`World.clamp`.

    Behaves exactly like the underlying ``float`` (so every existing
    arithmetic call site is untouched) but additionally carries
    ``saturated``: whether clamping actually moved the position onto the
    road.  Scenarios assert actors stayed on-road by checking the flag
    instead of comparing floats against the road ends.
    """

    saturated: bool

    def __new__(cls, value: float, saturated: bool) -> "ClampedPosition":
        self = super().__new__(cls, value)
        self.saturated = saturated
        return self

    def __getnewargs__(self) -> tuple[float, bool]:
        # float.__getnewargs__ supplies only the value; without the flag
        # pickle/deepcopy would crash crossing a worker-process boundary.
        return (float(self), self.saturated)


@dataclasses.dataclass(frozen=True)
class Zone:
    """A named interval of the road, ``[start, end)`` in metres."""

    name: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError(
                f"zone {self.name!r}: end ({self.end}) must exceed start "
                f"({self.start})"
            )

    def contains(self, position: float) -> bool:
        """True when ``position`` lies inside the zone."""
        return self.start <= position < self.end

    @property
    def length(self) -> float:
        """Zone length in metres."""
        return self.end - self.start


class World:
    """The 1-D road with its zones.

    Attributes:
        road_length_m: Total road length; positions beyond it saturate.
    """

    def __init__(self, road_length_m: float = 3000.0) -> None:
        if road_length_m <= 0:
            raise SimulationError("road length must be positive")
        self.road_length_m = road_length_m
        self._zones: dict[str, Zone] = {}
        self._zones_view: tuple[Zone, ...] = ()

    def add_zone(self, name: str, start: float, end: float) -> Zone:
        """Define a named zone.

        Raises:
            SimulationError: on duplicate names or out-of-road intervals.
        """
        if name in self._zones:
            raise SimulationError(f"zone {name!r} already defined")
        if start < 0 or end > self.road_length_m:
            raise SimulationError(
                f"zone {name!r} [{start}, {end}) outside road "
                f"[0, {self.road_length_m})"
            )
        zone = Zone(name=name, start=start, end=end)
        self._zones[name] = zone
        self._zones_view = tuple(self._zones.values())
        return zone

    def zone(self, name: str) -> Zone:
        """Look up a zone by name."""
        if name not in self._zones:
            raise SimulationError(f"unknown zone {name!r}")
        return self._zones[name]

    @property
    def zones(self) -> tuple[Zone, ...]:
        """All zones in definition order (cached; rebuilt on add_zone)."""
        return self._zones_view

    def zones_at(self, position: float) -> tuple[Zone, ...]:
        """The zones containing ``position``."""
        return tuple(
            zone for zone in self._zones_view if zone.contains(position)
        )

    def in_zone(self, position: float, name: str) -> bool:
        """True when ``position`` lies inside the named zone."""
        return self.zone(name).contains(position)

    def distance_to(self, position: float, name: str) -> float:
        """Metres from ``position`` to the start of the named zone.

        Negative once the position is past the zone start.
        """
        return self.zone(name).start - position

    def clamp_value(self, position: float) -> tuple[float, bool]:
        """:meth:`clamp` as a plain ``(position, saturated)`` pair.

        The allocation-free variant for per-tick kinematics callers;
        :meth:`clamp` stays the public carrier-object API.
        """
        if position < 0.0:
            return 0.0, True
        if position > self.road_length_m:
            return self.road_length_m, True
        return position, False

    def clamp(self, position: float) -> ClampedPosition:
        """Clamp a position onto the road.

        Returns a :class:`ClampedPosition` -- a ``float`` whose
        ``saturated`` flag reports whether the input lay off-road.
        """
        value, saturated = self.clamp_value(position)
        return ClampedPosition(value, saturated=saturated)

    def place(self, position: float) -> float:
        """Validate an *initial* placement; saturation is not allowed.

        Raises:
            SimulationError: when the position is negative or beyond the
                road end -- placements must start on the road, only
                *motion* may saturate at the ends.
        """
        if position < 0:
            raise SimulationError(
                f"negative placement ({position} m) rejected; the road "
                "starts at 0 m"
            )
        if position > self.road_length_m:
            raise SimulationError(
                f"placement {position} m is beyond the road end "
                f"({self.road_length_m} m)"
            )
        return position


__all__ = [
    "ClampedPosition",
    "World",
    "Zone",
]
