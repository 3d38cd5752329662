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
from typing import Callable

from repro.errors import SimulationError


@dataclasses.dataclass(frozen=True)
class Zone:
    """A named interval of the road, ``[start, end)`` in metres."""

    name: str
    start: float
    end: float

    def __post_init__(self) -> None:
        # A NaN bound compares false both ways: the zone could never be
        # entered, and it would poison the tick cohort's crossing ticks.
        if self.start != self.start or self.end != self.end:
            raise SimulationError(
                f"zone {self.name!r}: bounds [{self.start}, {self.end}) "
                "must be numbers, not NaN"
            )
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

    The world also keeps each zone's *occupants*: the residents
    (vehicles, registered by :meth:`add_resident`) currently inside it.
    Every position write keeps the sets current -- placement, the
    ``position_m`` setter (:meth:`relocate`) and the tick cohort, which
    inlines :meth:`relocate` for the vehicles it checks and schedules
    every cruising vehicle's next boundary crossing -- so a zone
    predicate can visit the few residents inside a zone instead of
    every resident on the road.

    Attributes:
        road_length_m: Total road length; positions beyond it saturate.
    """

    def __init__(self, road_length_m: float = 3000.0) -> None:
        if road_length_m <= 0:
            raise SimulationError("road length must be positive")
        self.road_length_m = road_length_m
        self._zones: dict[str, Zone] = {}
        self._zones_view: tuple[Zone, ...] = ()
        self._residents: list = []
        # Zone name -> the residents inside it.
        self._occupants: dict[str, set] = {}
        self._zone_listeners: list[Callable[[], None]] = []

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
        self._occupants[name] = {
            resident
            for resident in self._residents
            if zone.contains(resident.position_m)
        }
        for listener in self._zone_listeners:
            listener()
        return zone

    def add_zone_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` after each zone added from now on: the
        tick cohorts schedule their vehicles' zone crossings, and a new
        zone brings new crossings."""
        self._zone_listeners.append(listener)

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

    def add_resident(self, resident) -> None:
        """Keep ``resident`` in the occupancy of the zones it is inside.

        ``resident`` is anything with a ``position_m`` (a
        :class:`~repro.sim.vehicle.Vehicle`); from now on each of its
        position writes must be reported through :meth:`relocate`.
        """
        self._residents.append(resident)
        position = resident.position_m
        for zone in self._zones_view:
            if zone.contains(position):
                self._occupants[zone.name].add(resident)

    def relocate(self, resident, previous: float, position: float) -> None:
        """Update occupancy after ``resident`` moved from ``previous``."""
        for zone in self._zones_view:
            inside = zone.contains(position)
            if inside != zone.contains(previous):
                if inside:
                    self._occupants[zone.name].add(resident)
                else:
                    self._occupants[zone.name].discard(resident)

    def occupants(self, name: str) -> frozenset:
        """The residents currently inside the named zone."""
        self.zone(name)  # rejects an unknown name
        return frozenset(self._occupants[name])

    def in_zone(self, position: float, name: str) -> bool:
        """True when ``position`` lies inside the named zone."""
        return self.zone(name).contains(position)

    def distance_to(self, position: float, name: str) -> float:
        """Metres from ``position`` to the start of the named zone.

        Negative once the position is past the zone start.
        """
        return self.zone(name).start - position

    def clamp_value(self, position: float) -> tuple[float, bool]:
        """Clamp a position onto the road: ``(position, saturated)``.

        ``saturated`` reports whether the input lay off-road.
        """
        if position < 0.0:
            return 0.0, True
        if position > self.road_length_m:
            return self.road_length_m, True
        return position, False

    def place(self, position: float) -> float:
        """Validate a placement (a start position or a direct position
        write); saturation is not allowed.

        Raises:
            SimulationError: when the position is negative, beyond the
                road end or NaN -- placements must start on the road,
                only *motion* may saturate at the ends.
        """
        if position != position:
            raise SimulationError("placement is NaN, not a road position")
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
    "World",
    "Zone",
]
