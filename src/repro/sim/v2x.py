"""V2X communication: road-side unit and on-board unit (Use Case I).

Fig. 2 of the paper: "The road side unit (RSU) informs the vehicle via the
on board unit (OBU) about the upcoming [construction] site.  The OBU
should inform the driver, so that control is transferred back (upfront) to
the driver."

Message kinds carried on the V2X channel map to the three HARA functions
of §IV-A:

* ``road_works_warning`` -- "Hazardous location notifications (Road works
  warning)": triggers the take-over request,
* ``speed_limit`` -- "Signage applications (In-vehicle speed limits)":
  adjusts the automated target speed,
* ``hazard_warning`` -- "Warning of other traffic participants about
  hazardous vehicle state": shown to the driver (SG05 guards against a
  warning flood).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.crypto import KeyStore
from repro.sim.ecu import Ecu
from repro.sim.events import EventBus
from repro.sim.network import Medium, Message
from repro.sim.vehicle import Vehicle

KIND_ROAD_WORKS = "road_works_warning"
KIND_SPEED_LIMIT = "speed_limit"
KIND_HAZARD_WARNING = "hazard_warning"
#: A road-works warning relayed vehicle-to-vehicle (hop-limited).
KIND_V2V_RELAY = "v2v_road_works_relay"


class RoadsideUnit:
    """An RSU broadcasting authenticated infrastructure messages.

    Attributes:
        name: Sender identity (provisioned in the keystore).
        location: Logical location stamped on every message; plausibility
            checks compare it against the receiver's expectations.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        channel: Medium,
        keystore: KeyStore,
        location: str,
    ) -> None:
        self.name = name
        self.location = location
        self._clock = clock
        self._channel = channel
        self._keystore = keystore
        self._counter = 0
        keystore.provision(name)

    def _send(self, kind: str, payload: dict) -> Message:
        self._counter += 1
        # Timestamp at construction and create_signed (not construct +
        # signed copy) -- one Message build per periodic broadcast, its
        # tag computed only if something reads it.
        message = Message.create_signed(
            self._keystore,
            kind=kind,
            sender=self.name,
            payload=payload,
            counter=self._counter,
            timestamp=self._clock.now,
            location=self.location,
        )
        return self._channel.send(message)

    def send_road_works_warning(
        self, zone_start_m: float, speed_limit_mps: float
    ) -> Message:
        """Broadcast one road-works warning."""
        return self._send(
            KIND_ROAD_WORKS,
            {"zone_start_m": zone_start_m, "speed_limit_mps": speed_limit_mps},
        )

    def send_speed_limit(self, speed_limit_mps: float) -> Message:
        """Broadcast an in-vehicle signage speed limit."""
        return self._send(
            KIND_SPEED_LIMIT, {"speed_limit_mps": speed_limit_mps}
        )

    def send_hazard_warning(self, text: str) -> Message:
        """Broadcast a hazardous-vehicle-state warning."""
        return self._send(KIND_HAZARD_WARNING, {"text": text})

    def broadcast_periodically(
        self,
        period_ms: float,
        zone_start_m: float,
        speed_limit_mps: float,
        until: float | None = None,
    ) -> None:
        """Repeat the road-works warning every ``period_ms``."""
        if period_ms <= 0:
            raise SimulationError("broadcast period must be positive")
        self._clock.schedule_periodic(
            period_ms,
            lambda: self.send_road_works_warning(
                zone_start_m, speed_limit_mps
            ),
            until=until,
        )


class V2VRelay:
    """Vehicle-to-vehicle hazard forwarding (the V2V leg of V2X).

    A relay rides on a vehicle: it listens on the shared radio channel
    and re-broadcasts road-works warnings so convoy members *outside*
    the RSU's coverage still learn about the hazard ahead.  A warning is
    only forwarded when its HMAC verifies against the claimed sender's
    provisioned key -- re-signing an unverified message would launder a
    spoof past the receivers' own authentication.  Forwarded messages
    are signed with the relay's own provisioned identity (a vehicle
    cannot speak for the RSU), carry the originating ``(sender,
    counter)`` pair for de-duplication, and a ``hops`` counter bounds
    flooding: each warning is relayed at most once per relay and never
    beyond ``max_hops``.

    Attributes:
        name: Sender identity of the relay (provisioned in the keystore).
        forwarded: Number of warnings this relay re-broadcast.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        channel: Medium,
        keystore: KeyStore,
        bus: EventBus,
        max_hops: int = 2,
        forward_delay_ms: float = 5.0,
    ) -> None:
        if max_hops < 1:
            raise SimulationError("relay max_hops must be >= 1")
        if forward_delay_ms < 0:
            raise SimulationError("relay forward delay must be >= 0")
        self.name = name
        self.max_hops = max_hops
        self.forward_delay_ms = forward_delay_ms
        self.forwarded = 0
        self._clock = clock
        self._channel = channel
        self._keystore = keystore
        self._bus = bus
        self._counter = 0
        self._seen_origins: set[str] = set()
        keystore.provision(name)

    def _authentic(self, message: Message) -> bool:
        """True when the message's tag verifies for its claimed sender."""
        if not message.has_auth_tag() or not self._keystore.is_provisioned(
            message.sender
        ):
            return False
        # Instance-memoised: the relay checks the same broadcast every
        # OBU's sender-auth control already verified.
        return message.mac_verified(self._keystore.key_of(message.sender))

    def receive(self, message: Message) -> None:
        """Forward fresh, *authenticated* road-works warnings, hop-limited."""
        if message.sender == self.name:
            return
        if message.kind == KIND_ROAD_WORKS:
            origin = f"{message.sender}:{message.counter}"
            hops = 0
        elif message.kind == KIND_V2V_RELAY:
            origin = str(message.payload.get("origin", ""))
            hops = int(message.payload.get("hops", self.max_hops))
        else:
            return
        if not origin or origin in self._seen_origins or hops >= self.max_hops:
            return
        if not self._authentic(message):
            return
        self._seen_origins.add(origin)
        payload = {
            "zone_start_m": message.payload.get("zone_start_m"),
            "speed_limit_mps": message.payload.get("speed_limit_mps"),
            "origin": origin,
            "hops": hops + 1,
        }
        self._clock.schedule(
            self.forward_delay_ms, lambda: self._forward(payload)
        )

    def _forward(self, payload: dict) -> None:
        self._counter += 1
        self.forwarded += 1
        message = Message.create_signed(
            self._keystore,
            kind=KIND_V2V_RELAY,
            sender=self.name,
            payload=payload,
            counter=self._counter,
            timestamp=self._clock.now,
        )
        self._channel.send(message)
        self._bus.publish(
            self._clock.now,
            "v2v.relayed",
            self.name,
            origin=payload["origin"],
            hops=payload["hops"],
        )


class OnBoardUnit(Ecu):
    """The OBU: receives V2X messages and drives the vehicle's reactions.

    Accepted road-works warnings request the driver take-over; accepted
    speed limits retarget the automation; accepted hazard warnings are
    surfaced to the driver (and counted, for SG05's "too many unintended
    warnings" concern).
    """

    __slots__ = ("_vehicle", "warnings_shown")

    def __init__(
        self,
        name: str,
        clock: SimClock,
        bus: EventBus,
        vehicle: Vehicle,
        service_time_ms: float = 0.5,
        queue_capacity: int | None = 64,
        shutdown_after_overloads: int | None = 500,
    ) -> None:
        super().__init__(
            name,
            clock,
            bus,
            service_time_ms=service_time_ms,
            queue_capacity=queue_capacity,
            shutdown_after_overloads=shutdown_after_overloads,
        )
        self._vehicle = vehicle
        self.warnings_shown = 0

    def handle(self, message: Message) -> None:
        if message.kind == KIND_ROAD_WORKS:
            self._bus.publish(
                self._clock.now,
                "obu.warning_accepted",
                self.name,
                zone_start_m=message.payload.get("zone_start_m"),
                sender=message.sender,
            )
            self._vehicle.request_handover(reason="road works ahead")
        elif message.kind == KIND_V2V_RELAY:
            self._bus.publish(
                self._clock.now,
                "obu.relay_accepted",
                self.name,
                zone_start_m=message.payload.get("zone_start_m"),
                origin=message.payload.get("origin"),
                hops=message.payload.get("hops"),
                sender=message.sender,
            )
            self._vehicle.request_handover(
                reason="road works ahead (relayed)"
            )
        elif message.kind == KIND_SPEED_LIMIT:
            limit = message.payload.get("speed_limit_mps")
            if isinstance(limit, (int, float)) and not isinstance(limit, bool):
                self._bus.publish(
                    self._clock.now,
                    "obu.speed_limit_accepted",
                    self.name,
                    speed_limit_mps=limit,
                )
                self._vehicle.set_target_speed(float(limit))
        elif message.kind == KIND_HAZARD_WARNING:
            self.warnings_shown += 1
            self._bus.publish(
                self._clock.now,
                "obu.hazard_warning_shown",
                self.name,
                text=message.payload.get("text", ""),
                total_shown=self.warnings_shown,
            )


__all__ = [
    "KIND_HAZARD_WARNING",
    "KIND_ROAD_WORKS",
    "KIND_SPEED_LIMIT",
    "KIND_V2V_RELAY",
    "OnBoardUnit",
    "RoadsideUnit",
    "V2VRelay",
]
