"""The spatial data-management domain (``spatialdb``).

The paper's law-enforcement mediator asks a spatial package two things:

* ``locateaddress(streetnum, streetname, cityname, statename, zipcode)`` --
  geocode an address into map coordinates, and
* ``range(map, x, y, radius)`` -- is the point within ``radius`` of the
  map's reference point (the paper's "within a hundred mile radius of
  Washington DC")?

The real system used a US-Army spatial data structure; here a synthetic
geocoder (a dictionary of known addresses) plus Euclidean geometry exercises
the same call pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.domains.base import Domain
from repro.errors import EvaluationError
from repro.reldb.rows import Row

#: An address key: (streetnum, streetname, cityname, statename, zipcode).
AddressKey = Tuple[object, object, object, object, object]


@dataclass(frozen=True)
class MapRegion:
    """A named map with a reference point (e.g. the DC area map)."""

    name: str
    center_x: float
    center_y: float

    def distance_from_center(self, x: float, y: float) -> float:
        """Euclidean distance of (x, y) from the map's reference point."""
        return math.hypot(x - self.center_x, y - self.center_y)


class SpatialDomain(Domain):
    """A geocoding + range-query domain."""

    def __init__(
        self,
        name: str = "spatialdb",
        addresses: Optional[Mapping[AddressKey, Tuple[float, float]]] = None,
        maps: Iterable[MapRegion] = (),
    ) -> None:
        super().__init__(name, "spatial data management (geocoding and range queries)")
        self._addresses: Dict[AddressKey, Tuple[float, float]] = dict(addresses or {})
        self._maps: Dict[str, MapRegion] = {region.name: region for region in maps}
        self.register(
            "locateaddress",
            self._locateaddress,
            "geocode an address into a point row",
            arity=5,
        )
        self.register(
            "range",
            self._range,
            "true iff (x, y) is within `radius` of the map's reference point",
            arity=4,
        )
        self.register(
            "distance", self._distance, "distance of (x, y) from the map center", arity=3
        )
        self.register("point_x", self._point_x, "the x coordinate of a point row", arity=1)
        self.register("point_y", self._point_y, "the y coordinate of a point row", arity=1)

    # ------------------------------------------------------------------
    # Scenario construction
    # ------------------------------------------------------------------
    def add_address(self, address: AddressKey, location: Tuple[float, float]) -> None:
        """Register a geocodable address."""
        self._addresses[tuple(address)] = (float(location[0]), float(location[1]))
        self._bump_source()

    def remove_address(self, address: AddressKey) -> None:
        """Forget an address (models a source update)."""
        self._addresses.pop(tuple(address), None)
        self._bump_source()

    # ------------------------------------------------------------------
    # Domain functions
    # ------------------------------------------------------------------
    def _locateaddress(
        self,
        streetnum: object,
        streetname: object,
        cityname: object,
        statename: object,
        zipcode: object,
    ) -> Tuple[Row, ...]:
        key = (streetnum, streetname, cityname, statename, zipcode)
        location = self._addresses.get(key)
        if location is None:
            return ()
        return (Row({"x": location[0], "y": location[1]}),)

    def _map(self, map_name: object) -> MapRegion:
        if not isinstance(map_name, str) or map_name not in self._maps:
            raise EvaluationError(
                f"{self.name}: unknown map {map_name!r} (have {sorted(self._maps)})"
            )
        return self._maps[map_name]

    def _range(self, map_name: object, x: object, y: object, radius: object) -> bool:
        region = self._map(map_name)
        return region.distance_from_center(_number(x), _number(y)) <= _number(radius)

    def _distance(self, map_name: object, x: object, y: object) -> set:
        region = self._map(map_name)
        return {region.distance_from_center(_number(x), _number(y))}

    def _point_x(self, point: object) -> set:
        return {_point(point)["x"]}

    def _point_y(self, point: object) -> set:
        return {_point(point)["y"]}


def _number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"expected a number, got {value!r}")
    return float(value)


def _point(value: object) -> Row:
    if not isinstance(value, Row) or "x" not in value or "y" not in value:
        raise EvaluationError(f"expected a point row with x/y, got {value!r}")
    return value


def make_spatial_domain(
    name: str = "spatialdb",
    addresses: Optional[Mapping[AddressKey, Tuple[float, float]]] = None,
    maps: Optional[Mapping[str, Tuple[float, float]]] = None,
) -> SpatialDomain:
    """Build a spatial domain from plain dictionaries.

    *maps* maps a map name to its reference-point coordinates.
    """
    regions = tuple(
        MapRegion(map_name, center[0], center[1]) for map_name, center in (maps or {}).items()
    )
    return SpatialDomain(name, addresses, regions)
