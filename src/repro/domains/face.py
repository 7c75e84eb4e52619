"""Face-extraction and face-database domains (``facextract`` / ``facedb``).

The paper's running example integrates two image-processing packages:

* ``facextract:segmentface(dataset)`` -- extract the prominent faces from a
  set of surveillance photographs, returning ``(resultfile, origin)`` pairs,
* ``facextract:matchface(face1, face2)`` -- do two extracted faces show the
  same person?
* ``facedb:findface(name)`` -- the mugshots of a named person in the
  background face database, and
* ``facedb:findname(mugshot)`` -- the name attached to a mugshot.

The originals are proprietary federal law-enforcement packages; this module
replaces the image processing with a deterministic synthetic scenario (who
appears in which photograph is scripted), which exercises exactly the same
domain-call pattern the mediator rules rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.domains.base import Domain
from repro.errors import EvaluationError
from repro.reldb.rows import Row


@dataclass
class FaceScenario:
    """Ground truth behind the two face domains.

    ``appearances`` maps a surveillance dataset name to a list of photographs,
    each photograph being the list of person names visible in it.
    """

    people: Tuple[str, ...]
    appearances: Dict[str, List[List[str]]] = field(default_factory=dict)
    #: Mutation counter folded into the face domains' source version tokens.
    version: int = 0

    def mugshot_of(self, person: str) -> str:
        """Identifier of a person's mugshot in the background face database."""
        return f"mugshot::{person}"

    def extracted_faces(self, dataset: str) -> Tuple[Row, ...]:
        """The ``(resultfile, origin)`` rows extracted from *dataset*."""
        photos = self.appearances.get(dataset, [])
        faces: List[Row] = []
        for photo_index, visible_people in enumerate(photos):
            for face_index, person in enumerate(visible_people):
                faces.append(
                    Row(
                        {
                            "resultfile": f"{dataset}/photo{photo_index}/face{face_index}",
                            "origin": f"{dataset}/photo{photo_index}",
                            "person": person,
                        }
                    )
                )
        return tuple(faces)

    def add_photo(self, dataset: str, visible_people: Sequence[str]) -> None:
        """Append one photograph to a surveillance dataset."""
        unknown = [person for person in visible_people if person not in self.people]
        if unknown:
            raise EvaluationError(f"unknown people in photo: {unknown}")
        self.appearances.setdefault(dataset, []).append(list(visible_people))
        self.version += 1

    def remove_photo(self, dataset: str, photo_index: int) -> None:
        """Remove one photograph (models retraction of surveillance data)."""
        photos = self.appearances.get(dataset, [])
        if not 0 <= photo_index < len(photos):
            raise EvaluationError(
                f"dataset {dataset!r} has no photo index {photo_index}"
            )
        del photos[photo_index]
        self.version += 1


def make_face_scenario(
    people: Sequence[str],
    dataset: str = "surveillancedata",
    photos: Optional[Sequence[Sequence[str]]] = None,
    photo_count: int = 5,
    people_per_photo: int = 3,
    seed: int = 0,
) -> FaceScenario:
    """Build a scenario, either from explicit *photos* or randomly.

    Random generation is deterministic for a given *seed* so benchmarks and
    tests are repeatable.
    """
    scenario = FaceScenario(tuple(people))
    if photos is not None:
        for visible in photos:
            scenario.add_photo(dataset, list(visible))
        return scenario
    rng = random.Random(seed)
    for _ in range(photo_count):
        size = min(people_per_photo, len(people))
        scenario.add_photo(dataset, rng.sample(list(people), size))
    return scenario


class FaceExtractDomain(Domain):
    """The ``facextract`` pattern-recognition package."""

    def __init__(self, scenario: FaceScenario, name: str = "facextract") -> None:
        super().__init__(name, "face extraction from surveillance photographs")
        self._scenario = scenario
        self.register(
            "segmentface",
            self._segmentface,
            "extract (resultfile, origin) face rows from a surveillance dataset",
            arity=1,
        )
        self.register(
            "matchface",
            self._matchface,
            "true iff two extracted/mugshot faces show the same person",
            arity=2,
        )
        self.register(
            "origin_of", self._origin_of, "the photograph a face was extracted from", arity=1
        )

    def source_version(self) -> object:
        """Fold the scenario's mutation counter into the version token."""
        return (super().source_version(), self._scenario.version)

    def _segmentface(self, dataset: object) -> Tuple[Row, ...]:
        if not isinstance(dataset, str):
            raise EvaluationError(f"segmentface expects a dataset name, got {dataset!r}")
        return self._scenario.extracted_faces(dataset)

    def _matchface(self, face1: object, face2: object) -> bool:
        return _person_of(self._scenario, face1) == _person_of(self._scenario, face2)

    def _origin_of(self, face: object) -> set:
        if isinstance(face, Row) and "origin" in face:
            return {face["origin"]}
        raise EvaluationError(f"origin_of expects an extracted face row, got {face!r}")


class FaceDbDomain(Domain):
    """The ``facedb`` background face database (passport pictures)."""

    def __init__(self, scenario: FaceScenario, name: str = "facedb") -> None:
        super().__init__(name, "background face database with known identities")
        self._scenario = scenario
        self.register(
            "findface", self._findface, "mugshots of a named person", arity=1
        )
        self.register(
            "findname", self._findname, "the name attached to a mugshot", arity=1
        )
        self.register("people", self._people, "every person known to the database", arity=0)

    def source_version(self) -> object:
        """Fold the scenario's mutation counter into the version token."""
        return (super().source_version(), self._scenario.version)

    def _findface(self, person: object) -> Tuple[str, ...]:
        if person in self._scenario.people:
            return (self._scenario.mugshot_of(str(person)),)
        return ()

    def _findname(self, mugshot: object) -> Tuple[str, ...]:
        person = _person_of(self._scenario, mugshot)
        return (person,) if person is not None else ()

    def _people(self) -> Tuple[str, ...]:
        return self._scenario.people


def _person_of(scenario: FaceScenario, face: object) -> Optional[str]:
    """Identity of the person shown by an extracted face row or mugshot id."""
    if isinstance(face, Row) and "person" in face:
        return str(face["person"])
    if isinstance(face, str) and face.startswith("mugshot::"):
        person = face[len("mugshot::"):]
        return person if person in scenario.people else None
    return None
