"""Unit tests for the concrete domains (arithmetic, relational, spatial, face)."""

from __future__ import annotations

import pytest

from repro.domains import (
    FaceDbDomain,
    FaceExtractDomain,
    MapRegion,
    make_arithmetic_domain,
    make_face_scenario,
    make_relational_domain,
    make_spatial_domain,
)
from repro.errors import EvaluationError
from repro.reldb import Row


class TestArithmeticDomain:
    @pytest.fixture
    def arith(self):
        return make_arithmetic_domain()

    def test_greater_is_intensional(self, arith):
        result = arith.call("greater", (5,))
        assert not result.is_finite()
        assert result.contains(6) and not result.contains(5)
        # An integer set, like ``between``: 6.0 is in it, 5.5 is not.
        assert result.contains(6.0) and not result.contains(5.5)

    def test_great_alias(self, arith):
        assert arith.call("great", (2,)).contains(3)

    def test_less_and_bounds(self, arith):
        assert arith.call("less", (5,)).contains(4) and not arith.call("less", (5,)).contains(5)
        assert arith.call("greater_eq", (5,)).contains(5)
        assert arith.call("less_eq", (5,)).contains(5)

    def test_between_is_finite(self, arith):
        assert set(arith.call("between", (2, 4)).iter_values()) == {2, 3, 4}

    @pytest.mark.parametrize(
        "function, bound, inside",
        [("greater", 1, 3), ("greater_eq", 1, 1), ("less", 3, 2), ("less_eq", 3, 3)],
    )
    def test_orderings_hold_integers_like_between(self, arith, function, bound, inside):
        from repro.constraints import ConstraintSolver
        from repro.datalog import parse_constraint
        from repro.domains import DomainRegistry

        result = arith.call(function, (bound,))
        between = arith.call("between", (-10, 10))
        for value in (inside, float(inside), 2.5, True, "2"):
            expected = between.contains(value) and not isinstance(value, bool)
            assert result.contains(value) == expected, value
            # The quick-reject hook refutes exactly the values outside.
            hook = arith.function(function).quick_reject
            assert hook((bound,), value) == (not result.contains(value)), value
        solver = ConstraintSolver(DomainRegistry([make_arithmetic_domain()]))
        assert not solver.is_satisfiable(parse_constraint(f"in(2.5, arith:{function}({bound}))"))
        assert solver.is_satisfiable(parse_constraint(f"in({inside}, arith:{function}({bound}))"))

    def test_a_pinned_between_membership_builds_no_set(self, arith):
        import tracemalloc

        from repro.constraints import ConstraintSolver
        from repro.datalog import parse_constraint
        from repro.domains import DomainRegistry

        solver = ConstraintSolver(DomainRegistry([make_arithmetic_domain()]))
        constraint = parse_constraint("in(X, arith:between(0, 1000000)) & X = 5")
        tracemalloc.start()
        try:
            assert solver.is_satisfiable(constraint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        result = arith.call("between", (0, 10**6))
        assert result.size_hint() == 10**6 + 1
        for value, member in ((5, True), (5.0, True), (True, True), (5.5, False), ("5", False)):
            assert result.contains(value) is member, value

    def test_plus_minus_times(self, arith):
        assert set(arith.call("plus", (2, 3)).iter_values()) == {5}
        assert set(arith.call("minus", (2, 3)).iter_values()) == {-1}
        assert set(arith.call("times", (2, 3)).iter_values()) == {6}
        assert set(arith.call("abs", (-4,)).iter_values()) == {4}
        assert set(arith.call("mod", (7, 3)).iter_values()) == {1}

    def test_type_and_zero_division_errors(self, arith):
        with pytest.raises(EvaluationError):
            arith.call("plus", ("x", 1))
        with pytest.raises(EvaluationError):
            arith.call("mod", (1, 0))

    def test_sampling(self, arith):
        sample = list(arith.call("greater", (10,)).iter_values())
        assert sample[0] == 11 and len(sample) > 0


class TestRelationalDomain:
    @pytest.fixture
    def paradox(self):
        return make_relational_domain(
            "paradox",
            {
                "phonebook": (
                    ("name", "city"),
                    [("ann", "dc"), ("bob", "nyc"), ("cid", "dc")],
                )
            },
        )

    def test_select_eq_returns_rows(self, paradox):
        rows = set(paradox.call("select_eq", ("phonebook", "city", "dc")).iter_values())
        assert {row["name"] for row in rows} == {"ann", "cid"}

    def test_select_value(self, paradox):
        values = set(
            paradox.call("select_value", ("phonebook", "name", "ann", "city")).iter_values()
        )
        assert values == {"dc"}

    def test_all_rows_and_project(self, paradox):
        assert len(set(paradox.call("all_rows", ("phonebook",)).iter_values())) == 3
        assert set(paradox.call("project", ("phonebook", "city")).iter_values()) == {"dc", "nyc"}

    def test_field(self, paradox):
        row = Row({"name": "ann", "city": "dc"})
        assert set(paradox.call("field", (row, "city")).iter_values()) == {"dc"}
        with pytest.raises(EvaluationError):
            paradox.call("field", ("not-a-row", "city"))

    def test_count_and_contains(self, paradox):
        assert set(paradox.call("count", ("phonebook", "city", "dc")).iter_values()) == {2}
        assert paradox.call("contains", ("phonebook", "name", "ann")).contains(True)
        assert paradox.call("contains", ("phonebook", "name", "zzz")).is_empty()

    def test_bad_table_name_type(self, paradox):
        with pytest.raises(EvaluationError):
            paradox.call("select_eq", (42, "city", "dc"))

    def test_mutation_changes_results(self, paradox):
        paradox.database.insert("phonebook", ("dee", "dc"))
        rows = set(paradox.call("select_eq", ("phonebook", "city", "dc")).iter_values())
        assert len(rows) == 3


class TestSpatialDomain:
    @pytest.fixture
    def spatial(self):
        return make_spatial_domain(
            addresses={(1, "main", "city", "MD", 11111): (30.0, 40.0)},
            maps={"dcareamap": (0.0, 0.0)},
        )

    def test_locateaddress(self, spatial):
        points = list(spatial.call("locateaddress", (1, "main", "city", "MD", 11111)).iter_values())
        assert len(points) == 1 and points[0]["x"] == 30.0

    def test_unknown_address_is_empty(self, spatial):
        assert spatial.call("locateaddress", (9, "x", "y", "z", 0)).is_empty()

    def test_range_true_false(self, spatial):
        assert spatial.call("range", ("dcareamap", 30.0, 40.0, 100)).contains(True)
        assert spatial.call("range", ("dcareamap", 30.0, 40.0, 10)).is_empty()

    def test_distance_and_point_accessors(self, spatial):
        assert set(spatial.call("distance", ("dcareamap", 3.0, 4.0)).iter_values()) == {5.0}
        point = Row({"x": 1.0, "y": 2.0})
        assert set(spatial.call("point_x", (point,)).iter_values()) == {1.0}
        assert set(spatial.call("point_y", (point,)).iter_values()) == {2.0}

    def test_unknown_map_rejected(self, spatial):
        with pytest.raises(EvaluationError):
            spatial.call("range", ("nowhere", 0, 0, 1))

    def test_address_management(self, spatial):
        address = (2, "side", "town", "VA", 22222)
        spatial.add_address(address, (5.0, 5.0))
        points = list(spatial.call("locateaddress", address).iter_values())
        assert [(point["x"], point["y"]) for point in points] == [(5.0, 5.0)]
        spatial.remove_address(address)
        assert spatial.call("locateaddress", address).is_empty()

    def test_map_region_distance(self):
        region = MapRegion("m", 3.0, 4.0)
        assert region.distance_from_center(0.0, 0.0) == 5.0


class TestFaceDomains:
    @pytest.fixture
    def scenario(self):
        return make_face_scenario(
            ["don", "john", "jane"],
            photos=[["don", "john"], ["jane"]],
        )

    def test_segmentface_rows(self, scenario):
        extract = FaceExtractDomain(scenario)
        faces = list(extract.call("segmentface", ("surveillancedata",)).iter_values())
        assert len(faces) == 3
        assert {face["origin"] for face in faces} == {
            "surveillancedata/photo0", "surveillancedata/photo1",
        }

    def test_matchface(self, scenario):
        extract = FaceExtractDomain(scenario)
        facedb = FaceDbDomain(scenario)
        faces = sorted(
            extract.call("segmentface", ("surveillancedata",)).iter_values(),
            key=lambda row: row["resultfile"],
        )
        don_mugshot = next(iter(facedb.call("findface", ("don",)).iter_values()))
        don_face = next(face for face in faces if face["person"] == "don")
        jane_face = next(face for face in faces if face["person"] == "jane")
        assert extract.call("matchface", (don_face, don_mugshot)).contains(True)
        assert extract.call("matchface", (jane_face, don_mugshot)).is_empty()

    def test_findface_findname_people(self, scenario):
        facedb = FaceDbDomain(scenario)
        assert set(facedb.call("findface", ("don",)).iter_values()) == {"mugshot::don"}
        assert facedb.call("findface", ("stranger",)).is_empty()
        assert set(facedb.call("findname", ("mugshot::don",)).iter_values()) == {"don"}
        assert set(facedb.call("people", ()).iter_values()) == {"don", "john", "jane"}

    def test_origin_of(self, scenario):
        extract = FaceExtractDomain(scenario)
        face = next(iter(extract.call("segmentface", ("surveillancedata",)).iter_values()))
        assert set(extract.call("origin_of", (face,)).iter_values()) == {face["origin"]}
        with pytest.raises(EvaluationError):
            extract.call("origin_of", ("not-a-face",))

    def test_scenario_photo_management(self, scenario):
        scenario.add_photo("surveillancedata", ["don", "jane"])
        assert len(scenario.appearances["surveillancedata"]) == 3
        scenario.remove_photo("surveillancedata", 0)
        assert len(scenario.appearances["surveillancedata"]) == 2
        with pytest.raises(EvaluationError):
            scenario.add_photo("surveillancedata", ["stranger"])
        with pytest.raises(EvaluationError):
            scenario.remove_photo("surveillancedata", 99)

    def test_random_scenario_is_deterministic(self):
        first = make_face_scenario(["a", "b", "c", "d"], photo_count=4, seed=3)
        second = make_face_scenario(["a", "b", "c", "d"], photo_count=4, seed=3)
        assert first.appearances == second.appearances

    def test_unknown_dataset_is_empty(self, scenario):
        extract = FaceExtractDomain(scenario)
        assert extract.call("segmentface", ("otherdata",)).is_empty()

