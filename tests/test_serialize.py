import json
from fractions import Fraction

import numpy as np
import pytest

from lamstair import serialize, synth
from lamstair.errors import ParseError
from lamstair.measures import (Atom, DiscreteMeasure, SplittingStep, dirac,
                               elementary_split, verify_laminate,
                               verify_weak_tail)


def one_step_laminate():
    # diag(2,2) split along e1 (x) e1 with the exact det-1 first-step weight
    return elementary_split(
        dirac(np.diag([2.0, 2.0]), certificate=[]),
        SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5, 2.0]),
                      np.diag([4.0, 2.0]), Fraction(4, 7)))


class TestMatrices:
    def test_round_trip(self):
        M = np.array([[1.5, -2.0], [0.0, 3.25]])
        obj = serialize.matrix_to_obj(M)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert np.array_equal(serialize.matrix_from_obj(obj), M)

    @pytest.mark.parametrize("obj", [
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "entries": [[1, 2], [3]]},
        {"rows": 0, "cols": 2, "entries": []},
        {"rows": 1, "cols": 1, "entries": [["x"]]},
    ])
    def test_malformed_rejected(self, obj):
        with pytest.raises(ParseError):
            serialize.matrix_from_obj(obj)

    def test_diag_argument(self):
        assert np.array_equal(serialize.parse_matrix_arg("diag(3,5,0,0)"),
                              np.diag([3.0, 5.0, 0.0, 0.0]))
        with pytest.raises(ParseError):
            serialize.parse_matrix_arg("diag(3,x)")


class TestMeasures:
    def test_round_trip_with_certificate(self):
        nu = one_step_laminate()
        obj = serialize.measure_to_obj(nu)
        back = serialize.measure_from_obj(obj)
        assert len(back) == len(nu)
        # exact rational weights survive the text form
        assert back.atoms[0].weight == Fraction(4, 7)
        assert verify_laminate(back).ok
        assert serialize.measure_to_obj(back) == obj

    def test_float_weights_round_trip(self):
        nu = DiscreteMeasure([Atom(0.25, np.eye(2)), Atom(0.75, np.zeros((2, 2)))])
        back = serialize.measure_from_obj(serialize.measure_to_obj(nu))
        assert sorted(float(a.weight) for a in back.atoms) == [0.25, 0.75]

    def test_bad_weight_rejected(self):
        obj = {"atoms": [{"w": "1/0", "M": serialize.matrix_to_obj(np.eye(2))}]}
        with pytest.raises(ParseError):
            serialize.measure_from_obj(obj)
        obj = {"atoms": [{"w": True, "M": serialize.matrix_to_obj(np.eye(2))}]}
        with pytest.raises(ParseError):
            serialize.measure_from_obj(obj)


class TestTailCsv:
    def test_header_and_verdicts(self):
        nu = one_step_laminate()
        rep = verify_weak_tail(nu, 2.0, 8.0, 2.0, t_grid=[1.0, 10.0])
        text = serialize.tail_report_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "t,tail,upper_env,lower_env,verdict"
        assert all(ln.endswith(("pass", "fail")) for ln in lines[1:])
        assert "," in lines[1] and ";" not in text


@pytest.fixture(scope="module")
def realized():
    dom = synth.box((0.0, 0.0), (1.0, 1.0))
    return synth.realize_finite_laminate(one_step_laminate(), dom, eps=0.1)


class TestMaps:
    def test_round_trip_evaluates_identically(self, realized):
        obj = serialize.map_to_obj(realized)
        cm = serialize.map_from_obj(obj)
        rng = np.random.default_rng(7)
        for x in rng.random((100, 2)):
            assert np.allclose(cm.evaluate(x), realized.evaluate(x), atol=1e-12)
        for t in np.linspace(0.0, 1.0, 17):
            x = realized.domain.boundary_points([t])[0]
            assert np.allclose(cm.evaluate(x), realized.evaluate(x), atol=1e-12)

    def test_volume_and_flag_bookkeeping(self, realized):
        obj = serialize.map_to_obj(realized)
        cm = serialize.map_from_obj(obj)
        vols = cm.volumes_by_flag()
        covered = sum(vols.values())
        assert covered + cm.residual_volume == pytest.approx(
            realized.domain.volume, rel=1e-9)
        assert set(vols) <= {"good", "error"}
        nu, resid = cm.gradient_distribution()
        nu0, resid0 = realized.gradient_distribution()
        for a in nu0.atoms:
            i = nu.find(a.point)
            assert i is not None
            assert float(nu.atoms[i].weight) == pytest.approx(float(a.weight),
                                                              abs=1e-9)

    def test_swap_is_involutive(self, realized):
        cm = serialize.map_from_obj(serialize.map_to_obj(realized))
        twice = cm.swap_components().swap_components()
        rng = np.random.default_rng(3)
        for x in rng.random((25, 2)):
            assert np.allclose(twice.evaluate(x), cm.evaluate(x), atol=1e-12)

    def test_malformed_map_rejected(self, realized):
        obj = serialize.map_to_obj(realized)
        bad = json.loads(json.dumps(obj))
        bad["cells"][0]["flag"] = "inductive"
        with pytest.raises(ParseError):
            serialize.map_from_obj(bad)
        bad = json.loads(json.dumps(obj))
        del bad["boundary"]
        with pytest.raises(ParseError):
            serialize.map_from_obj(bad)

    def test_dump_is_deterministic(self, realized, tmp_path):
        obj = serialize.map_to_obj(realized)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        serialize.dump_json(obj, p1)
        serialize.dump_json(serialize.map_to_obj(realized), p2)
        assert p1.read_bytes() == p2.read_bytes()
