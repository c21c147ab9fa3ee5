"""Tests of the benchmark's own code: span arithmetic, the tail rule, seeded
op lists, wrapper restoration, speed scaling and the metric tables."""

import json
import signal

import numpy as np
import pytest

import run
import speed
import workloads
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    tr.begin("stages.outer", "stages")          # t = 0
    clock.t = 1.0
    tr.begin("measures.a", "measures")          # t = 1
    clock.t = 3.0
    tr.begin("matrices.b", "matrices")          # t = 3
    clock.t = 3.5
    tr.end()                                    # b: 0.5
    clock.t = 4.0
    tr.end()                                    # a: 3.0, self 2.5
    clock.t = 5.0
    tr.begin("measures.a", "measures")          # t = 5
    clock.t = 6.0
    tr.end()                                    # a: 1.0
    clock.t = 10.0
    assert tr.end() == 10.0                     # outer: 10, self 10 - 4 = 6
    assert tr.layer_self_s == {"matrices": 0.5, "measures": 3.5, "stages": 6.0}
    assert sum(tr.layer_self_s.values()) == 10.0
    assert tr.edges[("stages.outer", "measures.a")] == [2, 4.0, 3.5]
    assert tr.edges[("measures.a", "matrices.b")] == [1, 0.5, 0.5]
    assert tr.edges[(None, "stages.outer")] == [1, 10.0, 6.0]
    assert tr.total_s["measures.a"] == 4.0
    assert tr.calls["measures.a"] == 2


def test_recursive_span_counts_outermost_time_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    tr.begin("synth.f", "synth")
    clock.t = 1.0
    tr.begin("synth.f", "synth")
    clock.t = 3.0
    tr.end()
    clock.t = 4.0
    tr.end()
    assert tr.total_s["synth.f"] == 4.0
    assert tr.layer_self_s["synth"] == 4.0
    assert tr.calls["synth.f"] == 2


@pytest.mark.parametrize("n,want", [
    (1, (1, 100.0, 0)),
    (10, (10, 100.0, 0)),
    (11, (1, 100.0 / 11, 10)),
    (100, (90, 90.0, 10)),
    (1000, (990, 99.0, 10)),
])
def test_tail_percentile_keeps_ten_beyond(n, want):
    values = list(range(n, 0, -1))   # unsorted on purpose
    value, pct, beyond = run.tail_percentile(values)
    assert (value, pct, beyond) == pytest.approx(want)
    assert sum(v > value for v in values) == beyond


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_are_seeded(workload):
    a, b = workloads.make_ops(workload, 7), workloads.make_ops(workload, 7)
    assert a == b
    assert workloads.make_ops(workload, 8) != a


def test_op_list_shapes():
    comp = workloads.make_ops("compose_tails", 3)
    assert all(abs(op.args[0] - op.args[1]) >= 0.25 for op in comp if op.kind == "trial")
    assert all(1.2 <= x <= 3.5 for op in comp if op.kind == "trial" for x in op.args)
    assert comp[-1] == workloads.Op("counterexample", (1.7,))
    plap = workloads.make_ops("plap_moments", 3)
    assert sorted(op.args[1] for op in plap) == list(workloads.PLAP_N)
    kinds = [op.kind for op in workloads.make_ops("map_verify", 3)]
    assert kinds == ["roof", "reduce", "roof"] * (workloads.MAP_ROOFS // 2)


def test_cli_order_respects_inputs():
    for seed in range(20):
        have = set(workloads.CLI_INPUTS)
        names = [op.args[0] for op in workloads.make_ops("cli_artifacts", seed)]
        assert sorted(names) == sorted(workloads.CLI_COMMANDS)
        for name in names:
            _, reads, writes = workloads.CLI_COMMANDS[name]
            assert set(reads) <= have
            have.update(writes)


def _snapshot():
    import importlib
    mods = [importlib.import_module(f"lamstair.{m}") for m in run.LAYERS]
    from lamstair import measures, serialize, staircase, synth
    classes = [measures.DiscreteMeasure, staircase.ExtendedMeasure,
               staircase.StaircaseSpec, synth.PiecewiseAffineMap, serialize.CellMap]
    todo = [synth.MapNode]
    while todo:
        c = todo.pop()
        classes.append(c)
        todo.extend(c.__subclasses__())
    return {id(o): (o, dict(vars(o))) for o in mods + classes}


def test_wrappers_are_restored_after_a_traced_run():
    before = _snapshot()
    runner = workloads.Runner("map_verify", workloads.ROOT)
    tr = Tracer()
    with tr:
        assert tr.installed
        from lamstair import measures, stages
        assert measures.frob is stages.frob        # one wrapper per function
        assert runner._op_reduce(2)
        _, rep = stages.composition_trial(2.0, 3.0, t_grid=np.geomspace(1.5, 1e4, 5),
                                          levels=6)
        assert rep.passed
    assert not tr.installed
    after = _snapshot()
    for key, (obj, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), obj
        assert all(now[k] is attrs[k] for k in attrs), obj
    # the traced calls were seen
    assert tr.calls["stages.builder"] >= 1
    assert tr.calls["matrices.frob"] > 0
    assert tr.counters["synth.reduce_exact.rounds"] == 2
    assert tr.total_s["stages.composition_trial"] > 0.0
    assert tr.counters["measures.atoms_out"] <= tr.counters["measures.atoms_in"]


def test_install_twice_is_refused():
    tr = Tracer()
    with tr:
        with pytest.raises(RuntimeError):
            tr.install()


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        20 |         70 |     scipy",
        "import time:        30 |         30 |       scipy.stats._x",
        "import time:        10 |         40 |     scipy.stats",
        "import time:       500 |        700 |   numpy",
        "import time:         5 |        900 | lamstair.matrices",
        "import time:         7 |          7 | lamstair",
        "import time:         3 |       1000 | lamstair.cli",
    ])
    lam, scipy = run.parse_importtime(text)
    assert lam == pytest.approx(1907e-6)
    assert scipy == pytest.approx(110e-6)


def test_benchmark_json_matches_metric_tables():
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {k: v[0] for k, v in run.PER_LAYER.items()}
    ends = {m["name"]: m for m in doc["end_to_end"]}
    assert ends["setup_s"]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", "compose_tails", "--seed", "1", "--seconds", "1"])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_cli_artifacts_match_golden_digests(tmp_path, monkeypatch):
    runner = workloads.Runner("cli_artifacts", tmp_path / "ok", in_process=True)
    assert runner.run(workloads.Op("cli", ("staircase_build",)))
    golden = json.loads(workloads.GOLDEN.read_text())
    golden["measure.json"] = "0" * 64
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    monkeypatch.setattr(workloads, "GOLDEN", bad)
    runner = workloads.Runner("cli_artifacts", tmp_path / "bad", in_process=True)
    assert not runner.run(workloads.Op("cli", ("staircase_build",)))
    assert runner.failures


class _FlakyRunner:
    def __init__(self):
        self.failures = []

    def run(self, op):
        if op.kind == "raise":
            raise ValueError("boom")
        return op.kind == "ok"


def test_failed_and_raising_ops_are_counted():
    ops = [workloads.Op("ok"), workloads.Op("bad"), workloads.Op("raise")]
    runner = _FlakyRunner()
    res = run.timed_passes(runner, ops, budget_s=0.0)
    assert (len(res.pass_s), res.attempted, res.failed) == (1, 3, 2)
    assert any("boom" in f for f in runner.failures)


def test_scale_uses_samples_in_and_around_the_interval():
    probe = speed.SpeedProbe()
    ref = speed.REF_S
    # sample times 0..6; the interval [2.5, 4.5] holds samples 3 and 4, and
    # 2 and 5 are its neighbours; 0, 1 and 6 are outside
    probe.samples = [(0.0, 9 * ref), (1.0, 9 * ref), (2.0, ref), (3.0, 2 * ref),
                     (4.0, 2 * ref), (5.0, 4 * ref), (6.0, 9 * ref)]
    assert probe.scale(1.0, 2.5, 4.5) == pytest.approx(0.5)    # median 2 ref
    # an interval between two samples is scaled by those two
    assert probe.scale(1.0, 2.2, 2.8) == pytest.approx(1 / 1.5)
    # before the first sample: only the samples after it count
    assert probe.scale(1.0, -1.0, -0.5) == pytest.approx(1 / 9)


def test_probe_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        probe.settle()
        n = len(probe.samples)
        probe.settle()
        assert len(probe.samples) > n
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.used_s > 0.0
    assert all(0.0 < c < 1.0 for _, c in probe.samples)


def test_probed_pass_times_are_sums_of_scaled_ops():
    ops = [workloads.Op("ok")] * 3
    with speed.SpeedProbe(interval=0.01) as probe:
        res = run.timed_passes(_FlakyRunner(), ops, budget_s=0.0, probe=probe)
    assert res.pass_s == [pytest.approx(sum(s for _, s in res.op_s))]
    assert len(res.pass_raw_s) == 1
