"""Unit tests for the observability layer: registry, reads, exporters,
and the registry's reads of a real run's traffic profile."""

from __future__ import annotations

import gc
import json
import pickle
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import Counter, Registry, Stopwatch, VectorCounter, export, names, observed_run
from repro.obs import registry as registry_module
from repro.obs import timers
from repro.obs.counters import SnapshotMergeError, holding
from repro.obs.registry import get_registry


@pytest.fixture
def reg():
    return Registry(enabled=True)


class TestRegistryLifecycle:
    def test_starts_disabled_by_default(self):
        assert Registry().enabled is False

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_lookup_unknown_name_lists_known(self, reg):
        reg.read("known.counter", lambda: 1)
        with pytest.raises(KeyError, match="known.counter"):
            reg.get_counter("nope")

    def test_lookup_unknown_vector_lists_known(self, reg):
        reg.read("known.vector", lambda: [1, 2])
        with pytest.raises(KeyError, match="known.vector"):
            reg.get_vector("nope")

    def test_module_functions_act_on_the_global_registry(self):
        glob = get_registry()
        was = glob.enabled
        try:
            registry_module.enable()
            assert glob.enabled
            glob.read("module.level", lambda: 2)
            assert glob.get_counter("module.level").value == 2.0
            registry_module.reset()
            assert "module.level" not in glob.counters()
            registry_module.disable()
            assert not glob.enabled
        finally:
            glob.reset()
            glob.enabled = was

    def test_pickled_registry_keeps_its_enabled_flag(self, reg):
        assert pickle.loads(pickle.dumps(reg)).enabled is True
        assert pickle.loads(pickle.dumps(Registry())).enabled is False


class _Owner:
    """An owner keeping a count, for the reads' lifetime tests."""

    def __init__(self, n: int) -> None:
        self.n = n

    def count(self) -> int:
        return self.n


class TestInstruments:
    def test_stopwatch_is_registry_independent(self):
        watch = Stopwatch()
        assert watch.elapsed() >= 0.0
        watch.restart()
        assert watch.elapsed() >= 0.0

    def test_stopwatch_measures_from_its_last_restart(self, monkeypatch):
        clock = iter([10.0, 12.5, 20.0, 21.0])
        monkeypatch.setattr(timers, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        watch = Stopwatch()  # 10.0
        assert watch.elapsed() == 2.5  # 12.5
        watch.restart()  # 20.0
        assert watch.elapsed() == 1.0  # 21.0

    @pytest.mark.parametrize(
        "value, kind", [(3.0, Counter), (np.array([1.0, 2.0]), VectorCounter)],
        ids=["scalar", "array"],
    )
    def test_holding_picks_the_kind_of_its_value(self, value, kind):
        inst = holding("x", value)
        assert type(inst) is kind and inst.name == "x"

    def test_counter_merge_adds(self):
        c = Counter("c", 2.0)
        c.merge_from(Counter("c", 3.5))
        assert c.value == 5.5

    def test_vector_merge_adds_slot_by_slot(self):
        v = VectorCounter("v", np.array([1.0, 0.0, 2.0]))
        v.merge_from(VectorCounter("v", np.array([0.0, 4.0, 1.0])))
        assert v.values.tolist() == [1.0, 4.0, 3.0]
        assert v.size == 3 and v.total == 8.0

    def test_an_all_zero_vector_merges_away_whatever_its_shape(self):
        v = VectorCounter("v", np.array([1.0, 2.0]))
        v.merge_from(VectorCounter("v", np.zeros(5)))
        assert v.values.tolist() == [1.0, 2.0]
        with pytest.raises(SnapshotMergeError, match="size 3 != merged size 2"):
            v.merge_from(VectorCounter("v", np.ones(3)))


class TestReads:
    """A read is the owner's count, summed per name; never a copy."""

    def test_reads_sum_and_follow_their_owners(self, reg):
        owners = [{"n": 2, "v": [1, 0, 3]}, {"n": 5, "v": [0, 4, 0]}]
        for owner in owners:
            reg.read("c", lambda o=owner: o["n"])
            reg.read("v", lambda o=owner: o["v"])
        owners[0]["n"] = 10
        assert reg.get_counter("c").value == 15.0
        assert reg.get_vector("v").values.tolist() == [1.0, 4.0, 3.0]
        assert reg.get_vector("v").values.dtype == np.float64

    def test_disabled_registry_shows_a_zero_and_holds_no_owner(self):
        reg = Registry()
        reg.read("v", lambda: [7, 7])
        assert reg.get_vector("v").values.tolist() == [0.0, 0.0]
        assert reg._reads["v"][1] == []

    def test_reset_drops_the_reads(self, reg):
        reg.read("c", lambda: 3)
        shipped = Registry(enabled=True)
        shipped.read("v", lambda: [1, 2])
        reg.merge_from(shipped)
        reg.reset()
        assert reg.counters() == {} and reg.vectors() == {}

    def test_another_size_replaces_the_earlier_reads(self, reg):
        reg.read("v", lambda: [1, 1, 1])
        reg.read("v", lambda: [2, 2])
        assert reg.get_vector("v").values.tolist() == [2.0, 2.0]

    def test_pickle_and_merge_carry_values_not_owners(self, reg):
        owner = {"n": 4}
        reg.read("c", lambda: owner["n"])  # a lambda: pickling the owner would fail
        shipped = pickle.loads(pickle.dumps(reg))
        merged = Registry()
        merged.merge_from(reg)
        owner["n"] = 99
        assert shipped.get_counter("c").value == merged.get_counter("c").value == 4.0
        assert shipped._reads == merged._reads == {}

    def test_a_zero_dimensional_array_reads_as_a_counter(self, reg):
        reg.read("c", lambda: np.int64(4))
        assert reg.get_counter("c").value == 4.0
        assert "c" not in reg.vectors()

    def test_scalar_and_vector_reads_stay_in_their_kind(self, reg):
        reg.read("c", lambda: 1)
        reg.read("v", lambda: [1, 2])
        assert list(reg.counters()) == ["c"]
        assert list(reg.vectors()) == ["v"]

    def test_a_read_and_a_merged_value_of_one_name_sum(self, reg):
        reg.read("c", lambda: 2)
        reg.read("v", lambda: [1, 1])
        shipped = Registry(enabled=True)
        shipped.read("c", lambda: 5)
        shipped.read("v", lambda: [0, 3])
        reg.merge_from(shipped)
        assert reg.get_counter("c").value == 7.0
        assert reg.get_vector("v").values.tolist() == [1.0, 4.0]

    def test_handed_out_instruments_are_fresh_each_time(self, reg):
        owner = np.array([1, 2])
        reg.read("v", lambda: owner)
        reg.get_vector("v").values[0] = 99.0
        assert reg.get_vector("v").values.tolist() == [1.0, 2.0]
        assert owner.tolist() == [1, 2]
        idle = Registry()  # no owner: the name's zero is handed out
        idle.read("v", lambda: owner)
        idle.get_vector("v").values[0] = 99.0
        assert idle.get_vector("v").values.tolist() == [0.0, 0.0]

    def test_a_read_made_while_disabled_stays_a_zero(self):
        reg = Registry()
        reg.read("c", lambda: 7)
        reg.enable()
        assert reg.get_counter("c").value == 0.0
        reg.read("c", lambda: 3)  # enabled now: this owner is kept
        assert reg.get_counter("c").value == 3.0

    def test_a_disabled_registry_keeps_no_owner_alive(self):
        reg = Registry()
        owner = _Owner(3)
        ref = weakref.ref(owner)
        reg.read("c", owner.count)
        del owner
        gc.collect()
        assert ref() is None

    def test_reset_lets_go_of_the_owner(self, reg):
        owner = _Owner(3)
        ref = weakref.ref(owner)
        reg.read("c", owner.count)
        del owner
        gc.collect()
        assert ref() is not None and reg.get_counter("c").value == 3.0
        reg.reset()
        gc.collect()
        assert ref() is None


class TestObservedRun:
    def test_enables_resets_and_restores(self):
        reg = Registry(enabled=True)
        reg.read("stale", lambda: 7)  # an owner from a previous run
        reg.enabled = False
        owner = {"n": 0}
        with observed_run(reg) as inner:
            assert inner is reg
            assert reg.enabled
            assert "stale" not in reg.counters()  # the reset let it go
            reg.read("c", lambda: owner["n"])
            owner["n"] = 1
        assert reg.enabled is False
        assert reg.get_counter("c").value == 1  # reads remain valid after exit

    def test_nested_observation_stays_enabled(self):
        reg = Registry(enabled=True)
        with observed_run(reg):
            pass
        assert reg.enabled is True


class TestExport:
    def _populated(self) -> Registry:
        reg = Registry(enabled=True)
        reg.read("pkts.sent", lambda: 3)
        reg.read("node.events", lambda: [2, 1])
        return reg

    def test_json_snapshot_roundtrip(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "snap.json"
        export.write_snapshot(str(path), reg, meta={"seed": 7})
        data = json.loads(path.read_text())
        assert data["version"] == 3
        assert data["meta"] == {"seed": 7}
        assert data["counters"]["pkts.sent"] == 3
        assert data["vectors"]["node.events"]["values"] == [2.0, 1.0]
        assert set(data) == {"version", "meta", "counters", "vectors"}

    def test_prometheus_exposition(self):
        text = export.to_prometheus(self._populated())
        assert "# TYPE repro_pkts_sent counter" in text
        assert "repro_pkts_sent 3" in text
        assert 'repro_node_events{index="1"} 1' in text
        assert "repro_node_events_sum 3" in text

    def test_prom_format_via_write_snapshot(self, tmp_path):
        path = tmp_path / "snap.prom"
        export.write_snapshot(str(path), self._populated(), fmt="prom")
        assert path.read_text().startswith("# HELP")

    #: metric family sample line: name, optional one-label set, value
    _SAMPLE = re.compile(
        r'^[a-zA-Z_][a-zA-Z0-9_]*(\{index="[^"]+"\})? [0-9eE.+-]+$|'
        r"^[a-zA-Z_][a-zA-Z0-9_]* [0-9eE.+-]+$"
    )

    def test_prometheus_help_type_sample_roundtrip(self):
        """Every # TYPE has a preceding # HELP; samples are well-formed."""
        text = export.to_prometheus(self._populated())
        helped: set[str] = set()
        typed: set[str] = set()
        for line in text.strip().splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split(" ", 3)[2])
            elif line.startswith("# TYPE "):
                name = line.split(" ", 3)[2]
                assert name in helped, f"# TYPE {name} has no preceding # HELP"
                typed.add(name)
            else:
                assert self._SAMPLE.match(line), f"malformed sample line: {line!r}"
        assert typed == helped == {"repro_pkts_sent", "repro_node_events"}

    def test_prometheus_help_uses_canonical_text(self):
        reg = Registry(enabled=True)
        reg.read(names.ENGINE_EVENTS, lambda: 1)
        text = export.to_prometheus(reg)
        assert f"# HELP repro_engine_events_executed {names.HELP[names.ENGINE_EVENTS]}" in text

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown snapshot format"):
            export.write_snapshot(str(tmp_path / "x"), self._populated(), fmt="xml")

    def test_snapshot_copies_its_meta(self):
        meta = {"seed": 1}
        data = export.snapshot(self._populated(), meta)
        meta["seed"] = 2
        assert data["meta"] == {"seed": 1}

    def test_snapshot_sorts_names_within_each_section(self):
        reg = Registry(enabled=True)
        for name in ("z.c", "a.c", "m.c"):
            reg.read(name, lambda: 1)
        assert list(export.snapshot(reg)["counters"]) == ["a.c", "m.c", "z.c"]

    def test_an_empty_registry_exports_empty_sections(self):
        data = export.snapshot(Registry())
        assert data["counters"] == {} and data["vectors"] == {}
        assert export.to_prometheus(Registry()) == "\n"

    def test_to_json_without_indent_is_one_line(self):
        text = export.to_json(self._populated(), indent=None)
        assert "\n" not in text
        assert json.loads(text) == export.snapshot(self._populated())

    def test_prometheus_renders_fractions_exactly(self):
        reg = Registry(enabled=True)
        reg.read("frac", lambda: 0.1)
        reg.read("vec", lambda: [2.5, 3.0])
        text = export.to_prometheus(reg)
        assert "repro_frac 0.1\n" in text
        assert 'repro_vec{index="0"} 2.5\n' in text
        assert 'repro_vec{index="1"} 3\n' in text
        assert "repro_vec_sum 5.5\n" in text

    def test_prometheus_help_escapes_backslash_and_newline(self, monkeypatch):
        monkeypatch.setitem(names.HELP, "odd.help", "a\\b\nc")
        reg = Registry(enabled=True)
        reg.read("odd.help", lambda: 1)
        assert "# HELP repro_odd_help a\\\\b\\nc\n" in export.to_prometheus(reg)


class TestProfileOfARun:
    def test_profile_equals_the_registry_reads_on_a_real_run(self):
        """The registry reads the simulator's own counts, so the traffic
        profile of a run and its ``netsim.*`` reads are one record."""
        from repro.engine import ShardEngine
        from repro.netsim import NetworkSimulator, send_datagram
        from repro.profilers.traffic import TrafficProfile
        from repro.routing import ForwardingPlane
        from repro.topology import generate_flat_network

        net = generate_flat_network(num_routers=12, num_hosts=6, seed=3)
        hosts = net.host_ids()
        duration = 0.5
        with observed_run() as reg:
            kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=duration)
            sim = NetworkSimulator(net, ForwardingPlane(net), kernel)
            for i in range(60):
                src = hosts[i % len(hosts)]
                dst = hosts[(3 * i + 1) % len(hosts)]
                kernel.schedule_at(
                    i * 1e-3, send_datagram, node=src, args=(sim, src, dst, 1000 + i)
                )
            kernel.run(until=duration)
        profile = TrafficProfile.from_simulation(sim, duration)
        assert profile.total_events > 0 and profile.link_bytes.sum() > 0
        for field, name in (
            ("node_events", names.NETSIM_NODE_EVENTS),
            ("link_bytes", names.NETSIM_LINK_BYTES),
            ("link_packets", names.NETSIM_LINK_PACKETS),
        ):
            np.testing.assert_array_equal(getattr(profile, field), reg.get_vector(name).values)
