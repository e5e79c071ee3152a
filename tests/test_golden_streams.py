"""The committed golden decision-stream fixture must hold.

``benchmarks/GOLDEN_streams.json`` pins a sha256 per bench panel and
policy over the full observer event stream plus the final metrics
snapshot. These tests recompute a subset on both engines (a full
eight-panel double-engine pass belongs to ``repro golden --check`` in
CI, not the unit suite) and sanity-check the hasher itself.
"""

from __future__ import annotations

import pytest

from repro.bench import PANELS
from repro.core.errors import ConfigError
from repro.goldens import (
    DEFAULT_GOLDEN_PATH,
    DecisionStreamHasher,
    check_goldens,
    compute_goldens,
    load_goldens,
    metrics_digest,
)

try:  # adversarial panels draw their traces from numpy's PCG64
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: One cheap panel per traffic model keeps the unit-suite pass fast;
#: adversarial needs numpy so it is split out below.
FAST_PANELS = ("uniform-proc-small", "mmpp-proc-small")


def _fixture_path():
    path = DEFAULT_GOLDEN_PATH
    if not path.exists():
        pytest.skip(f"golden fixture {path} not committed")
    return path


def test_fixture_loads_and_covers_all_panels():
    doc = load_goldens(_fixture_path())
    assert set(doc["panels"]) == set(PANELS)
    for name, panel_doc in doc["panels"].items():
        assert set(panel_doc["policies"]) == set(PANELS[name].policies)
        for digests in panel_doc["policies"].values():
            assert len(digests["stream_sha256"]) == 64
            assert len(digests["metrics_sha256"]) == 64


def test_goldens_hold_on_both_engines_fast_panels():
    problems = check_goldens(
        _fixture_path(),
        panel_names=FAST_PANELS,
        engines=("reference", "vectorized"),
    )
    assert problems == [], "\n".join(problems)


@pytest.mark.skipif(not HAVE_NUMPY, reason="adversarial traces need numpy")
def test_goldens_hold_on_adversarial_panel():
    problems = check_goldens(
        _fixture_path(),
        panel_names=("adversarial-proc-small",),
        engines=("reference", "vectorized"),
    )
    assert problems == [], "\n".join(problems)


def test_compute_goldens_rejects_unknown_panel():
    with pytest.raises(ConfigError):
        compute_goldens(["no-such-panel"])


def test_compute_goldens_requires_columnar_fast_run_equality(monkeypatch):
    """A fast-mode run on the columnar trace that diverges from the
    object-trace fast run fails the golden computation."""
    from repro.core.columnar import VectorizedSwitch

    original = VectorizedSwitch.run_slot_columns

    def skewed(self, *args, **kwargs):
        self.metrics.arrived += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(VectorizedSwitch, "run_slot_columns", skewed)
    with pytest.raises(ConfigError, match="columnar trace"):
        compute_goldens(["uniform-proc-small"], engine="vectorized")


def test_compute_goldens_is_deterministic():
    once = compute_goldens(["uniform-proc-small"])
    twice = compute_goldens(["uniform-proc-small"])
    assert once["panels"] == twice["panels"]


# ----------------------------------------------------------------------
# Hasher sanity
# ----------------------------------------------------------------------


def test_hasher_counts_events_and_separates_streams():
    a, b = DecisionStreamHasher(), DecisionStreamHasher()
    assert a.events == 0 and a.hexdigest() == b.hexdigest()
    a.on_slot_begin(0, 2)
    a.on_decision(0, "accept", None)
    a.on_slot_end(0, 1)
    assert a.events == 3
    b.on_slot_begin(0, 2)
    b.on_decision(0, "drop", None)
    b.on_slot_end(0, 1)
    assert a.hexdigest() != b.hexdigest()


def test_hasher_victim_port_distinguished():
    a, b = DecisionStreamHasher(), DecisionStreamHasher()
    a.on_decision(4, "push_out", 1)
    b.on_decision(4, "push_out", 2)
    assert a.hexdigest() != b.hexdigest()


def test_metrics_digest_tracks_counters():
    from repro.core.metrics import SwitchMetrics
    from repro.core.packet import Packet

    a, b = SwitchMetrics(n_ports=2), SwitchMetrics(n_ports=2)
    assert metrics_digest(a) == metrics_digest(b)
    a.record_arrival(Packet(port=0, work=1, value=1.0, arrival_slot=0))
    assert metrics_digest(a) != metrics_digest(b)
