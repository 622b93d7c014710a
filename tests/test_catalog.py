"""The scenario catalogue (`repro.workloads.catalog`).

Every named workload is built in one place; mc, replay and the storm
bench select entries by name.  Pinned here: every entry builds
without running, the consumers' scenario lists are views of the
catalogue, the SLO enforcement scenario really enforces, and the storm
reports a nearest-rank p99.
"""

import pytest

from repro.analysis.mc import MC_SCENARIOS, mc_scenarios
from repro.bench.storm import CONTENDED_STORM, FULL_STORM
from repro.obs.slo import quantile
from repro.replay.scenarios import RECORDED, scenario_names
from repro.workloads.catalog import CATALOG, StormParams, build
from repro.workloads.storm import run_storm

CONSUMED = MC_SCENARIOS + RECORDED + ("contended-storm", "full-storm")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_entry_builds_without_running(name):
    built = build(CATALOG[name])
    sim = built.runtime.sim
    assert sim.now == 0.0
    assert not sim._heap and not sim._ready
    assert built.assignments
    ranks = [r for _app, group in built.assignments for r in group]
    assert len(ranks) == len(set(ranks))
    assert all(0 <= r < built.runtime.n_compute for r in ranks)


def test_names_are_unique_and_all_consumed():
    # a repeated key in the CATALOG literal would silently overwrite,
    # so count the entries against the consumers' lists
    assert len(CONSUMED) == len(set(CONSUMED)) == len(CATALOG) == 22
    assert set(CONSUMED) == set(CATALOG)


def test_consumer_lists_are_views_of_the_catalogue():
    assert [s.name for s in mc_scenarios()] == list(MC_SCENARIOS)
    assert len(MC_SCENARIOS) == 16
    assert scenario_names() == sorted(RECORDED)
    assert CONTENDED_STORM is CATALOG["contended-storm"]
    assert FULL_STORM is CATALOG["full-storm"]


def test_slo_enforce_demotes_and_sheds_client_visibly():
    """The scenario must not decay into the unenforced ``sched-slo``
    case: heavy tenants get demoted and at least one op is rejected
    back to its client."""
    built = build(CATALOG["slo-enforce"])
    built.run()
    trackers = built.runtime.slo_trackers.values()
    assert sum(t.total_demoted for t in trackers) > 0
    assert sum(built.rejections.values()) > 0


def test_storm_p99_is_nearest_rank():
    """Under 100 completed ops the nearest-rank p99 is the maximum; a
    truncating ``int(0.99 * n) - 1`` index picks the runner-up."""
    params = StormParams(n_tenants=4, n_io=2, rounds=3, elements=64,
                         size_classes=(1, 4), seed=1)
    report = run_storm(params)
    turnarounds = sorted(r.turnaround for r in
                         report.runtime.sched_stats.completed_ops())
    assert 2 <= len(turnarounds) < 100
    assert turnarounds[-2] < turnarounds[-1]
    assert report.metrics["turnaround_p99"] == turnarounds[-1] \
        == quantile(turnarounds, 0.99)
