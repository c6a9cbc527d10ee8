"""Tests for repro.sfi.runner and repro.sfi.results on synthetic truth."""

import numpy as np
import pytest

from repro.faults import FaultOutcome, FaultSpace, OutcomeTable, TableOracle
from repro.models import ResNetCIFAR
from repro.sfi import (
    CampaignRunner,
    DataAwareSFI,
    DataUnawareSFI,
    Granularity,
    LayerWiseSFI,
    NetworkWiseSFI,
)


@pytest.fixture(scope="module")
def space():
    model = ResNetCIFAR(blocks_per_stage=1, widths=(4, 6, 8), seed=7)
    return FaultSpace(model)


@pytest.fixture(scope="module")
def synthetic_truth(space):
    """A deterministic OutcomeTable: a fault is critical iff it is the
    stuck-at-1 of bit 30 or 29 — giving exact per-cell rates of 0.5 in
    those cells (SA1 half of the cell) and 0 elsewhere."""
    outcomes = []
    for layer in space.layers:
        arr = np.full(
            (layer.size, space.bits, 2), FaultOutcome.NON_CRITICAL, dtype=np.uint8
        )
        arr[:, 30, 1] = FaultOutcome.CRITICAL
        arr[:, 29, 1] = FaultOutcome.CRITICAL
        outcomes.append(arr)
    return OutcomeTable(outcomes)


@pytest.fixture(scope="module")
def oracle(synthetic_truth, space):
    return TableOracle(synthetic_truth, space)


TRUE_RATE = 2.0 / 64.0  # two critical faults per weight out of 64


class TestRunner:
    def test_exhaustive_replay_recovers_exact_rate(self, oracle, space):
        """Sampling 100% of every cell reproduces the true rate exactly."""
        plan = DataUnawareSFI(error_margin=0.0001).plan(space)
        # With a 0.01% margin on tiny cells, the plan is a census.
        assert all(
            i.sample_size == i.subpopulation.population for i in plan.items
        )
        result = CampaignRunner(oracle, space).run(plan, seed=0)
        net = result.network_estimate()
        assert net.p_hat == pytest.approx(TRUE_RATE)
        assert net.margin == pytest.approx(0.0)

    def test_determinism_across_runs(self, oracle, space):
        runner = CampaignRunner(oracle, space)
        plan = LayerWiseSFI().plan(space)
        a = runner.run(plan, seed=5)
        b = runner.run(plan, seed=5)
        assert a.cell_tallies == b.cell_tallies

    def test_seeds_vary_samples(self, oracle, space):
        runner = CampaignRunner(oracle, space)
        plan = NetworkWiseSFI().plan(space)
        a = runner.run(plan, seed=1)
        b = runner.run(plan, seed=2)
        assert a.cell_tallies != b.cell_tallies

    def test_run_many(self, oracle, space):
        runner = CampaignRunner(oracle, space)
        plan = NetworkWiseSFI().plan(space)
        results = runner.run_many(plan, seeds=[0, 1, 2])
        assert len(results) == 3
        assert results[0].seed == 0

    def test_total_injections_matches_plan(self, oracle, space):
        for planner in (NetworkWiseSFI(), LayerWiseSFI(), DataUnawareSFI()):
            plan = planner.plan(space)
            result = CampaignRunner(oracle, space).run(plan, seed=0)
            assert result.total_injections == plan.total_injections

    def test_assumed_p_recorded_for_skipped_cells(self, oracle, space):
        p = np.zeros(32)
        p[30] = 0.5
        plan = DataAwareSFI(p=p).plan(space)
        result = CampaignRunner(oracle, space).run(plan, seed=0)
        assert result.assumed_p[(0, 0)] == 0.0
        assert (0, 30) not in result.assumed_p


class TestEstimates:
    def test_network_estimates_near_truth(self, oracle, space):
        for planner in (NetworkWiseSFI(), LayerWiseSFI(), DataUnawareSFI()):
            plan = planner.plan(space)
            result = CampaignRunner(oracle, space).run(plan, seed=3)
            net = result.network_estimate()
            assert net.p_hat == pytest.approx(TRUE_RATE, abs=0.01)
            # 99%-confidence margins occasionally miss on a single seed;
            # require containment within a slightly widened interval.
            assert abs(net.p_hat - TRUE_RATE) <= 1.5 * net.margin

    def test_layer_estimates_contain_truth(self, oracle, space):
        """At 99% confidence, the vast majority of (seed, layer) pairs
        must contain the truth; Wald margins at small p undercover
        slightly, so demand >=90% across 5 seeds x 8 layers."""
        plan = LayerWiseSFI().plan(space)
        runner = CampaignRunner(oracle, space)
        contained = 0
        total = 0
        for seed in range(5):
            result = runner.run(plan, seed=seed)
            for layer in range(len(space.layers)):
                contained += result.layer_estimate(layer).contains(TRUE_RATE)
                total += 1
        assert contained / total >= 0.9

    def test_cell_estimates_exact_when_censused(self, oracle, space):
        plan = DataUnawareSFI(error_margin=0.001).plan(space)
        result = CampaignRunner(oracle, space).run(plan, seed=0)
        assert result.cell_estimate(0, 30).p_hat == pytest.approx(0.5)
        assert result.cell_estimate(0, 29).p_hat == pytest.approx(0.5)
        assert result.cell_estimate(0, 5).p_hat == pytest.approx(0.0)

    def test_stratified_layer_estimate_combines_cells(self, oracle, space):
        plan = DataUnawareSFI().plan(space)
        result = CampaignRunner(oracle, space).run(plan, seed=0)
        est = result.layer_estimate(1)
        assert est.key == ("layer", 1)
        assert est.p_hat == pytest.approx(TRUE_RATE, abs=0.02)
        assert est.margin is not None and est.margin < 0.05

    def test_data_aware_uses_assumed_p_for_skipped_cells(self, oracle, space):
        p = np.zeros(32)
        p[30] = 0.5
        p[29] = 0.5
        plan = DataAwareSFI(p=p).plan(space)
        result = CampaignRunner(oracle, space).run(plan, seed=0)
        net = result.network_estimate()
        # Unsampled cells contribute their assumed p (0): the estimate is
        # driven by the censused bit-30/29 cells.
        assert net.p_hat == pytest.approx(TRUE_RATE, abs=0.005)

    def test_empty_layer_estimate_has_no_margin(self, space, synthetic_truth):
        oracle = TableOracle(synthetic_truth, space)
        result = CampaignRunner(oracle, space).run(
            NetworkWiseSFI(error_margin=0.25).plan(space), seed=0
        )
        # A coarse campaign may leave small layers unsampled.
        injected_layers = {l for (l, _) in result.cell_tallies}
        for layer in range(len(space.layers)):
            est = result.layer_estimate(layer)
            if layer not in injected_layers:
                assert est.margin is None
                assert est.injections == 0
                assert not est.contains(TRUE_RATE)

    def test_estimate_interval(self, oracle, space):
        plan = LayerWiseSFI().plan(space)
        result = CampaignRunner(oracle, space).run(plan, seed=0)
        est = result.layer_estimate(0)
        low, high = est.interval()
        assert 0.0 <= low <= est.p_hat <= high <= 1.0

    def test_interval_requires_margin(self, space, synthetic_truth):
        from repro.sfi.results import Estimate

        est = Estimate(
            key=("layer", 0),
            population=10,
            injections=0,
            criticals=0,
            p_hat=0.0,
            margin=None,
        )
        with pytest.raises(ValueError):
            est.interval()

    def test_masked_counted_as_trials(self, oracle, space):
        plan = LayerWiseSFI().plan(space)
        result = CampaignRunner(oracle, space).run(plan, seed=0)
        # Our synthetic truth has no MASKED entries; inject some by hand.
        result.record(0, 0, critical=False, masked=True)
        assert result.total_masked == 1
        assert result.total_injections == plan.total_injections + 1

    def test_summary_text(self, oracle, space):
        plan = NetworkWiseSFI().plan(space)
        result = CampaignRunner(oracle, space).run(plan, seed=0)
        text = result.summary()
        assert "network-wise" in text and "injections" in text


@pytest.fixture(scope="module")
def random_truth(space):
    """A randomised OutcomeTable: ~10% of faults critical, i.i.d.

    Unlike ``synthetic_truth`` (where every fault in a cell shares an
    outcome, so *any* sample of a cell tallies identically), here the
    tallies depend on exactly which faults were drawn — which is what
    makes seed determinism observable.
    """
    rng = np.random.default_rng(1234)
    outcomes = []
    for layer in space.layers:
        critical = rng.random((layer.size, space.bits, 2)) < 0.1
        arr = np.where(
            critical, FaultOutcome.CRITICAL, FaultOutcome.NON_CRITICAL
        ).astype(np.uint8)
        outcomes.append(arr)
    return OutcomeTable(outcomes)


class TestRunManySeedDeterminism:
    """run_many results are a pure function of (plan, seed)."""

    @pytest.fixture(scope="class")
    def random_oracle(self, random_truth, space):
        return TableOracle(random_truth, space)

    def test_same_seeds_give_identical_results(self, random_oracle, space):
        runner = CampaignRunner(random_oracle, space)
        plan = DataAwareSFI().plan(space)
        seeds = [0, 1, 2]
        first = runner.run_many(plan, seeds=seeds)
        second = runner.run_many(plan, seeds=seeds)
        for a, b in zip(first, second):
            assert a.seed == b.seed
            assert a.cell_tallies == b.cell_tallies
            assert a.assumed_p == b.assumed_p
            assert a.network_estimate() == b.network_estimate()

    def test_runs_are_independent_of_batch_position(self, random_oracle, space):
        """Seed k yields the same result whether run alone or mid-batch:
        no RNG state leaks between the runs of one run_many call."""
        runner = CampaignRunner(random_oracle, space)
        plan = NetworkWiseSFI().plan(space)
        batched = runner.run_many(plan, seeds=[7, 8, 9])
        solo = runner.run(plan, seed=8)
        assert batched[1].cell_tallies == solo.cell_tallies

    def test_distinct_seeds_draw_distinct_samples(self, random_oracle, space):
        runner = CampaignRunner(random_oracle, space)
        plan = NetworkWiseSFI().plan(space)
        results = runner.run_many(plan, seeds=[0, 1, 2, 3])
        assert [r.seed for r in results] == [0, 1, 2, 3]
        tallies = [r.cell_tallies for r in results]
        # With ~10% i.i.d. criticality, two independent samples of
        # hundreds of faults agreeing cell-for-cell is vanishingly
        # unlikely; all four must differ pairwise.
        for i in range(len(tallies)):
            for j in range(i + 1, len(tallies)):
                assert tallies[i] != tallies[j]


class TestStratumSubstreams:
    """Per-stratum RNG substreams make draws order- and shard-independent."""

    @pytest.fixture(scope="class")
    def random_oracle(self, random_truth, space):
        return TableOracle(random_truth, space)

    def test_stratum_rng_matches_seedsequence_spawn(self):
        from repro.sfi.runner import stratum_rng

        children = np.random.SeedSequence(42).spawn(5)
        for index, child in enumerate(children):
            ours = stratum_rng(42, index).random(8)
            spawned = np.random.default_rng(child).random(8)
            assert np.array_equal(ours, spawned)

    def test_item_execution_order_does_not_change_tallies(
        self, random_oracle, space
    ):
        """Running the plan's items in any permutation tallies identically
        — each stratum draws from its own substream, so no stratum's
        sample depends on which strata ran before it."""
        from repro.sfi.runner import execute_plan_items

        plan = DataUnawareSFI(0.05).plan(space)
        indices = list(range(len(plan.items)))
        forward, assumed_f = execute_plan_items(
            plan, random_oracle, indices, seed=3
        )
        backward, assumed_b = execute_plan_items(
            plan, random_oracle, list(reversed(indices)), seed=3
        )
        assert forward == backward
        assert assumed_f == assumed_b

    def test_partitioned_execution_sums_to_serial(
        self, random_oracle, space
    ):
        """Any partition of the items (the distributed sharding case)
        folds back into exactly the serial tallies."""
        from repro.sfi.runner import execute_plan_items

        plan = DataUnawareSFI(0.05).plan(space)
        indices = list(range(len(plan.items)))
        serial, serial_assumed = execute_plan_items(
            plan, random_oracle, indices, seed=9
        )
        merged: dict = {}
        merged_assumed: dict = {}
        for shard in (indices[0::3], indices[1::3], indices[2::3]):
            tallies, assumed = execute_plan_items(
                plan, random_oracle, shard, seed=9
            )
            for key, counts in tallies.items():
                tally = merged.setdefault(key, [0, 0, 0])
                for slot in range(3):
                    tally[slot] += counts[slot]
            merged_assumed.update(assumed)
        assert merged == serial
        assert merged_assumed == serial_assumed

    def test_pool_workers_match_serial_run(
        self, random_oracle, space, tmp_path
    ):
        """A 2-worker local fleet (what ``repro-run --workers 2`` runs)
        equals the serial CampaignRunner.run exactly."""
        from repro.dist import run_sharded_campaign

        plan = DataUnawareSFI(0.05).plan(space)
        serial = CampaignRunner(random_oracle, space).run(plan, seed=11)
        fleet = run_sharded_campaign(
            random_oracle, space, plan, tmp_path / "q",
            seed=11, shards=8, workers=2,
        )
        assert fleet.cell_tallies == serial.cell_tallies
        assert fleet.assumed_p == serial.assumed_p
        assert fleet.network_estimate() == serial.network_estimate()
