"""Campaign execution: the serial sampled-campaign runner."""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable

import numpy as np

from repro.faults.engine import FaultOutcome
from repro.faults.oracle import Oracle
from repro.faults.space import FaultSpace
from repro.sfi.granularity import Granularity
from repro.sfi.planners import CampaignPlan
from repro.sfi.results import CampaignResult
from repro.sfi.sampler import sample_subpopulation
from repro.telemetry import Telemetry, resolve_telemetry


def stratum_rng(seed: int, index: int) -> np.random.Generator:
    """The RNG substream of plan item *index* under base *seed*.

    Built from ``SeedSequence(seed, spawn_key=(index,))`` — the same
    stream :meth:`numpy.random.SeedSequence.spawn` would hand the
    *index*-th child — so a stratum's draws depend only on ``(seed,
    index)``, never on which strata ran before it, which process ran
    it, or how a campaign was sharded.  This is the property that makes
    distributed campaign results bit-identical to serial ones.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index,))
    )


def execute_plan_items(
    plan: CampaignPlan,
    oracle: Oracle,
    indices: Iterable[int],
    *,
    seed: int,
    on_item: Callable[[int], None] | None = None,
) -> tuple[dict[tuple[int, int], list[int]], dict[tuple[int, int], float]]:
    """Sample and classify a subset of *plan*'s items.

    Returns ``(cell_tallies, assumed_p)`` in the
    :class:`~repro.sfi.results.CampaignResult` layout.  Each item draws
    from its own :func:`stratum_rng` substream, so any partition of the
    item indices — across loop iterations or distributed shards —
    produces the same observations as a serial pass.
    *on_item* fires after each processed item (progress/heartbeats).
    """
    tallies: dict[tuple[int, int], list[int]] = {}
    assumed: dict[tuple[int, int], float] = {}
    for index in indices:
        item = plan.items[index]
        subpop = item.subpopulation
        if item.sample_size == 0:
            if (
                plan.granularity is Granularity.BIT_LAYER
                and subpop.layer is not None
                and subpop.bit is not None
            ):
                assumed[(subpop.layer, subpop.bit)] = item.p_assumed
            if on_item is not None:
                on_item(index)
            continue
        rng = stratum_rng(seed, index)
        faults = sample_subpopulation(subpop, item.sample_size, rng)
        classify_many = getattr(oracle, "classify_many", None)
        if classify_many is not None:
            # Batching oracles (plan engine) share tail passes across
            # same-layer faults; tallies are order-independent, so the
            # result is identical to the per-fault loop.
            outcomes = classify_many(faults)
        else:
            outcomes = [oracle.classify(fault) for fault in faults]
        for fault, outcome in zip(faults, outcomes):
            tally = tallies.setdefault((fault.layer, fault.bit), [0, 0, 0])
            tally[0] += 1
            tally[1] += int(outcome is FaultOutcome.CRITICAL)
            tally[2] += int(outcome is FaultOutcome.MASKED)
        if on_item is not None:
            on_item(index)
    return tallies, assumed


class CampaignRunner:
    """Executes a :class:`CampaignPlan` against a fault oracle.

    The oracle is either an :class:`~repro.faults.InferenceOracle` (real
    injections) or a :class:`~repro.faults.TableOracle` (replay of an
    exhaustive campaign's recorded outcomes — bit-exact and much faster).

    With *telemetry*, every :meth:`run` is journaled as a sampled
    campaign (``campaign_start``/``campaign_end`` plus a
    ``sfi.run`` span) and its injections counted.

    This is the serial reference; :func:`repro.dist.run_sharded_campaign`
    runs the same plan over a local worker fleet and merges to an
    identical result.
    """

    def __init__(
        self,
        oracle: Oracle,
        space: FaultSpace,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.oracle = oracle
        self.space = space
        self.telemetry = resolve_telemetry(telemetry)

    def run(self, plan: CampaignPlan, *, seed: int = 0) -> CampaignResult:
        """Sample and classify every planned stratum; returns the result.

        Strata are independent (each draws from its own
        :func:`stratum_rng` substream), so any partition of them — the
        shards of a sharded campaign — reproduces this result exactly.
        """
        tele = self.telemetry
        if not tele.enabled:
            return self._run(plan, seed)
        tele.emit(
            "campaign_start",
            kind="sampled",
            method=plan.method,
            seed=seed,
            total=plan.total_injections,
        )
        start = time.monotonic()
        with tele.span("sfi.run", method=plan.method, seed=seed):
            result = self._run(plan, seed)
        tele.counter("sfi.injections").add(result.total_injections)
        tele.emit(
            "campaign_end",
            elapsed_seconds=time.monotonic() - start,
            injections=result.total_injections,
            criticals=result.total_criticals,
            masked=result.total_masked,
        )
        return result

    def _run(self, plan: CampaignPlan, seed: int) -> CampaignResult:
        result = CampaignResult(
            method=plan.method,
            granularity=plan.granularity,
            t=plan.t,
            space=self.space,
            seed=seed,
        )
        tallies, assumed = execute_plan_items(
            plan, self.oracle, range(len(plan.items)), seed=seed
        )
        result.cell_tallies.update(tallies)
        result.assumed_p.update(assumed)
        return result

    def run_many(
        self, plan: CampaignPlan, *, seeds: list[int]
    ) -> list[CampaignResult]:
        """Run the plan once per seed (the paper's S0-S9 samples).

        Each stratum draws from the ``SeedSequence(seed,
        spawn_key=(item,))`` substream, so results are a pure function
        of ``(plan, seed)``: the same seed always yields the same
        samples (and, against a deterministic oracle, the same result),
        distinct seeds draw independent samples, and the draws are
        independent of stratum execution order.
        """
        return [self.run(plan, seed=seed) for seed in seeds]

