"""The benchmark's two workloads.

Each workload builds its program inputs in :meth:`setup` (fresh-process
set-up is what ``setup_s`` measures) and then yields the *units* of each
pass; figures are taken as medians over passes.  :meth:`execute` runs one
unit through the program's public campaign entry points and is the timed
region; :meth:`check` compares its output with a reference and is not
timed.  Every reference comes from the committed exhaustive artifacts,
loaded read-only; no path that can regenerate an artifact is ever called.

Inputs are the configuration of the committed artifacts: 64 eval images
of the ``seed=1234`` SynthCIFAR test set, the default engine
(``create_engine`` with no ``kind``) and its default batch size.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data import SynthCIFAR
from repro.dist import run_sharded_campaign
from repro.faults import FaultSpace, OutcomeTable, TableOracle
from repro.faults.engine import FaultOutcome
from repro.faults.table import timed_classify_cell
from repro.faults.targets import enumerate_weight_layers
from repro.models import create_model
from repro.runtime import create_engine
from repro.sfi.artifacts import exhaustive_table_path
from repro.sfi.planners import DataAwareSFI, DataUnawareSFI
from repro.sfi.runner import CampaignRunner, stratum_rng
from repro.sfi.sampler import sample_subpopulation
from repro.sfi.validation import validate_campaign
from repro.telemetry import resolve_telemetry

EVAL_SIZE = 64
EVAL_SEED = 1234


@dataclass
class UnitOutcome:
    """What one executed unit did: fault counts and the gate's verdict."""

    faults: int
    masked: int
    ok: bool
    detail: str = ""


def load_reference(model_name: str) -> OutcomeTable:
    """The committed exhaustive table of *model_name* (SHA-verified)."""
    path = exhaustive_table_path(model_name, eval_size=EVAL_SIZE)
    if not path.is_file():
        raise FileNotFoundError(f"committed exhaustive artifact missing: {path}")
    return OutcomeTable.load(path)


def flip_outcome(table: OutcomeTable, layer: int, index: int, bit: int,
                 model: int) -> None:
    """Corrupt one outcome of *table* in memory (the gate's self-test)."""
    arr = table.outcomes[layer]
    arr[index, bit, model] = (int(arr[index, bit, model]) + 1) % 3


def flip_first_draw(table: OutcomeTable, space: FaultSpace, plan, index: int,
                    seed: int) -> None:
    """Flip the outcome of the first fault stratum *index* draws under *seed*."""
    item = plan.items[index]
    rng = stratum_rng(seed, index)
    fault = sample_subpopulation(item.subpopulation, item.sample_size, rng)[0]
    model = space.fault_models.index(fault.model)
    flip_outcome(table, fault.layer, fault.index, fault.bit, model)


def _copy_table(table: OutcomeTable) -> OutcomeTable:
    return OutcomeTable([a.copy() for a in table.outcomes], metadata=table.metadata)


def _inference_engine(model_name: str):
    model = create_model(model_name, pretrained=True)
    data = SynthCIFAR("test", size=EVAL_SIZE, seed=EVAL_SEED)
    return create_engine(model, data.images, data.labels)


def _check_shape(table: OutcomeTable, space: FaultSpace, model_name: str) -> None:
    sizes = [layer.size for layer in space.layers]
    if [a.shape[0] for a in table.outcomes] != sizes:
        raise ValueError(f"committed table does not match {model_name}'s layers")


class Workload:
    """Shared interface; subclasses fill in the four hooks below."""

    name = ""
    model_name = ""
    #: The live engine, for workloads that run inference.
    engine = None
    #: Passes a run makes at least; medians over passes need three.
    min_passes = 3

    def __init__(self, seed: int, flip_reference: bool = False) -> None:
        self.seed = seed
        self.flip_reference = flip_reference

    def setup(self) -> None:
        raise NotImplementedError

    def units(self, pass_index: int) -> list:
        """The units of pass *pass_index*."""
        raise NotImplementedError

    def execute(self, unit):
        raise NotImplementedError

    def check(self, unit, output) -> UnitOutcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release temporary files."""

    def fault_layer(self, unit) -> int | None:
        """Fault layer a unit works on (None when it spans layers)."""
        return None


def exhaustive_slice(num_layers: int) -> list[tuple[int, int]]:
    """The fixed, layer-stratified (layer, bit) cells of ``exhaustive_resnet8``.

    Layer *l* gets bits ``l, l+8, l+16, l+24`` (modulo 32), so on eight
    layers every bit position appears exactly once: the slice has the
    exhaustive campaign's uniform bit mix (23 mantissa bits, exponent bits
    23-30, the sign bit) in a quarter of a layer's cells.  Cells run
    layer by layer, as an exhaustive campaign does.
    """
    return [
        (layer, (layer + 8 * k) % 32)
        for layer in range(num_layers)
        for k in range(4)
    ]


class ExhaustiveResnet8(Workload):
    """Serial exhaustive cells on ``resnet8_mini`` against the artifact."""

    name = "exhaustive_resnet8"
    model_name = "resnet8_mini"
    #: A pass of 32 cells takes about 20 s; a second pass averages out
    #: part of the host's pass-to-pass noise.
    min_passes = 2

    def setup(self) -> None:
        self.reference = load_reference(self.model_name)
        self.engine = _inference_engine(self.model_name)
        self.space = FaultSpace(self.engine.layers)
        _check_shape(self.reference, self.space, self.model_name)
        self.cells = exhaustive_slice(len(self.space.layers))
        self.telemetry = resolve_telemetry(None)
        if self.flip_reference:
            layer, bit = self.cells[0]
            flip_outcome(self.reference, layer, 0, bit, 0)

    def units(self, pass_index: int) -> list:
        return list(self.cells)

    def fault_layer(self, unit) -> int:
        return unit[0]

    def execute(self, unit):
        layer, bit = unit
        cell, _, _ = timed_classify_cell(
            self.engine, self.space, layer, bit, self.telemetry
        )
        return cell

    def check(self, unit, output) -> UnitOutcome:
        layer, bit = unit
        expected = self.reference.outcomes[layer][:, bit, :]
        ok = output.shape == expected.shape and bool(np.array_equal(output, expected))
        masked = int((output == FaultOutcome.MASKED).sum())
        detail = "" if ok else f"cell L{layer} B{bit} differs from the artifact"
        return UnitOutcome(int(output.size), masked, ok, detail)


class ReplayShardedResnet14(Workload):
    """Sharded replayed campaigns on ``resnet14_mini`` (no inference).

    Campaigns alternate data-unaware and data-aware plans on consecutive
    seeds.  Their margins are chosen so both plans hold ~17k injections,
    which keeps the unit-time distribution unimodal.
    """

    name = "replay_sharded_resnet14"
    model_name = "resnet14_mini"
    campaigns_per_pass = 20
    shards = 8
    workers = 2

    def setup(self) -> None:
        self.table = load_reference(self.model_name)
        self.reference = _copy_table(self.table)
        model = create_model(self.model_name, pretrained=True)
        self.space = FaultSpace(enumerate_weight_layers(model))
        _check_shape(self.table, self.space, self.model_name)
        self.plans = [
            DataUnawareSFI(0.2).plan(self.space),
            DataAwareSFI(0.05).plan(self.space),
        ]
        self.oracle = TableOracle(self.table, self.space)
        self.serial = CampaignRunner(TableOracle(self.reference, self.space), self.space)
        # Under TMPDIR, which run.py points inside the checkout.
        self.tmp = Path(tempfile.mkdtemp(prefix="queues-"))
        self.submitted = 0
        if self.flip_reference:
            plan = self.plans[0]
            index = next(i for i, it in enumerate(plan.items) if it.sample_size)
            flip_first_draw(self.reference, self.space, plan, index, self._campaign_seed(0))

    def _campaign_seed(self, campaign: int) -> int:
        return self.seed * 100_000 + campaign

    def units(self, pass_index: int) -> list:
        first = pass_index * self.campaigns_per_pass
        return [
            (c, self.plans[c % 2], self._campaign_seed(c))
            for c in range(first, first + self.campaigns_per_pass)
        ]

    def execute(self, unit):
        campaign, plan, seed = unit
        # A fresh queue root per submission: an old root would resume.
        self.submitted += 1
        root = self.tmp / f"campaign-{self.submitted}"
        merged = run_sharded_campaign(
            self.oracle, self.space, plan, root,
            seed=seed, shards=self.shards, workers=self.workers,
        )
        serial = self.serial.run(plan, seed=seed)
        report = validate_campaign(merged, self.reference)
        return merged, serial, report, root

    def check(self, unit, output) -> UnitOutcome:
        merged, serial, report, root = output
        shutil.rmtree(root, ignore_errors=True)
        ok = (
            merged.cell_tallies == serial.cell_tallies
            and merged.assumed_p == serial.assumed_p
            and report.total_injections == merged.total_injections
        )
        detail = "" if ok else f"campaign {unit[0]} merge differs from the serial replay"
        return UnitOutcome(merged.total_injections, merged.total_masked, ok, detail)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (ExhaustiveResnet8, ReplayShardedResnet14)
}
