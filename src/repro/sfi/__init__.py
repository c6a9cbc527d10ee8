"""Statistical fault-injection campaigns (the paper's core contribution).

Four campaign planners, in the order the paper evaluates them:

- :class:`NetworkWiseSFI` — Eq. 1 applied once to the whole network
  (the Leveugle et al. [9] baseline).  Statistically valid only for the
  single network-level question; per-layer/per-bit readouts from it violate
  the 4th Bernoulli assumption.
- :class:`LayerWiseSFI` — Eq. 1 applied per layer.
- :class:`DataUnawareSFI` — Eq. 1 applied per (bit, layer) cell with the
  safe prior p = 0.5 (paper Section III-A / Eq. 3).
- :class:`DataAwareSFI` — per (bit, layer) cell with the per-bit prior
  p(i) derived from the golden weight distribution (paper Section III-B /
  Eq. 4-5).

Supporting machinery: subpopulation partitioning (:mod:`granularity`),
the data-aware p(i) pipeline (:mod:`dataaware`), seeded sampling
(:mod:`sampler`), campaign execution (:class:`CampaignRunner`) and
validation against exhaustive ground truth (:mod:`validation`).
"""

from repro.sfi.granularity import (
    Granularity,
    Subpopulation,
    cell_subpopulations,
    layer_subpopulations,
    network_subpopulation,
)
from repro.sfi.dataaware import (
    BitCriticality,
    bit_criticality,
    data_aware_p,
    model_weight_vector,
)
from repro.sfi.planners import (
    CampaignPlan,
    DataAwareSFI,
    DataUnawareSFI,
    LayerWiseSFI,
    NetworkWiseSFI,
    PlannedSubpopulation,
)
from repro.sfi.sampler import sample_subpopulation
from repro.sfi.results import CampaignResult, Estimate
from repro.sfi.runner import CampaignRunner
from repro.sfi.twostage import TwoStageSFI, merge_results
from repro.sfi.validation import MethodComparison, ValidationReport, validate_campaign

__all__ = [
    "Granularity",
    "Subpopulation",
    "network_subpopulation",
    "layer_subpopulations",
    "cell_subpopulations",
    "BitCriticality",
    "bit_criticality",
    "data_aware_p",
    "model_weight_vector",
    "CampaignPlan",
    "PlannedSubpopulation",
    "NetworkWiseSFI",
    "LayerWiseSFI",
    "DataUnawareSFI",
    "DataAwareSFI",
    "sample_subpopulation",
    "CampaignResult",
    "Estimate",
    "CampaignRunner",
    "TwoStageSFI",
    "merge_results",
    "MethodComparison",
    "ValidationReport",
    "validate_campaign",
]
