"""The plan engine: certified, op-granular, batched fault evaluation.

:class:`PlanEngine` classifies weight faults exactly like
:class:`repro.faults.InferenceEngine` — same injector, same policies,
bit-identical outcomes — but executes a captured
:class:`~repro.runtime.ExecutionPlan` instead of walking the module tree,
and spends kernel time only where a fault can still change a prediction.

Per batch of K same-layer faults:

0. **Pre-certification.**  A sound bound on the logit delta from the
   corrupted weight delta and the golden input's channel statistics
   alone, no kernels.  A fault is certified for an image when
   ``(bound_j + bound_gp) * slack`` stays below the golden logit margin
   for every class *j*: the prediction provably cannot move, so the row
   inherits the golden prediction.  The bound is the channelwise delta
   propagated through the suffix by the absorption calculus the
   verifier owns (:func:`repro.check.kernels.absorption_spec`), as two
   chains — per-channel **max** and **mean** of ``|delta|`` over
   spatial positions — of which the sharper wins.  On the
   campaign-representative mix this retires most faults.
1. **Exact dirty rows.**  A weight fault in a conv or linear layer
   perturbs exactly one output channel (GEMM rows are computed
   independently), so surviving variants' faulted channels come from
   one stacked row-GEMM against the layer's cached golden im2col
   columns (:meth:`PlanEngine._variant_rows`), are re-certified against
   the exact delta, replayed bitwise through the single-consumer chain
   of channel-preserving ops (bn / relu / relu6 / pooling / subsample /
   pad) by the same per-channel kernels the dense tail's sparse prefix
   uses (:meth:`PlanEngine._replay_steps`), and certified once more —
   post-relu gating is the strongest pruner.
   Grouped and depthwise convs are not row-separable: their faulted op
   runs in full per variant.
2. **Dense delegation.**  A variant still alive on most of the eval
   batch has nothing left to prune.  It takes the exact dense tail
   (:meth:`PlanEngine._exact_batch`): the dirty channel is carried as a
   ``(N, K, ...)`` slice through the channel-preserving prefix,
   materialised — golden copy plus one patched channel — at the first
   channel-mixing op, and the K variants run the dense suffix stacked
   along the batch axis while the working set stays cache-sized
   (:data:`DENSE_STACK_LIMIT`), one at a time beyond that.
3. **Stacked suffix walk.**  The remaining (variant, image) rows run the
   suffix stacked along one row axis, re-certifying and compacting
   every :data:`CERT_STRIDE` ops; a per-op byte budget
   (:data:`OP_BUDGET`, im2col-expansion aware) blocks the stacked
   workspace.

Ops the verifier does not mark batch-invariant (``linear``'s 2-D GEMM,
the einsum convolution paths) never run stacked: they run once per
variant at the full eval batch, shaped exactly like the unbatched call,
and GEMM and einsum output rows depend only on their own input row.
Certified rows provably keep the golden prediction and every surviving
row runs through bit-stable kernels, so the predictions matrix is
bit-identical to the module engine's.  The certification arithmetic
runs in float64 with a multiplicative slack so its own rounding stays
far below the margins it compares against; non-finite bounds
(saturating faults) never certify and always take the exact path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.backends import resolve_backend
from repro.faults.engine import FaultInjectionEngine, InferenceEngine
from repro.faults.model import Fault
from repro.ieee754 import FLOAT32, FloatFormat
from repro.nn import Module
from repro.nn import functional as F
from repro.runtime.plan import OpSpec, capture_plan
from repro.telemetry import Telemetry
from repro.tensor.im2col import conv_output_size

#: Default number of same-layer faults evaluated per batch.
DEFAULT_BATCH_SIZE = 16

#: Byte ceiling for the stacked dense tail: K variants are evaluated on
#: one stacked batch only while K x (materialised activations) fits in
#: this budget; beyond it the stacked arrays fall out of cache and the
#: tail is chunked per variant instead (each chunk bit-identical to the
#: unbatched pass either way).
DENSE_STACK_LIMIT = 4 * 1024 * 1024

#: Per-op byte budget for the stacked suffix walk; stacked rows beyond
#: it are executed in row blocks so the per-op working set stays
#: cache-sized (bit-identical: blocking only splits the batch axis of
#: batch-invariant kernels).
OP_BUDGET = 4 * 1024 * 1024

#: Multiplicative slack on every certification bound: keeps the float64
#: bound arithmetic's own rounding from certifying a borderline fault
#: the float32 kernels would flip.
CERT_SLACK = 1.001

#: Re-certify the stacked rows every this many tail ops.  Recomputing
#: the delta statistics costs about as much as a small op, so per-op
#: certification would double the walk; pruning is purely a perf
#: optimisation (certified rows are bit-exact and argmax to the golden
#: prediction anyway), so a stride trades a little extra kernel work
#: for far less bound arithmetic.
CERT_STRIDE = 3

#: Skip certification below this many stacked rows — running a small
#: tail to completion is cheaper than trying to prune it.
CERT_MIN_ROWS = 48

#: A seeded variant still alive on more than ``n // DENSE_ALIVE_DIV``
#: images is delegated to the exact dense tail instead of the certified
#: walk — with most rows alive there is nothing to prune, and the dense
#: path's contiguous, certification-free kernels are faster per row.
DENSE_ALIVE_DIV = 6

#: Op kinds that keep a single dirty channel confined to that channel.
_CHANNEL_PRESERVING = frozenset(
    {
        "batchnorm2d",
        "relu",
        "relu6",
        "avg_pool2d",
        "global_avg_pool2d",
        "subsample2d",
    }
)


@dataclass(frozen=True)
class _SparsePrefix:
    """Static analysis of a fault op's channel-sparse tail prefix.

    ``steps`` holds ``(op, mode, aux)`` triples for the tail ops that
    preserve the dirty channel (``aux`` is the accumulated channel shift
    at the op's output, or the operand layout for ``add``);
    ``seed_len`` counts the leading steps that form a single-consumer
    chain from the fault op, which certified seeding replays before the
    stacked walk; ``dense_start`` is the tail position of
    the first channel-mixing op (``len(tail)`` when the whole tail is
    channel-preserving); ``mat_slots`` are the sparse slots that must be
    materialised — golden copy plus patched channel — for the dense
    resume, with their accumulated channel shift from ``pad_channels``.
    """

    steps: tuple
    seed_len: int
    dense_start: int
    mat_slots: tuple[tuple[int, int], ...]  # (slot, channel shift)


def _row_stats(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row float64 (max, mean) of ``|delta|`` over its other axes."""
    d = np.abs(delta).astype(np.float64)
    if d.ndim == 1:
        return d, d
    axes = tuple(range(1, d.ndim))
    return d.max(axis=axes), d.mean(axis=axes)


class PlanEngine(FaultInjectionEngine):
    """Fault classification over a captured execution plan.

    Parameters mirror :class:`repro.faults.InferenceEngine`, plus:

    batch_size:
        Same-layer faults evaluated per batch (>= 1).
    """

    kind = "plan"

    def __init__(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        fmt: FloatFormat = FLOAT32,
        policy: str = "accuracy_drop",
        threshold: float = 0.0,
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
        )
        #: The shared reference kernels the plan executes on.
        self.backend = resolve_backend()
        self.plan = capture_plan(model)
        # Re-verify at the engine trust boundary (capture already did,
        # but the engine is also handed pre-built plans in tests) and
        # pin the verified structure's fingerprint — distributed shard
        # results attest this value so merges can refuse outcomes from
        # plans that never passed verification.
        from repro.check import check_plan  # lazy: check reasons about runtime

        if self.telemetry.enabled:
            with self.telemetry.span("check.verify_plan", emit=True):
                self.plan_fingerprint = check_plan(self.plan)
            self.telemetry.counter("check.plans_verified").add(1)
        else:
            self.plan_fingerprint = check_plan(self.plan)
        self.batch_size = int(batch_size)
        instrument = None
        if self.telemetry.enabled:
            def instrument(op):
                return self.telemetry.span(f"plan.op.{op.kind}")
        self._golden = self.plan.execute_all(self.images, instrument=instrument)
        logits = self._golden[self.plan.output_slot]
        self.golden_predictions = logits.argmax(axis=1)
        self.golden_accuracy = float(
            (self.golden_predictions == self.labels).mean()
        )
        n = len(self.images)
        margin = logits.astype(np.float64)
        margin = margin[np.arange(n), self.golden_predictions][:, None] - margin
        margin[np.arange(n), self.golden_predictions] = np.inf
        #: Per-image logit margin to every class (inf at the golden class).
        self._margin = margin
        self._num_classes = logits.shape[1]
        self._layer_op = self._map_layers_to_ops()
        self._free_schedule: dict[int, list[list[int]]] = {}
        self._sparse_cache: dict[int, _SparsePrefix | None] = {}
        self._gamma_cache: dict[int, tuple[dict, dict]] = {}
        self._bn_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Golden im2col columns and input channel statistics of the
        # active fault layer (single entries: campaigns sweep faults
        # layer by layer, so one layer is hot).
        self._cols_cache: tuple[int, np.ndarray, int, int] | None = None
        self._stats_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        #: Batches executed (each covers up to batch_size faults).
        self.tail_passes = 0
        #: Tail ops actually recomputed across all passes.
        self.ops_executed = 0
        #: Ops served from the golden op cache instead of recomputed.
        self.ops_cached = 0
        #: Faults fully retired by pre-certification (no kernel work).
        self.precertified = 0
        #: (variant, image) rows certified during seeding or the walk.
        self.certified_rows = 0
        #: Rows that reached the plan output through the stacked walk.
        self.survivor_rows = 0
        #: Variants delegated to the exact dense tail (mostly-alive).
        self.dense_fallback_faults = 0

    def _map_layers_to_ops(self) -> list[int]:
        """Plan-op index owning each weight layer, in layer order.

        Keyed by module identity.
        """
        op_of_module = {}
        for op in self.plan.ops:
            if op.module is not None:
                op_of_module.setdefault(id(op.module), op.index)
        mapping = []
        for layer in self.layers:
            op_index = op_of_module.get(id(layer.module))
            if op_index is None:
                raise ValueError(
                    f"weight layer {layer.name} has no op in the captured "
                    "plan; capture() must cover the whole forward pass"
                )
            mapping.append(op_index)
        return mapping

    def _tail_free_schedule(self, op_index: int) -> list[list[int]]:
        """Per tail position, the env slots dead after that op runs.

        Freeing a tail buffer at its last use keeps the working set as
        small as ``forward_fast``'s, so the allocator serves every op
        from warm, recently-freed pages instead of fresh cold mappings —
        purely a memory-lifetime change, the values are untouched.
        """
        schedule = self._free_schedule.get(op_index)
        if schedule is None:
            tail = self.plan.affected_ops(op_index)
            produced = {self.plan.ops[op_index].output}
            produced.update(self.plan.ops[idx].output for idx in tail)
            last_use: dict[int, int] = {}
            for pos, idx in enumerate(tail):
                for slot in self.plan.ops[idx].inputs:
                    if slot in produced:
                        last_use[slot] = pos
            schedule = [[] for _ in tail]
            for slot, pos in last_use.items():
                if slot != self.plan.output_slot:
                    schedule[pos].append(slot)
            self._free_schedule[op_index] = schedule
        return schedule

    # -- fault evaluation ---------------------------------------------------

    def _predictions_with_fault(self, fault: Fault) -> np.ndarray:
        return self._run_batch(fault.layer, [fault])[0]

    def predictions_for_faults(self, faults: Sequence[Fault]) -> np.ndarray:
        """Faulty top-1 predictions, ``(K, N)``; same-layer faults share
        batches."""
        if not faults:
            return np.empty((0, len(self.images)), dtype=np.int64)
        if self.telemetry.enabled:
            with self.telemetry.span("engine.inference"):
                return self._predictions_for_faults(faults)
        return self._predictions_for_faults(faults)

    def _predictions_for_faults(self, faults: Sequence[Fault]) -> np.ndarray:
        by_layer: dict[int, list[int]] = {}
        for pos, fault in enumerate(faults):
            by_layer.setdefault(fault.layer, []).append(pos)
        rows = [None] * len(faults)
        for layer_idx, positions in by_layer.items():
            for start in range(0, len(positions), self.batch_size):
                chunk = positions[start : start + self.batch_size]
                preds = self._run_batch(layer_idx, [faults[p] for p in chunk])
                for pos, row in zip(chunk, preds):
                    rows[pos] = row
        return np.stack(rows)

    # -- fault-batch execution ---------------------------------------------

    def _run_batch(self, layer_idx: int, faults: Sequence[Fault]) -> np.ndarray:
        """One batch of K faults of one layer -> (K, N) preds."""
        op_index = self._layer_op[layer_idx]
        op = self.plan.ops[op_index]
        k = len(faults)
        tail = self.plan.affected_ops(op_index)
        preds = np.tile(self.golden_predictions, (k, 1))
        # Corrupted weights legitimately overflow to inf/NaN; only the
        # argmax matters, so silence the warnings wholesale.
        with np.errstate(all="ignore"):
            gmax, gmean = self._gammas(op_index)
            gcol_max, gcol_mean = gmax[op.output], gmean[op.output]
            eligible = op.kind == "linear" or (
                op.kind == "conv2d" and op.module.groups == 1
            )
            survivors: list[tuple[int, Fault, np.ndarray]] = []
            for v, fault in enumerate(faults):
                if eligible:
                    alive = self._precertify(op, fault, gcol_max, gcol_mean)
                else:
                    alive = np.ones(len(self.images), dtype=bool)
                if alive.any():
                    survivors.append((v, fault, alive))
                else:
                    self.precertified += 1
            if survivors:
                if eligible:
                    img, var, start, start_idx = self._seed_sparse(
                        op, survivors, gcol_max, gcol_mean
                    )
                else:
                    img, var, start, start_idx = self._seed_dense(
                        op, survivors, gcol_max, gcol_mean
                    )
                if img.size:
                    # Variants still alive on most images gain nothing
                    # from row pruning: the exact dense tail is faster
                    # per row (contiguous, no certification).
                    counts = np.bincount(var, minlength=k)
                    dense = np.nonzero(
                        counts > len(self.images) // DENSE_ALIVE_DIV
                    )[0]
                    if dense.size:
                        keep = ~np.isin(var, dense)
                        img, var, start = img[keep], var[keep], start[keep]
                        preds[dense] = self._exact_batch(
                            op_index, op, tail, [faults[v] for v in dense]
                        )
                        self.dense_fallback_faults += int(dense.size)
                self._walk(
                    start_idx,
                    self.plan.affected_ops(start_idx),
                    img,
                    var,
                    start,
                    preds,
                )
        self.tail_passes += 1
        self.ops_executed += len(tail) if survivors else 0
        self.ops_cached += len(self.plan.ops) - 1 - len(tail)
        self.inference_count += k
        if self.telemetry.enabled:
            self.telemetry.counter("engine.inferences").add(k)
            self.telemetry.counter("engine.precertified").add(
                k - len(survivors)
            )
        return preds

    # -- certification machinery -------------------------------------------

    def _absorb(self, op: OpSpec, mean: bool):
        from repro.check.kernels import absorption_spec

        x_in = self._golden[op.inputs[0]]
        x_out = self._golden[op.output]
        in_pos = int(np.prod(x_in.shape[2:])) if x_in.ndim > 2 else 1
        out_pos = int(np.prod(x_out.shape[2:])) if x_out.ndim > 2 else 1
        return absorption_spec(
            op,
            mean=mean,
            in_positions=in_pos,
            out_positions=out_pos,
            input_rank=x_in.ndim - 1,
        )

    def _slot_width(self, slot: int) -> int:
        arr = self._golden[slot]
        return arr.shape[1] if arr.ndim > 1 else arr.shape[0]

    def _gammas(self, op_index: int) -> tuple[dict, dict]:
        """Suffix absorption tables after op *op_index* has executed.

        For each chain (max, mean) a ``{slot: (classes, width)}`` float64
        matrix ``G`` such that ``|logit delta| <= sum_slots G[s] @ b_s``
        for channelwise delta bounds ``b_s`` of the dirty slots — built
        by reverse accumulation of per-op absorption specs; ``add`` ops
        accumulate into both operands, ops with no absorption row
        contribute an infinite column (rows never certify through them).
        """
        cached = self._gamma_cache.get(op_index)
        if cached is not None:
            return cached
        eye = np.eye(self._num_classes, dtype=np.float64)
        out_slot = self.plan.output_slot
        tables = (
            {out_slot: eye},
            {out_slot: eye.copy()},
        )
        for op in reversed(self.plan.ops):
            if op.index <= op_index:
                break
            for table, mean in zip(tables, (False, True)):
                g_out = table.get(op.output)
                if g_out is None:
                    continue
                if op.kind == "add":
                    for slot in op.inputs:
                        prev = table.get(slot)
                        table[slot] = g_out if prev is None else prev + g_out
                    continue
                spec = self._absorb(op, mean)
                if spec is None:
                    contrib = np.full(
                        (self._num_classes, self._slot_width(op.inputs[0])),
                        np.inf,
                    )
                elif spec[0] == "mat":
                    contrib = g_out @ spec[1]
                elif spec[0] == "diag":
                    contrib = g_out * spec[1][None, :]
                elif spec[0] == "scale":
                    contrib = g_out * spec[1]
                elif spec[0] == "pad":
                    before, after = spec[1], spec[2]
                    end = g_out.shape[1] - after if after else None
                    contrib = g_out[:, before:end]
                else:  # "id"
                    contrib = g_out
                slot = op.inputs[0]
                prev = table.get(slot)
                table[slot] = contrib if prev is None else prev + contrib
        self._gamma_cache[op_index] = tables
        return tables

    def _certified(
        self, bound: np.ndarray, img: np.ndarray | None
    ) -> np.ndarray:
        """Rows whose prediction provably cannot flip.

        ``bound`` is the per-row, per-class logit delta bound; a flip to
        class *j* needs the delta of ``logit_j - logit_gp`` to exceed
        the golden margin, and that delta is at most ``bound_j +
        bound_gp``.  Non-finite bounds (saturating faults) never
        certify.
        """
        gp = self.golden_predictions if img is None else self.golden_predictions[img]
        margin = self._margin if img is None else self._margin[img]
        bt = bound[np.arange(len(bound)), gp]
        tot = (bound + bt[:, None]) * CERT_SLACK
        return (tot < margin).all(axis=1) & np.isfinite(tot).all(axis=1)

    def _input_stats(self, op: OpSpec) -> tuple[np.ndarray, np.ndarray]:
        """Golden (max, mean) |input| channel stats (single-entry cache)."""
        cached = self._stats_cache
        if cached is not None and cached[0] == op.index:
            return cached[1], cached[2]
        maxabs, meanabs = F.channel_abs_stats(self._golden[op.inputs[0]])
        self._stats_cache = (op.index, maxabs, meanabs)
        return maxabs, meanabs

    def _precertify(
        self,
        op: OpSpec,
        fault: Fault,
        gcol_max: np.ndarray,
        gcol_mean: np.ndarray,
    ) -> np.ndarray:
        """Alive-image mask from the weight delta alone (no kernels).

        A single corrupted weight perturbs one output channel; its delta
        at any output position is the weight delta times one golden
        input value of the weight's input channel, so the golden input's
        per-image channel statistics bound the whole fault effect.
        """
        golden_val, faulty = self.injector.faulty_value(fault)
        dw = abs(faulty - golden_val)
        idx = np.unravel_index(fault.index, op.module.weight.data.shape)
        och, ic = int(idx[0]), int(idx[1])
        if op.kind == "linear":
            x = self._golden[op.inputs[0]]
            b0max = b0mean = dw * np.abs(x[:, ic]).astype(np.float64)
        else:
            maxabs, meanabs = self._input_stats(op)
            x_in = self._golden[op.inputs[0]]
            x_out = self._golden[op.output]
            pos_ratio = (x_in.shape[2] * x_in.shape[3]) / (
                x_out.shape[2] * x_out.shape[3]
            )
            b0max = dw * maxabs[:, ic]
            b0mean = dw * meanabs[:, ic] * pos_ratio
        bound = np.minimum(
            np.outer(b0max, gcol_max[:, och]),
            np.outer(b0mean, gcol_mean[:, och]),
        )
        return ~self._certified(bound, None)

    # -- seeding and the stacked walk ---------------------------------------

    def _bn_affine(self, t: OpSpec) -> tuple[np.ndarray, np.ndarray]:
        """Full-vector bn scale/shift, exactly as ``F.batchnorm2d``."""
        cached = self._bn_cache.get(t.index)
        if cached is None:
            m = t.module
            scale = (m.weight.data / np.sqrt(m.running_var + m.eps)).astype(
                np.float32
            )
            shift = (m.bias.data - m.running_mean * scale).astype(np.float32)
            cached = self._bn_cache[t.index] = (scale, shift)
        return cached

    def _seed_sparse(
        self,
        op: OpSpec,
        survivors: list[tuple[int, Fault, np.ndarray]],
        gcol_max: np.ndarray,
        gcol_mean: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Exact dirty rows for the surviving variants, re-certified.

        One stacked row-GEMM computes every variant's faulted output
        channel bit-exactly and the exact channel delta re-certifies.
        Surviving rows are then replayed — still single-channel, still
        bit-exact — through the seed chain of the channel-sparse prefix
        (:meth:`_replay_steps`: bn gains, relu gating) and certified once
        more where the sharpened delta retires most of what the
        weight-level bound could not.  What remains is materialised as
        golden copies of the chain-end slot with the dirty channel
        patched (bit-equal to dense execution: row GEMMs are
        independent, other channels never change).
        """
        chans, rows = self._variant_rows(op, [f for _, f, _ in survivors])
        golden_out = self._golden[op.output]
        info = self._sparse_prefix(op.index)
        chain = info.steps[: info.seed_len]
        start_op = chain[-1][0] if chain else op
        if chain:
            end_shift = chain[-1][2]
            end_gmax, end_gmean = self._gammas(start_op.index)
            ecol_max = end_gmax[start_op.output]
            ecol_mean = end_gmean[start_op.output]
            end_golden = self._golden[start_op.output]
        imgs, vars_, patches = [], [], []
        for j, (v, _fault, alive) in enumerate(survivors):
            c = int(chans[j])
            bmax, bmean = _row_stats(rows[:, j] - golden_out[:, c])
            bound = np.minimum(
                np.outer(bmax, gcol_max[:, c]),
                np.outer(bmean, gcol_mean[:, c]),
            )
            keep = alive & ~self._certified(bound, None)
            idx = np.nonzero(keep)[0]
            val = rows[idx, j]
            if idx.size and chain:
                senv = {op.output: val[:, None]}
                self._replay_steps(chain, senv, chans[j : j + 1])
                c += end_shift
                val = senv[start_op.output][:, 0]
                bmax, bmean = _row_stats(val - end_golden[idx, c])
                bound = np.minimum(
                    np.outer(bmax, ecol_max[:, c]),
                    np.outer(bmean, ecol_mean[:, c]),
                )
                still = ~self._certified(bound, idx)
                idx, val = idx[still], val[still]
            self.certified_rows += int(alive.sum() - idx.size)
            if idx.size:
                imgs.append(idx)
                vars_.append(np.full(idx.size, v, dtype=np.int64))
                patches.append((c, val))
        start_shape = self._golden[start_op.output].shape[1:]
        if not imgs:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty,
                np.empty((0,) + start_shape, np.float32),
                start_op.index,
            )
        img = np.concatenate(imgs)
        var = np.concatenate(vars_)
        start = self._golden[start_op.output][img].copy()
        offset = 0
        for c, val in patches:
            start[offset : offset + len(val), c] = val
            offset += len(val)
        return img, var, start, start_op.index

    def _seed_dense(
        self,
        op: OpSpec,
        survivors: list[tuple[int, Fault, np.ndarray]],
        gcol_max: np.ndarray,
        gcol_mean: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Full faulted op per variant (grouped/depthwise convs).

        These kernels are not row-separable, so the faulted op runs in
        full — full batch, full channels — and certification starts
        from the complete output delta.
        """
        golden_inputs = [self._golden[s] for s in op.inputs]
        golden_out = self._golden[op.output]
        imgs, vars_, parts = [], [], []
        for v, fault, alive in survivors:
            with self.injector.inject(fault):
                out = self.plan.run_op(op, golden_inputs)
            bmax, bmean = F.channel_abs_stats(out - golden_out)
            bound = np.minimum(bmax @ gcol_max.T, bmean @ gcol_mean.T)
            keep = alive & ~self._certified(bound, None)
            idx = np.nonzero(keep)[0]
            self.certified_rows += int(alive.sum() - idx.size)
            if idx.size:
                imgs.append(idx)
                vars_.append(np.full(idx.size, v, dtype=np.int64))
                parts.append(out[idx])
        if not imgs:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty,
                np.empty((0,) + golden_out.shape[1:], np.float32),
                op.index,
            )
        return (
            np.concatenate(imgs),
            np.concatenate(vars_),
            np.concatenate(parts, axis=0),
            op.index,
        )

    def _walk(
        self,
        op_index: int,
        tail: tuple[int, ...],
        img: np.ndarray,
        var: np.ndarray,
        start: np.ndarray,
        preds: np.ndarray,
    ) -> None:
        """Stacked suffix walk with per-op re-certification + compaction."""
        if img.size == 0:
            return
        env: dict[int, np.ndarray] = {self.plan.ops[op_index].output: start}
        free_after = self._tail_free_schedule(op_index)
        last = len(tail) - 1
        for pos, t_index in enumerate(tail):
            t = self.plan.ops[t_index]
            if t.batch_invariant:
                env[t.output] = self._run_stacked(t, env, img)
            else:
                env[t.output] = self._run_full_batch(t, env, img, var)
            for slot in free_after[pos]:
                env.pop(slot, None)
            # Certifying at the last op is pointless (argmax is cheaper)
            # and pruning small row counts costs more than it saves.
            if (
                pos == last
                or img.size < CERT_MIN_ROWS
                or pos % CERT_STRIDE != CERT_STRIDE - 1
            ):
                continue
            keep = self._certify_rows(t_index, env, img)
            if not keep.all():
                self.certified_rows += int((~keep).sum())
                img, var = img[keep], var[keep]
                env = {s: a[keep] for s, a in env.items()}
                if img.size == 0:
                    return
        logits = env[self.plan.output_slot]
        preds[var, img] = logits.argmax(axis=1)
        self.survivor_rows += img.size

    def _certify_rows(
        self, t_index: int, env: dict[int, np.ndarray], img: np.ndarray
    ) -> np.ndarray:
        """Keep-mask over the stacked rows after op *t_index* ran."""
        gmax, gmean = self._gammas(t_index)
        m = img.size
        bmax = np.zeros((m, self._num_classes))
        bmean = np.zeros((m, self._num_classes))
        contributed = False
        for slot, arr in env.items():
            g = gmax.get(slot)
            if g is None:
                continue  # the slot's delta can no longer reach the output
            b1, b2 = F.channel_abs_stats(arr - self._golden[slot][img])
            bmax += b1 @ g.T
            bmean += b2 @ gmean[slot].T
            contributed = True
        if not contributed:
            return np.zeros(m, dtype=bool)
        return ~self._certified(np.minimum(bmax, bmean), img)

    def _run_stacked(
        self, t: OpSpec, env: dict[int, np.ndarray], img: np.ndarray
    ) -> np.ndarray:
        """Batch-invariant op over the stacked rows, budget-blocked.

        Golden operands are gathered per row; blocking splits only the
        batch axis, which batch-invariant kernels are bit-stable under.
        """
        inputs = [
            env[s] if s in env else self._golden[s][img] for s in t.inputs
        ]
        m = img.size
        row_bytes = sum(a.nbytes for a in inputs) // max(m, 1)
        if t.kind == "conv2d":
            # The im2col workspace expands the input kh*kw-fold; size
            # the block for the materialised columns, not the input —
            # a block that overflows cache triples the per-row cost.
            kh, kw = t.module.weight.data.shape[2:]
            if kh * kw > 1:
                row_bytes *= 1 + kh * kw
        block = max(1, OP_BUDGET // max(row_bytes, 1))
        if m <= block:
            return self.plan.run_op(t, inputs)
        parts = [
            self.plan.run_op(t, [a[lo : lo + block] for a in inputs])
            for lo in range(0, m, block)
        ]
        return np.concatenate(parts, axis=0)

    def _run_full_batch(
        self,
        t: OpSpec,
        env: dict[int, np.ndarray],
        img: np.ndarray,
        var: np.ndarray,
    ) -> np.ndarray:
        """Non-batch-invariant op: one full-batch call per variant.

        The call is shaped exactly like the unbatched one (full eval
        batch), with golden rows standing in for already-certified
        images.  2-D GEMM and einsum outputs are computed row-by-row
        from their own input row only, so the gathered surviving rows
        are bit-identical to a dense pass — the stand-in values never
        enter their arithmetic.
        """
        outs = []
        for v in np.unique(var):
            sel = var == v
            idx = img[sel]
            inputs = []
            for s in t.inputs:
                if s in env:
                    full = self._golden[s].copy()
                    full[idx] = env[s][sel]
                else:
                    full = self._golden[s]
                inputs.append(full)
            out = self.plan.run_op(t, inputs)
            outs.append(out[idx])
        return np.concatenate(outs, axis=0)

    # -- exact dense tail --------------------------------------------------

    def _exact_batch(
        self,
        op_index: int,
        op: OpSpec,
        tail: tuple[int, ...],
        faults: Sequence[Fault],
    ) -> np.ndarray:
        """Certification-free pass over K faults of one layer -> (K, N).

        Row-separable fault ops carry the dirty channel sparsely up to
        the first channel-mixing op; grouped/depthwise ones recompute
        in full.  Either way the dense suffix then runs stacked.
        """
        info = self._sparse_prefix(op_index)
        if info is not None:
            return self._sparse_batch(op_index, op, tail, faults, info)
        return self._dense_fallback(op_index, op, tail, faults)

    def _sparse_prefix(self, op_index: int) -> _SparsePrefix | None:
        """Static channel-sparse plan for faults in op *op_index*.

        ``None`` when the fault op itself is not row-separable (grouped
        or depthwise convs) — those fall back to dense full-recompute
        evaluation.  The whole analysis is stated against the reference
        kernels' row-GEMM identities (and the hand-inlined numpy suffix
        kernels in :meth:`_sparse_batch`).
        """
        if op_index in self._sparse_cache:
            return self._sparse_cache[op_index]
        op = self.plan.ops[op_index]
        eligible = op.kind == "linear" or (
            op.kind == "conv2d" and op.module.groups == 1
        )
        info = None
        if eligible:
            tail = self.plan.affected_ops(op_index)
            shift = {op.output: 0}  # sparse slot -> channel shift
            steps = []
            dense_start = len(tail)
            for pos, idx in enumerate(tail):
                t = self.plan.ops[idx]
                dirty = [s for s in t.inputs if s in shift]
                if t.kind in _CHANNEL_PRESERVING and len(t.inputs) == 1:
                    shift[t.output] = shift[t.inputs[0]]
                    steps.append((t, t.kind, shift[t.output]))
                elif t.kind == "pad_channels":
                    shift[t.output] = (
                        shift[t.inputs[0]] + t.params["before"]
                    )
                    steps.append((t, "pad", shift[t.output]))
                elif t.kind == "add" and len(dirty) == 1:
                    other = next(s for s in t.inputs if s != dirty[0])
                    shift[t.output] = shift[dirty[0]]
                    steps.append(
                        (
                            t,
                            "add",
                            (
                                dirty[0],
                                other,
                                t.inputs[0] == dirty[0],
                                shift[dirty[0]],
                            ),
                        )
                    )
                else:
                    dense_start = pos
                    break
            live: dict[int, int] = {}
            for idx in tail[dense_start:]:
                for s in self.plan.ops[idx].inputs:
                    if s in shift:
                        live[s] = shift[s]
            if self.plan.output_slot in shift:
                live[self.plan.output_slot] = shift[self.plan.output_slot]
            # The seed chain: leading single-input steps, each the sole
            # consumer of the previous slot, so the stacked walk can
            # resume from the chain end without missing a reader.
            seed_len, slot = 0, op.output
            for t, _mode, _aux in steps:
                if tuple(t.inputs) != (slot,) or len(
                    self.plan.consumers(slot)
                ) != 1:
                    break
                seed_len, slot = seed_len + 1, t.output
            info = _SparsePrefix(
                steps=tuple(steps),
                seed_len=seed_len,
                dense_start=dense_start,
                mat_slots=tuple(sorted(live.items())),
            )
        self._sparse_cache[op_index] = info
        return info

    def _fault_cols(self, op: OpSpec) -> tuple[np.ndarray, int, int]:
        """Golden im2col columns of *op*'s input (single-entry cache).

        The fault op always reads its *golden* input, so the columns are
        identical for every fault in the layer — im2col once, GEMM per
        corrupted row.
        """
        cached = self._cols_cache
        if cached is not None and cached[0] == op.index:
            return cached[1], cached[2], cached[3]
        m = op.module
        x = self._golden[op.inputs[0]]
        kk = m.kernel_size
        oh = conv_output_size(x.shape[2], kk, m.stride, m.padding)
        ow = conv_output_size(x.shape[3], kk, m.stride, m.padding)
        cols = self.backend.im2col(x, kk, kk, m.stride, m.padding)
        self._cols_cache = (op.index, cols, oh, ow)
        return cols, oh, ow

    def _variant_rows(
        self, op: OpSpec, faults: Sequence[Fault]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Faulty values of each fault's dirty channel, all K in one GEMM.

        Returns ``(chans, rows)`` where ``chans[v]`` is variant *v*'s
        output channel and ``rows`` stacks the channels' faulty
        activations as ``(N, K, oh, ow)`` (conv) or ``(N, K)`` (linear).
        Each result row is bit-identical to the corresponding row of the
        full faulty op output: GEMM rows are independent, and stacked
        row GEMMs with M >= 2 reproduce the full GEMM's rows exactly (a
        single row is duplicated to M = 2 for the same reason).
        """
        m = op.module
        k = len(faults)
        weight = m.weight.data
        per_row = weight.size // weight.shape[0]
        chans = np.array([f.index // per_row for f in faults])
        rows = np.empty((max(k, 2), per_row), dtype=np.float32)
        flat = weight.reshape(weight.shape[0], per_row)
        for v, fault in enumerate(faults):
            with self.injector.inject(fault):
                rows[v] = flat[chans[v]]
        if k == 1:
            rows[1] = rows[0]
        bias = None if m.bias is None else m.bias.data
        if op.kind == "linear":
            x = self._golden[op.inputs[0]]
            out = self.backend.gemm(x, rows.T)[:, :k]
            if bias is not None:
                out = out + bias[chans]
            return chans, out
        if m.kernel_size == 1 and m.padding == 0 and m.groups == 1:
            x = self._golden[op.inputs[0]]
            if m.stride != 1:
                x = x[:, :, ::m.stride, ::m.stride]
            n, c, oh, ow = x.shape
            cols = x.reshape(n, c, oh * ow)
        else:
            cols, oh, ow = self._fault_cols(op)
        out = self.backend.gemm(rows, cols)[:, :k].reshape(-1, k, oh, ow)
        if bias is not None:
            out = out + bias[chans].reshape(1, k, 1, 1)
        return chans, out

    def _sparse_batch(
        self,
        op_index: int,
        op: OpSpec,
        tail: tuple[int, ...],
        faults: Sequence[Fault],
        info: _SparsePrefix,
    ) -> np.ndarray:
        k = len(faults)
        chans, rows = self._variant_rows(op, faults)
        senv = {op.output: rows}
        self._replay_steps(info.steps, senv, chans)
        mats = [
            {
                slot: self._materialize(slot, shift, chans[v], senv, v)
                for slot, shift in info.mat_slots
            }
            for v in range(k)
        ]
        del senv
        if info.dense_start >= len(tail):
            logits = [m[self.plan.output_slot] for m in mats]
            return np.stack([lg.argmax(axis=1) for lg in logits])
        mat_bytes = sum(a.nbytes for a in mats[0].values())
        return self._stacked_tails(
            op_index, tail, info.dense_start, mats, mat_bytes,
            slots=[slot for slot, _ in info.mat_slots],
        )

    def _replay_steps(
        self, steps: Sequence[tuple], senv: dict, chans: np.ndarray
    ) -> None:
        """Run channel-sparse prefix *steps* on dirty-channel slices.

        ``senv`` maps slots to ``(rows, K, ...)`` arrays holding only
        each variant's dirty channel (variant *v*'s channel ``chans[v]``
        before any ``pad_channels`` shift) and gains one entry per step.
        The kernels are the reference ones inlined per channel — bn's
        gathered scale/shift fma, relu clamps, pooling means, strided
        reindexing, adds against a golden operand — so every slice is
        bit-identical to slicing the full op's output.
        """
        k = len(chans)
        for t, mode, aux in steps:
            if mode == "pad":
                # Zero padding adds *other* channels; the dirty channel's
                # values pass through (its index shift is static).
                senv[t.output] = senv[t.inputs[0]]
            elif mode == "batchnorm2d":
                # Gather the K dirty channels' scale/shift: same
                # per-element fma as the full op.
                scale, offset = self._bn_affine(t)
                ch = chans + aux
                x = senv[t.inputs[0]]
                senv[t.output] = x * scale[ch].reshape(
                    1, k, 1, 1
                ) + offset[ch].reshape(1, k, 1, 1)
            elif mode == "relu":
                senv[t.output] = np.maximum(senv[t.inputs[0]], 0.0)
            elif mode == "relu6":
                senv[t.output] = np.clip(senv[t.inputs[0]], 0.0, 6.0)
            elif mode == "avg_pool2d":
                x = senv[t.inputs[0]]
                kk = t.module.kernel
                n, _, h, w = x.shape
                view = x.reshape(n, k, h // kk, kk, w // kk, kk)
                senv[t.output] = view.mean(axis=(3, 5), dtype=np.float32)
            elif mode == "global_avg_pool2d":
                senv[t.output] = senv[t.inputs[0]].mean(
                    axis=(2, 3), dtype=np.float32
                )
            elif mode == "subsample2d":
                s = t.params["stride"]
                senv[t.output] = senv[t.inputs[0]][:, :, ::s, ::s]
            else:  # add against a golden operand (order preserved: NaNs)
                dirty_slot, other_slot, dirty_first, shift = aux
                x = senv[dirty_slot]
                g = self._golden[other_slot][:, chans + shift]
                senv[t.output] = x + g if dirty_first else g + x

    def _stacked_tails(
        self,
        op_index: int,
        tail: tuple[int, ...],
        start: int,
        mats: list[dict[int, np.ndarray]],
        mat_bytes: int,
        slots: list[int],
    ) -> np.ndarray:
        """Dense tails over K variant envs, stacked in cache-sized groups.

        Stacking is bit-identical at any group size (non-invariant
        kernels are chunked per variant inside the tail either way), so
        the group size is purely a throughput knob: all K variants stack
        while the seeded activations fit :data:`DENSE_STACK_LIMIT`,
        otherwise every variant runs alone — measured faster than
        partial stacking, whose K-times-larger per-op arrays fall out of
        cache without amortising enough dispatch overhead to pay for it.
        """
        k = len(mats)
        chunk = k if k * mat_bytes <= DENSE_STACK_LIMIT else 1
        preds = []
        for s in range(0, k, chunk):
            group = mats[s : s + chunk]
            if len(group) == 1:
                preds.append(
                    self._dense_tail(op_index, tail, start, group[0], 1)
                )
            else:
                env = {
                    slot: np.concatenate([m[slot] for m in group], axis=0)
                    for slot in slots
                }
                preds.append(
                    self._dense_tail(op_index, tail, start, env, len(group))
                )
        return np.concatenate(preds, axis=0)

    def _materialize(
        self, slot: int, shift: int, chan: int, senv: dict, v: int
    ) -> np.ndarray:
        """Golden copy of *slot* with variant *v*'s dirty channel patched.

        Every other channel of the true faulty activation is bit-equal
        to golden (channel-preserving ops never mix channels), so the
        copy-and-patch reproduces the dense result exactly.
        """
        full = self._golden[slot].copy()
        full[:, chan + shift] = senv[slot][:, v]
        return full

    def _dense_fallback(
        self,
        op_index: int,
        op: OpSpec,
        tail: tuple[int, ...],
        faults: Sequence[Fault],
    ) -> np.ndarray:
        """Full-recompute fault op (grouped/depthwise) + dense tail."""
        golden_inputs = [self._golden[s] for s in op.inputs]
        variants = []
        for fault in faults:
            with self.injector.inject(fault):
                variants.append(self.plan.run_op(op, golden_inputs))
        return self._stacked_tails(
            op_index,
            tail,
            0,
            [{op.output: var} for var in variants],
            variants[0].nbytes,
            slots=[op.output],
        )

    def _dense_tail(
        self,
        op_index: int,
        tail: tuple[int, ...],
        start: int,
        env: dict[int, np.ndarray],
        k: int,
    ) -> np.ndarray:
        """Run tail ops from *start* on seeded dirty slots -> (k, N) preds.

        ``k == 1`` replays the plain per-variant pass; ``k > 1`` runs the
        K variants stacked along the batch axis, chunking per variant
        for kernels that are not bit-stable under batch stacking.
        """
        n = len(self.images)
        free_after = self._tail_free_schedule(op_index)
        if k == 1:
            for pos in range(start, len(tail)):
                top = self.plan.ops[tail[pos]]
                inputs = [
                    env[s] if s in env else self._golden[s]
                    for s in top.inputs
                ]
                env[top.output] = self.plan.run_op(top, inputs)
                del inputs
                for slot in free_after[pos]:
                    env.pop(slot, None)
            logits = env[self.plan.output_slot]
            return logits.argmax(axis=1)[None, :]
        for pos in range(start, len(tail)):
            top = self.plan.ops[tail[pos]]
            if not top.batch_invariant:
                # Not bit-stable under batch stacking: run once per
                # variant so every call is shaped exactly like the
                # unbatched one.
                chunks = []
                for v in range(k):
                    inputs = [
                        env[s][v * n : (v + 1) * n]
                        if s in env
                        else self._golden[s]
                        for s in top.inputs
                    ]
                    chunks.append(self.plan.run_op(top, inputs))
                env[top.output] = np.concatenate(chunks, axis=0)
            elif top.kind == "add" and any(
                s not in env for s in top.inputs
            ):
                # One operand is still golden.  Tiling it K times just
                # to add would copy a full activation set; broadcasting
                # over a (k, n, ...) view adds the exact same element
                # pairs in the same order, so the result is bitwise
                # identical without the copy.  Operand order preserved.
                a_slot, b_slot = top.inputs
                if a_slot in env:
                    a = env[a_slot]
                    out = (
                        a.reshape(k, n, *a.shape[1:])
                        + self._golden[b_slot][None]
                    )
                else:
                    b = env[b_slot]
                    out = self._golden[a_slot][None] + b.reshape(
                        k, n, *b.shape[1:]
                    )
                env[top.output] = out.reshape(k * n, *out.shape[2:])
            else:
                inputs = [env[s] for s in top.inputs]
                env[top.output] = self.plan.run_op(top, inputs)
                del inputs
            for slot in free_after[pos]:
                env.pop(slot, None)
        logits = env[self.plan.output_slot]
        return logits.reshape(k, n, -1).argmax(axis=2)




def create_engine(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    kind: str = "plan",
    fmt: FloatFormat = FLOAT32,
    policy: str = "accuracy_drop",
    threshold: float = 0.0,
    telemetry: Telemetry | None = None,
    batch_size: int | None = None,
) -> FaultInjectionEngine:
    """Build a fault-classification engine of the requested *kind*.

    ``kind="plan"`` (default) returns the :class:`PlanEngine`;
    ``kind="module"`` the stage-granular
    :class:`repro.faults.InferenceEngine`, kept as the conformance
    oracle and for queues recorded under it.  Both produce
    bit-identical outcomes.
    """
    if kind == "plan":
        return PlanEngine(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
            batch_size=DEFAULT_BATCH_SIZE if batch_size is None else batch_size,
        )
    if kind == "module":
        if batch_size not in (None, 1):
            raise ValueError("the module engine evaluates faults one at a time")
        return InferenceEngine(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
        )
    raise ValueError(
        f"unknown engine kind {kind!r} (expected 'plan' or 'module')"
    )
