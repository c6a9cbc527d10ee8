"""The numpy reference kernels: "how to compute" behind the plan IR.

An :class:`~repro.runtime.plan.ExecutionPlan` records *what* to compute
(ops over buffer slots); :class:`NumpyBackend` supplies *how* — one
kernel per op kind, plus the ``gemm``/``im2col`` primitives the engines
call directly.  Every kernel here *is* the :mod:`repro.nn.functional`
routine that the module engine's ``forward_fast`` executes (same
function objects, same argument order), so a plan replayed through this
class is bitwise identical to the module tree by construction.

Because the paper's statistical-FI methodology depends on knowing when
outcomes are bit-identical, the class *declares* two per-op traits, and
the op_db conformance suite (:mod:`repro.check.opdb`) empirically
attacks both declarations (subclasses that lie about them are the
suite's mutation tests):

- **tolerance class** — ``"bitexact"`` (bitwise equal to the reference
  kernel) or ``"relative"`` (floating-point close, not bitwise);
- **batch-invariance class** — ``"always"`` (bit-stable under stacking
  variants along the batch axis), ``"never"`` (evaluated per variant),
  or ``"kernel"`` (resolved per op from the
  :data:`~repro.check.kernels.KERNEL_TABLE` dispatch predicate, as the
  convolution paths require).

:meth:`NumpyBackend.attestation` serialises these traits with the
numpy version.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.nn import functional as F
from repro.tensor.im2col import im2col as _im2col

if TYPE_CHECKING:
    from repro.runtime.plan import OpSpec

#: Op kinds the kernel class dispatches (the kernel-table kinds).
BACKEND_OP_KINDS = (
    "conv2d",
    "batchnorm2d",
    "linear",
    "relu",
    "relu6",
    "avg_pool2d",
    "global_avg_pool2d",
    "flatten",
    "add",
    "subsample2d",
    "pad_channels",
)

#: Array-level primitives the engines call outside plan dispatch.
BACKEND_PRIMITIVES = ("gemm", "im2col")


class NumpyBackend:
    """Reference kernels: direct delegation to ``repro.nn.functional``.

    The op-level runners unpack an :class:`~repro.runtime.plan.OpSpec`'s
    module and params and call the array-level kernels, so a subclass
    overriding one array-level kernel changes it for plan execution too.
    """

    name = "numpy"
    version = np.__version__
    # Tolerance is declared vs the reference — trivially bitexact here.
    OP_TOLERANCE: dict[str, str] = dict.fromkeys(
        (*BACKEND_OP_KINDS, *BACKEND_PRIMITIVES), "bitexact"
    )
    # Elementwise ops, pooling reductions and the 3-D matmul convolution
    # paths are bit-stable under batch stacking; the 2-D GEMM behind
    # F.linear and the einsum depthwise/grouped convolution paths are
    # not (BLAS blocking / contraction strategy change with the batch
    # extent).  Convolutions dispatch per op shape, so they defer to the
    # KERNEL_TABLE predicate.
    OP_INVARIANCE: dict[str, str] = {
        "conv2d": "kernel",
        "batchnorm2d": "always",
        "linear": "never",
        "relu": "always",
        "relu6": "always",
        "avg_pool2d": "always",
        "global_avg_pool2d": "always",
        "flatten": "always",
        "add": "always",
        "subsample2d": "always",
        "pad_channels": "always",
        "gemm": "never",
        "im2col": "always",
    }

    def __init__(self) -> None:
        missing = [
            kind
            for kind in (*BACKEND_OP_KINDS, *BACKEND_PRIMITIVES)
            if kind not in self.OP_TOLERANCE or kind not in self.OP_INVARIANCE
        ]
        if missing:
            raise TypeError(
                f"backend {self.name!r} declares no tolerance/invariance "
                f"for op kind(s) {missing}"
            )
        self._dispatch = {
            "conv2d": self._run_conv2d,
            "batchnorm2d": self._run_batchnorm2d,
            "linear": self._run_linear,
            "relu": self._run_relu,
            "relu6": self._run_relu6,
            "avg_pool2d": self._run_avg_pool2d,
            "global_avg_pool2d": self._run_global_avg_pool2d,
            "flatten": self._run_flatten,
            "add": self._run_add,
            "subsample2d": self._run_subsample2d,
            "pad_channels": self._run_pad_channels,
        }

    # -- op-level dispatch -------------------------------------------------

    def run_op(self, op: OpSpec, inputs: Sequence[np.ndarray]) -> np.ndarray:
        """Execute one plan op on concrete input arrays."""
        return self._dispatch[op.kind](op, *inputs)

    def op_kinds(self) -> frozenset:
        """Op kinds this class can dispatch."""
        return frozenset(self._dispatch)

    def _run_conv2d(self, op, x):
        m = op.module
        return self.conv2d(
            x,
            m.weight.data,
            None if m.bias is None else m.bias.data,
            stride=m.stride,
            padding=m.padding,
            groups=m.groups,
        )

    def _run_batchnorm2d(self, op, x):
        m = op.module
        return self.batchnorm2d(
            x, m.weight.data, m.bias.data, m.running_mean, m.running_var,
            eps=m.eps,
        )

    def _run_linear(self, op, x):
        m = op.module
        return self.linear(
            x, m.weight.data, None if m.bias is None else m.bias.data
        )

    def _run_relu(self, op, x):
        return self.relu(x)

    def _run_relu6(self, op, x):
        return self.relu6(x)

    def _run_avg_pool2d(self, op, x):
        return self.avg_pool2d(x, op.module.kernel)

    def _run_global_avg_pool2d(self, op, x):
        return self.global_avg_pool2d(x)

    def _run_flatten(self, op, x):
        return self.flatten(x)

    def _run_add(self, op, a, b):
        return self.add(a, b)

    def _run_subsample2d(self, op, x):
        return self.subsample2d(x, op.params["stride"])

    def _run_pad_channels(self, op, x):
        return self.pad_channels(x, op.params["before"], op.params["after"])

    # -- array-level kernels -----------------------------------------------

    def conv2d(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None = None,
        *,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
    ) -> np.ndarray:
        return F.conv2d(
            x, weight, bias, stride=stride, padding=padding, groups=groups
        )

    def batchnorm2d(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        running_mean: np.ndarray,
        running_var: np.ndarray,
        *,
        eps: float = 1e-5,
    ) -> np.ndarray:
        return F.batchnorm2d(x, gamma, beta, running_mean, running_var, eps=eps)

    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
    ) -> np.ndarray:
        return F.linear(x, weight, bias)

    def relu(self, x: np.ndarray) -> np.ndarray:
        return F.relu(x)

    def relu6(self, x: np.ndarray) -> np.ndarray:
        return F.relu6(x)

    def avg_pool2d(self, x: np.ndarray, kernel: int) -> np.ndarray:
        return F.avg_pool2d(x, kernel)

    def global_avg_pool2d(self, x: np.ndarray) -> np.ndarray:
        return F.global_avg_pool2d(x)

    def flatten(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def subsample2d(self, x: np.ndarray, stride: int) -> np.ndarray:
        return F.subsample2d(x, stride)

    def pad_channels(self, x: np.ndarray, before: int, after: int) -> np.ndarray:
        return F.pad_channels(x, before, after)

    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product ``a @ b`` (batched when either operand is 3-D)."""
        return a @ b

    def im2col(
        self, x: np.ndarray, kh: int, kw: int, stride: int, padding: int
    ) -> np.ndarray:
        return _im2col(x, kh, kw, stride, padding)

    # -- declared traits ---------------------------------------------------

    def batch_invariant(self, op: OpSpec) -> bool:
        """Whether the kernel for *op* is declared batch-invariant.

        ``"kernel"``-class kinds resolve through the central
        :data:`~repro.check.kernels.KERNEL_TABLE` predicate (the single
        source of truth for the convolution dispatch rules).
        """
        invariance = self.OP_INVARIANCE[op.kind]
        if invariance == "always":
            return True
        if invariance == "never":
            return False
        # Lazy import: repro.check reasons about the runtime stack and
        # must stay importable without this module being loaded first.
        from repro.check.kernels import KERNEL_TABLE

        return bool(KERNEL_TABLE[op.kind].batch_invariant(op))

    def tolerance(self, kind: str) -> str:
        """Declared tolerance class vs the reference kernels for *kind*."""
        return self.OP_TOLERANCE[kind]

    def attestation(self) -> dict:
        """Deterministic identity record: name, version, per-op traits."""
        return {
            "name": self.name,
            "version": self.version,
            "ops": {
                kind: {
                    "invariance": self.OP_INVARIANCE[kind],
                    "tolerance": self.OP_TOLERANCE[kind],
                }
                for kind in sorted(self.OP_INVARIANCE)
            },
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.version}>"
