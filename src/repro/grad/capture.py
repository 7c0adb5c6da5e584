"""Shape-specialized step capture & replay for :mod:`repro.grad`.

Every local SGD step traces an identical ``Tensor`` closure graph: the
same ops in the same order over the same shapes, differing only in the
batch contents and the parameter values.  This module records that trace
once — into a :class:`CapturedStep` — and *replays* it on later steps
against a preallocated buffer arena, skipping per-step Python closure
construction, graph bookkeeping, and most ``np.zeros``/``astype(copy=True)``
allocations.

Bitwise safety
--------------
Replay is bitwise-identical to eager execution because every replay
kernel runs the *same NumPy calls on arrays of the same memory layout*:

* forward output buffers are ``np.empty_like`` copies of the eager
  outputs (layout-preserving), filled with the same ufunc/``matmul``/
  reduction calls via ``out=``;
* composite kernels (conv, pooling, cross-entropy) lazily warm their
  scratch buffers on the first replay by evaluating the literal eager
  expression, then reuse those buffers with ``out=`` — so reductions see
  the same strides and produce the same pairwise-summation bits;
* gradient accumulation mirrors :meth:`Tensor._accumulate`: the first
  write per step copies (or ``np.copyto``-refreshes) the freshly
  computed value, later writes use ``+=`` in the same order as the eager
  reverse-topological pass, which is replicated verbatim at compile
  time.

Program optimizer
-----------------
Between compile and first replay an optimizer pass (on by default)
plans the buffer arena: liveness analysis plus interval-graph coloring
lets compile-time output buffers share storage once their last reader
has run, backward ops whose gradients never reach a trainable
parameter are dropped, and identical small constants are interned
across programs.  Optimized programs run the same kernels in the same
order on identically-laid-out buffers, so replay stays bitwise
identical; ``optimize=False`` reproduces the unplanned programs
exactly.

Fallback
--------
Capture is best-effort.  Ops without a capture kernel (``abs``, ``clip``,
``max``, indexing, ...), dropout (fresh mask per step), or a batch shape
other than the first one seen simply invalidate the tape and the step
runs eagerly — correctness never depends on capture succeeding.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.grad import functional as F
from repro.grad import tensor as tensor_mod
from repro.grad.nn.module import Parameter
from repro.grad.tensor import Tensor, _swap_last, _unbroadcast


class CaptureError(RuntimeError):
    """Raised at compile time when a tape cannot be turned into a program."""


class _OpRecord:
    __slots__ = ("kind", "out", "parents", "meta")

    def __init__(self, kind, out, parents, meta):
        self.kind = kind
        self.out = out
        self.parents = parents
        self.meta = meta


class Tape:
    """Passive recording of one eager forward pass.

    Installed via :func:`repro.grad.tensor._set_tape`; every op appends a
    record (creation order == a valid topological order).  Any op without
    a capture kernel invalidates the whole tape.
    """

    __slots__ = ("entries", "buffer_leaves", "failed")

    def __init__(self):
        self.entries: list = []
        self.buffer_leaves: list = []
        self.failed: str | None = None

    def record(self, kind, out, parents, meta) -> None:
        if self.failed is not None:
            return
        if kind is None:
            self.failed = "op without a capture kernel"
            return
        self.entries.append(("op", _OpRecord(kind, out, parents, meta)))

    def record_bn_update(self, module, mean, var, count) -> None:
        """Batch-norm running-stat side effect (replayed per step)."""
        if self.failed is None:
            self.entries.append(("bn", (module, mean, var, count)))

    def register_buffer_leaf(self, tensor, module, name, shape) -> None:
        """A leaf that must be re-read from ``module`` on every replay."""
        if self.failed is None:
            self.buffer_leaves.append((tensor, module, name, tuple(shape)))

    def invalidate(self, reason: str) -> None:
        if self.failed is None:
            self.failed = reason


class _Cell:
    """Lazily-warmed scratch buffer for one backward product."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None


def _binout(cell: _Cell, fn, x, y):
    """``fn(x, y)`` into a reused buffer; first call allocates eagerly."""
    if cell.value is None:
        cell.value = fn(x, y)
    else:
        fn(x, y, out=cell.value)
    return cell.value


def _unout(cell: _Cell, fn, x):
    if cell.value is None:
        cell.value = fn(x)
    else:
        fn(x, out=cell.value)
    return cell.value


_BINARY_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}
_UNARY_UFUNCS = {
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
}


# ----------------------------------------------------------------------
# Program optimizer: liveness rules, arena planner, constant interning
# ----------------------------------------------------------------------
class _OpRule:
    """Planner contract for one op kind.

    ``may_alias`` asserts the forward kernel never reads any input
    element after writing the corresponding output element, so the
    planner may overlay ``out`` onto an input buffer whose last reader
    is this very op (an exact same-shape/dtype in-place write).
    ``bwd_reads`` lists which arena buffers the backward kernel still
    needs at backward time: ``"in"`` = the parent slots, ``"out"`` = the
    op's own output slot.  ``view`` marks ops whose output is a view of
    the input's storage rather than a buffer of its own.
    """

    __slots__ = ("may_alias", "bwd_reads", "view")

    def __init__(self, *, may_alias, bwd_reads=(), view=False):
        self.may_alias = may_alias
        self.bwd_reads = bwd_reads
        self.view = view


# One liveness rule per op kind the compilers handle; tools/lint.py
# enforces that this table and the kernel tables never drift apart.
OP_RULES = {
    "add": _OpRule(may_alias=True, bwd_reads=()),
    "sub": _OpRule(may_alias=True, bwd_reads=()),
    "mul": _OpRule(may_alias=True, bwd_reads=("in",)),
    "div": _OpRule(may_alias=True, bwd_reads=("in",)),
    "neg": _OpRule(may_alias=True, bwd_reads=()),
    "exp": _OpRule(may_alias=True, bwd_reads=("out",)),
    "log": _OpRule(may_alias=True, bwd_reads=("in",)),
    "sqrt": _OpRule(may_alias=True, bwd_reads=("out",)),
    "tanh": _OpRule(may_alias=True, bwd_reads=("out",)),
    "sigmoid": _OpRule(may_alias=True, bwd_reads=("out",)),
    "relu": _OpRule(may_alias=True, bwd_reads=("in",)),
    "pow": _OpRule(may_alias=False, bwd_reads=("in",)),
    "sum": _OpRule(may_alias=False, bwd_reads=()),
    "reshape": _OpRule(may_alias=False, bwd_reads=(), view=True),
    "transpose": _OpRule(may_alias=False, bwd_reads=(), view=True),
    "matmul": _OpRule(may_alias=False, bwd_reads=("in",)),
    "conv2d": _OpRule(may_alias=False, bwd_reads=("in",)),
    "max_pool2d": _OpRule(may_alias=False, bwd_reads=()),
    "avg_pool2d": _OpRule(may_alias=False, bwd_reads=()),
    "cross_entropy": _OpRule(may_alias=False, bwd_reads=()),
}

# Kinds whose forward kernel allocates its output buffer at compile time
# (the only allocations the planner can color).  Composites bind views of
# private scratch, ``pow`` rebinds per step, views alias their input.
_PLANNED_KINDS = frozenset(
    set(_BINARY_UFUNCS)
    | set(_UNARY_UFUNCS)
    | {"sigmoid", "sum", "matmul", "relu"}
)


class ArenaPlanStats:
    """What the program optimizer did to one compiled program."""

    __slots__ = (
        "peak_bytes",
        "unplanned_bytes",
        "slots_before",
        "slots_after",
        "ops_eliminated",
        "constants_interned",
    )

    def __init__(
        self,
        *,
        peak_bytes,
        unplanned_bytes,
        slots_before,
        slots_after,
        ops_eliminated,
        constants_interned,
    ):
        self.peak_bytes = peak_bytes
        self.unplanned_bytes = unplanned_bytes
        self.slots_before = slots_before
        self.slots_after = slots_after
        self.ops_eliminated = ops_eliminated
        self.constants_interned = constants_interned

    @property
    def reduction(self) -> float:
        """Fraction of colorable arena bytes removed by slot sharing."""
        if not self.unplanned_bytes:
            return 0.0
        return 1.0 - self.peak_bytes / self.unplanned_bytes

    def to_dict(self) -> dict:
        return {
            "peak_bytes": int(self.peak_bytes),
            "unplanned_bytes": int(self.unplanned_bytes),
            "reduction": round(self.reduction, 4),
            "slots_before": int(self.slots_before),
            "slots_after": int(self.slots_after),
            "ops_eliminated": int(self.ops_eliminated),
            "constants_interned": int(self.constants_interned),
        }


def _dense_layout(template: np.ndarray):
    """``template``'s strides when it covers its buffer densely, else None.

    ``np.empty_like`` reproduces permuted-contiguous layouts (e.g. the
    NCHW view of a conv output); such a buffer occupies exactly
    ``nbytes`` of gapless memory, so a carved block can be re-strided to
    an identical layout.  Anything with gaps or negative strides stays
    on a dedicated buffer.
    """
    if template.flags["C_CONTIGUOUS"]:
        return None  # plain reshape covers it
    expected = template.itemsize
    for axis in sorted(range(template.ndim), key=lambda i: template.strides[i]):
        if template.shape[axis] == 1:
            continue
        if template.shape[axis] == 0 or template.strides[axis] != expected:
            return False
        expected *= template.shape[axis]
    return template.strides


class _Alloc:
    """One colorable buffer request with its live interval [birth, last].

    ``strides`` is None for a C-contiguous request, or the exact dense
    strides the carved view must reproduce.
    """

    __slots__ = (
        "shape",
        "dtype",
        "strides",
        "nbytes",
        "birth",
        "last",
        "may_alias",
        "buffer",
    )

    def __init__(self, shape, dtype, strides, birth, may_alias):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.strides = None if strides is None else tuple(strides)
        self.nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        self.birth = birth
        self.last = birth
        self.may_alias = may_alias
        self.buffer = None


class _ArenaPlanner:
    """Interval-graph slot coloring over one program's buffer requests.

    Liveness events are collected in program order (forward ops, then
    the scheduled backward ops, then the final read of the program
    output); :meth:`plan` then packs every request into the smallest set
    of byte blocks such that no two requests with overlapping live
    ranges share a block.  A request may land on a block whose current
    tenant dies exactly at the request's birth step only when the
    producing kernel declared ``may_alias`` and the overlay is an exact
    same-shape/dtype in-place write — any other overlap would let a
    kernel scribble over bytes a later reader still needs.
    """

    __slots__ = ("allocs", "blocks", "planned", "_by_slot", "_by_key", "_roots")

    def __init__(self):
        self.allocs: list[_Alloc] = []
        self.blocks: list[dict] = []
        self.planned = False
        self._by_slot: dict[int, _Alloc] = {}
        self._by_key: dict[int, _Alloc] = {}
        self._roots: dict[int, int] = {}

    def _root(self, slot: int) -> int:
        while slot in self._roots:
            slot = self._roots[slot]
        return slot

    def define(self, slot, shape, dtype, step, may_alias, strides=None) -> None:
        alloc = _Alloc(shape, dtype, strides, step, may_alias)
        self.allocs.append(alloc)
        self._by_slot[slot] = alloc

    def define_keyed(self, key, shape, dtype, step, may_alias) -> None:
        """A request not bound to a slot (e.g. a relu backward mask)."""
        alloc = _Alloc(shape, dtype, None, step, may_alias)
        self.allocs.append(alloc)
        self._by_key[key] = alloc

    def view(self, slot, of_slot) -> None:
        """Reads of ``slot`` are reads of ``of_slot``'s storage."""
        self._roots[slot] = of_slot

    def alias(self, slot, of_slot, step) -> None:
        """``slot`` is written into ``of_slot``'s storage at ``step``."""
        self._roots[slot] = of_slot
        alloc = self._by_slot.get(self._root(of_slot))
        if alloc is not None and step > alloc.last:
            alloc.last = step

    def read(self, slot, step) -> None:
        alloc = self._by_slot.get(self._root(slot))
        if alloc is not None and step > alloc.last:
            alloc.last = step

    def plan(self) -> None:
        # Requests were appended in program order, so a single pass sees
        # each one after all earlier births; best fit by capacity keeps
        # the big activation blocks available for later reuse.
        blocks: list[dict] = []
        for alloc in self.allocs:
            best = None
            for block in blocks:
                if block["size"] < alloc.nbytes:
                    continue
                top = block["top"]
                free = block["last"] < alloc.birth or (
                    alloc.may_alias
                    and block["last"] == alloc.birth
                    and top.last == alloc.birth
                    and top.shape == alloc.shape
                    and top.dtype == alloc.dtype
                    and top.strides == alloc.strides
                )
                if free and (best is None or block["size"] < best["size"]):
                    best = block
            if best is None:
                blocks.append(
                    {
                        "size": alloc.nbytes,
                        "last": alloc.last,
                        "top": alloc,
                        "tenants": [alloc],
                    }
                )
            else:
                best["last"] = max(best["last"], alloc.last)
                best["top"] = alloc
                best["tenants"].append(alloc)
        for block in blocks:
            # All tenants carve from offset 0 of one aligned byte block:
            # the views have exactly the shape/strides/dtype a dedicated
            # ``np.empty``/``np.empty_like`` would have, so kernels
            # cannot tell the difference.
            base = np.empty((block["size"],), dtype=np.uint8)
            block["base"] = base
            for tenant in block["tenants"]:
                flat = base[: tenant.nbytes].view(tenant.dtype)
                if tenant.strides is None:
                    tenant.buffer = flat.reshape(tenant.shape)
                else:
                    tenant.buffer = as_strided(
                        flat, shape=tenant.shape, strides=tenant.strides
                    )
        self.blocks = blocks
        self.planned = True

    def buffer(self, slot) -> np.ndarray | None:
        alloc = self._by_slot.get(slot)
        return None if alloc is None else alloc.buffer

    def keyed_buffer(self, key) -> np.ndarray | None:
        alloc = self._by_key.get(key)
        return None if alloc is None else alloc.buffer

    @property
    def dedicated_bytes(self) -> int:
        return sum(alloc.nbytes for alloc in self.allocs)

    @property
    def planned_bytes(self) -> int:
        return sum(block["size"] for block in self.blocks)


_CONSTANT_POOL: dict[tuple, np.ndarray] = {}
_CONSTANT_POOL_MAX_NBYTES = 4096


def _intern_constant(value: np.ndarray) -> tuple[np.ndarray, bool]:
    """A shared read-only snapshot of ``value`` (small constants only).

    Captured programs never write constant slots, so identical eps/scale
    arrays can back every program that needs them; the write lock turns
    any future violation of that invariant into a loud error instead of
    silent cross-program corruption.  Returns ``(array, was_shared)``.
    """
    arr = np.array(value, copy=True)
    if arr.nbytes > _CONSTANT_POOL_MAX_NBYTES:
        return arr, False
    key = (arr.dtype.str, arr.shape, arr.tobytes())
    cached = _CONSTANT_POOL.get(key)
    if cached is not None:
        return cached, True
    arr.setflags(write=False)
    _CONSTANT_POOL[key] = arr
    return arr, False


class CapturedStep:
    """A compiled (forward [+ backward]) program over a buffer arena."""

    __slots__ = (
        "arena",
        "forward_ops",
        "backward_ops",
        "param_refresh",
        "buffer_refresh",
        "param_binds",
        "input_slot",
        "labels_slot",
        "out_slot",
        "gbufs",
        "gseen",
        "gseen_false",
        "seed",
        "acc",
        "stats",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)

    def replay_forward(self, features: np.ndarray) -> np.ndarray:
        arena = self.arena
        if self.input_slot is not None:
            arena[self.input_slot] = features
        # Parameters/buffers are rebound by the optimizer and state loads,
        # so their slots are refreshed from the live objects every replay.
        for slot, param in self.param_refresh:
            arena[slot] = param.data
        for slot, module, name, shape in self.buffer_refresh:
            arena[slot] = getattr(module, name).reshape(shape)
        for op in self.forward_ops:
            op()
        return arena[self.out_slot]

    def replay_step(self, features: np.ndarray, labels: np.ndarray) -> float:
        if self.labels_slot is not None:
            self.arena[self.labels_slot] = labels
        out = self.replay_forward(features)
        loss = float(np.asarray(out).item())
        self.gseen[:] = self.gseen_false
        self.acc(self.out_slot, self.seed)
        for op in self.backward_ops:
            op()
        gbufs = self.gbufs
        for param, slot in self.param_binds:
            param.grad = gbufs[slot]
        return loss


class _Compiler:
    """Turns a :class:`Tape` into a :class:`CapturedStep`."""

    def __init__(
        self,
        tape: Tape,
        input_tensor: Tensor,
        output: Tensor,
        labels,
        optimize: bool = True,
    ):
        self.tape = tape
        self.input_tensor = input_tensor
        self.output = output
        self.labels = labels
        self.optimize = optimize
        self._planner: _ArenaPlanner | None = None
        self._eliminated = 0
        self._interned = 0
        self._raw_slots = 0
        self._raw_bytes = 0
        self.slots: dict[int, int] = {}
        self.arena: list = []
        self.shapes: list = []
        self.dtypes: list = []
        self.gbufs: list = []
        self.param_refresh: list = []
        self.buffer_refresh: list = []
        self.param_binds: list = []
        self.input_slot: int | None = None
        self.labels_slot: int | None = None
        self._composite_bwd: dict[int, object] = {}
        self._buffer_leaf_map = {
            id(t): (module, name, shape)
            for t, module, name, shape in tape.buffer_leaves
        }
        self._records = [rec for kind, rec in tape.entries if kind == "op"]
        self._outs = {id(rec.out) for rec in self._records}
        self._recmap = {id(rec.out): rec for rec in self._records}
        consumers: dict[int, int] = {}
        for rec in self._records:
            for parent in rec.parents:
                key = id(parent)
                consumers[key] = consumers.get(key, 0) + 1
        self._consumers = consumers
        self.acc = self._make_acc()

    # -- slots ----------------------------------------------------------
    def _new_slot(self, shape, dtype) -> int:
        slot = len(self.arena)
        self.arena.append(None)
        self.shapes.append(shape)
        self.dtypes.append(dtype)
        self.gbufs.append(None)
        return slot

    def slot(self, t: Tensor) -> int:
        return self.slots[id(t)]

    def _ensure_slot(self, t: Tensor, is_out: bool) -> int:
        existing = self.slots.get(id(t))
        if existing is not None:
            return existing
        slot = self._new_slot(t.data.shape, t.data.dtype)
        self.slots[id(t)] = slot
        if not is_out:
            self._classify_leaf(t, slot)
        return slot

    def _classify_leaf(self, t: Tensor, slot: int) -> None:
        if isinstance(t, Parameter):
            self.param_refresh.append((slot, t))
            self.param_binds.append((t, slot))
        elif t is self.input_tensor:
            self.input_slot = slot
        elif id(t) in self._buffer_leaf_map:
            module, name, shape = self._buffer_leaf_map[id(t)]
            self.buffer_refresh.append((slot, module, name, shape))
        else:
            # Constant (coerced scalar, eps, 1/count, ...): snapshot once.
            if self.optimize:
                value, shared = _intern_constant(t.data)
                self._interned += 1 if shared else 0
                self.arena[slot] = value
            else:
                self.arena[slot] = np.array(t.data, copy=True)

    def _make_acc(self):
        shapes, dtypes, gbufs = self.shapes, self.dtypes, self.gbufs
        # Plain-list flags: scalar indexing is measurably cheaper than on
        # an ndarray in this per-gradient hot path.  Sized at compile end.
        seen: list = []

        def acc(slot, value, fresh=False):
            if value.shape != shapes[slot]:
                value = _unbroadcast(np.asarray(value), shapes[slot])
            if seen[slot]:
                gbufs[slot] += value
            else:
                # ``fresh`` marks values the kernel owns outright (a private
                # cell or a per-step allocation, never a view of another
                # slot's gradient): those are bound directly, skipping a
                # full copy pass — same arithmetic, one less memory sweep.
                # Later ``+=`` hits mutate the cell, which the owning kernel
                # fully rewrites on its next execution anyway.
                if (
                    fresh
                    and value.dtype == dtypes[slot]
                    and value.flags.writeable
                ):
                    gbufs[slot] = value
                else:
                    buf = gbufs[slot]
                    if buf is None:
                        gbufs[slot] = value.astype(dtypes[slot], copy=True)
                    else:
                        np.copyto(buf, value)
                seen[slot] = True

        self._acc_seen = seen
        return acc

    # -- compile --------------------------------------------------------
    def compile(self, with_backward: bool) -> CapturedStep:
        if self.labels is not None:
            self.labels_slot = self._new_slot(self.labels.shape, self.labels.dtype)

        # Slot assignment precedes kernel construction so the planner can
        # see the whole program (including the backward schedule) before
        # any kernel closes over a concrete buffer.
        for kind, entry in self.tape.entries:
            if kind == "op":
                for parent in entry.parents:
                    self._ensure_slot(parent, is_out=False)
                self._ensure_slot(entry.out, is_out=True)

        if id(self.output) not in self.slots:
            raise CaptureError("model output is not an op of the tape")

        sched: list = []
        seed = None
        if with_backward:
            if not self.output.requires_grad:
                raise CaptureError("output does not require grad")
            if self.output.data.size != 1:
                raise CaptureError("backward capture needs a scalar loss")
            seed = np.ones_like(self.output.data)
            sched = self._schedule_backward()

        if self.optimize:
            self._plan_arena(sched)

        forward_ops: list = []
        for kind, entry in self.tape.entries:
            if kind == "op":
                forward_ops.append(self._forward_op(entry))
            else:
                forward_ops.append(self._bn_op(entry))

        backward_ops: list = []
        for rec in sched:
            kernel = self._backward_op(rec)
            if kernel is not None:
                backward_ops.append(kernel)

        self._acc_seen.extend([False] * len(self.arena))
        gseen = self._acc_seen
        return CapturedStep(
            arena=self.arena,
            forward_ops=forward_ops,
            backward_ops=backward_ops,
            param_refresh=self.param_refresh,
            buffer_refresh=self.buffer_refresh,
            param_binds=self.param_binds,
            input_slot=self.input_slot,
            labels_slot=self.labels_slot,
            out_slot=self.slot(self.output),
            gbufs=self.gbufs,
            gseen=gseen,
            gseen_false=[False] * len(self.arena),
            seed=seed,
            acc=self.acc,
            stats=self._plan_stats(),
        )

    # -- optimizer passes ------------------------------------------------
    def _schedule_backward(self) -> list:
        """The backward records in execution order, minus dead ops.

        The order replicates the eager reverse-topological pass exactly;
        with the optimizer on, ops whose gradients never transitively
        reach a trainable Parameter (input-gradient chains, probes
        through constants) are dropped before any buffer is planned.
        Dropping them is bitwise-safe: the live/dead split is closed
        under consumption — every consumer of a live node is itself live
        — so no surviving accumulation loses a contributor.
        """
        matters = self._grad_consumers() if self.optimize else None
        sched: list = []
        for node in reversed(self._toposort()):
            if node._backward is None:
                continue
            rec = self._recmap.get(id(node))
            if rec is None:
                raise CaptureError("graph node missing from the tape")
            if matters is not None and not matters.get(id(rec.out), False):
                self._eliminated += 1
                continue
            sched.append(rec)
        return sched

    def _grad_consumers(self) -> dict[int, bool]:
        """``id(out) -> does this op's gradient reach a trainable param``.

        Computed in forward topological order: an op's gradient matters
        iff some parent both requires grad and either is a trainable
        Parameter or is an earlier op whose gradient matters.  Gradients
        of non-parameter leaves are never surfaced by a replay, so
        chains that only feed them are dead weight.
        """
        matters: dict[int, bool] = {}
        for rec in self._records:
            m = False
            for p in rec.parents:
                if not p.requires_grad:
                    continue
                if id(p) in self._outs:
                    if matters.get(id(p)):
                        m = True
                        break
                elif isinstance(p, Parameter):
                    m = True
                    break
            matters[id(rec.out)] = m
        return matters

    def _plan_arena(self, sched: list) -> None:
        """Collect liveness events in program order and color the arena."""
        planner = _ArenaPlanner()
        step = 0
        for kind, entry in self.tape.entries:
            if kind == "op":
                rec = entry
                for p in rec.parents:
                    planner.read(self.slot(p), step)
                o = self.slot(rec.out)
                rule = OP_RULES.get(rec.kind)
                if rule is not None and rule.view:
                    planner.view(o, self.slot(rec.parents[0]))
                elif self._peephole_src(rec) is not None:
                    planner.alias(o, self.slot(rec.parents[0]), step)
                else:
                    spec = self._managed_spec(rec)
                    if spec is not None and rule is not None:
                        shape, dtype, strides = spec
                        planner.define(
                            o, shape, dtype, step, rule.may_alias, strides=strides
                        )
            else:
                _, mean_t, var_t, _ = entry
                sm = self.slots.get(id(mean_t))
                sv = self.slots.get(id(var_t))
                if sm is not None:
                    planner.read(sm, step)
                if sv is not None:
                    planner.read(sv, step)
            step += 1
        for rec in sched:
            rule = OP_RULES.get(rec.kind)
            reads = rule.bwd_reads if rule is not None else ("in", "out")
            if "out" in reads:
                planner.read(self.slot(rec.out), step)
            if "in" in reads:
                for p in rec.parents:
                    planner.read(self.slot(p), step)
            if rec.kind == "relu":
                # The bool mask lives only inside the backward kernel.
                planner.define_keyed(
                    id(rec), self._mask_shape(rec), bool, step, may_alias=False
                )
            step += 1
        # The program output is handed to the caller after replay (the
        # loss read, inference logits, stacked per-client losses), so its
        # storage must survive the whole program.
        planner.read(self.slot(self.output), step)
        planner.plan()
        self._planner = planner

    def _peephole_src(self, rec: _OpRecord):
        """The matmul record whose buffer a bias-add overwrites, or None.

        Decided on static facts only (record kinds, consumer counts,
        eager shapes), so the planner and the kernel builder always
        agree on whether the peephole fires.
        """
        if rec.kind != "add":
            return None
        src_rec = self._recmap.get(id(rec.parents[0]))
        if (
            src_rec is not None
            and src_rec.kind == "matmul"
            and self._consumers.get(id(rec.parents[0])) == 1
            and rec.parents[0] is not self.output
            and src_rec.out.data.shape == rec.out.data.shape
            and src_rec.out.data.dtype == rec.out.data.dtype
        ):
            return src_rec
        return None

    def _managed_spec(self, rec: _OpRecord):
        """(shape, dtype, strides) of a colorable output buffer, or None.

        The carved block view must be byte-for-byte the layout a
        dedicated ``np.empty_like`` would produce: C-contiguous outputs
        reshape straight out of the block (strides None), dense permuted
        layouts (e.g. the NCHW view of a conv output flowing through
        relu) are re-strided to the probed ``np.empty_like`` strides,
        and anything non-dense stays unmanaged.
        """
        if rec.kind not in _PLANNED_KINDS:
            return None
        out = rec.out.data
        if out.flags["C_CONTIGUOUS"]:
            return out.shape, out.dtype, None
        strides = _dense_layout(np.empty_like(out))
        if strides is False:
            return None
        return out.shape, out.dtype, strides

    def _mask_shape(self, rec: _OpRecord) -> tuple:
        return rec.parents[0].data.shape

    def _fresh_buf(self, rec: _OpRecord) -> np.ndarray:
        return np.empty_like(rec.out.data)

    def _out_buf(self, rec: _OpRecord) -> np.ndarray:
        planner = self._planner
        if planner is not None:
            buf = planner.buffer(self.slot(rec.out))
            if buf is not None:
                return buf
        buf = self._fresh_buf(rec)
        if planner is None and self._managed_spec(rec) is not None:
            self._raw_slots += 1
            self._raw_bytes += buf.nbytes
        return buf

    def _mask_buf(self, rec: _OpRecord) -> np.ndarray:
        planner = self._planner
        if planner is not None:
            buf = planner.keyed_buffer(id(rec))
            if buf is not None:
                return buf
        mask = np.empty(self._mask_shape(rec), dtype=bool)
        if planner is None:
            self._raw_slots += 1
            self._raw_bytes += mask.nbytes
        return mask

    def _plan_stats(self) -> ArenaPlanStats:
        planner = self._planner
        if planner is None:
            return ArenaPlanStats(
                peak_bytes=self._raw_bytes,
                unplanned_bytes=self._raw_bytes,
                slots_before=self._raw_slots,
                slots_after=self._raw_slots,
                ops_eliminated=0,
                constants_interned=self._interned,
            )
        return ArenaPlanStats(
            peak_bytes=planner.planned_bytes,
            unplanned_bytes=planner.dedicated_bytes,
            slots_before=len(planner.allocs),
            slots_after=len(planner.blocks),
            ops_eliminated=self._eliminated,
            constants_interned=self._interned,
        )

    def _toposort(self) -> list[Tensor]:
        # Replicates Tensor.backward's DFS exactly, so the replayed
        # accumulation order matches the eager one bit for bit.
        ordered: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self.output, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                ordered.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return ordered

    # -- forward kernels ------------------------------------------------
    def _forward_op(self, rec: _OpRecord):
        kind = rec.kind
        arena = self.arena
        o = self.slot(rec.out)
        srcs = [self.slot(p) for p in rec.parents]

        if kind in _BINARY_UFUNCS:
            fn = _BINARY_UFUNCS[kind]
            a, b = srcs
            buf = None
            if kind == "add" and self._peephole_src(rec) is not None:
                # Bias-add peephole: when the left operand is a matmul
                # whose only reader is this add, the sum is written back
                # into the matmul's buffer (the cachelines are still hot,
                # and no backward kernel reads the pre-add values).  The
                # matmul kernel was built earlier in program order, so
                # its buffer is already bound.
                buf = arena[a]
            if buf is None:
                buf = self._out_buf(rec)
            arena[o] = buf

            def run():
                fn(arena[a], arena[b], out=buf)

            return run

        if kind in _UNARY_UFUNCS:
            fn = _UNARY_UFUNCS[kind]
            buf = self._out_buf(rec)
            arena[o] = buf
            (a,) = srcs

            def run():
                fn(arena[a], out=buf)

            return run

        if kind == "relu":
            return self._relu(rec)

        if kind == "sigmoid":
            buf = self._out_buf(rec)
            arena[o] = buf
            (a,) = srcs
            st: dict = {}

            def run():
                xv = arena[a]
                t = st.get("t")
                if t is None:
                    t = np.exp(-xv)
                    st["t"] = t
                else:
                    np.negative(xv, out=t)
                    np.exp(t, out=t)
                np.add(1.0, t, out=t)
                np.divide(1.0, t, out=buf)

            return run

        if kind == "pow":
            exponent = rec.meta["exponent"]
            (a,) = srcs

            def run():
                # `x ** e` has ufunc fast paths `np.power` lacks; rerun
                # the literal expression so the bits can never differ.
                arena[o] = arena[a] ** exponent

            return run

        if kind == "sum":
            axis = rec.meta["axis"]
            keepdims = rec.meta["keepdims"]
            buf = self._out_buf(rec)
            arena[o] = buf
            (a,) = srcs

            def run():
                arena[a].sum(axis=axis, keepdims=keepdims, out=buf)

            return run

        if kind == "reshape":
            shape = rec.meta["shape"]
            (a,) = srcs

            def run():
                arena[o] = arena[a].reshape(shape)

            return run

        if kind == "transpose":
            axes = rec.meta["axes"]
            (a,) = srcs

            def run():
                arena[o] = arena[a].transpose(axes)

            return run

        if kind == "matmul":
            buf = self._out_buf(rec)
            arena[o] = buf
            a, b = srcs

            def run():
                np.matmul(arena[a], arena[b], out=buf)

            return run

        if kind == "conv2d":
            return self._conv2d(rec)
        if kind == "max_pool2d":
            return self._max_pool2d(rec)
        if kind == "avg_pool2d":
            return self._avg_pool2d(rec)
        if kind == "cross_entropy":
            return self._cross_entropy(rec)

        raise CaptureError(f"no forward kernel for op kind {kind!r}")

    def _bn_op(self, entry):
        module, mean_t, var_t, count = entry
        if id(mean_t) not in self.slots or id(var_t) not in self.slots:
            raise CaptureError("batch-norm stats missing from the tape")
        sm = self.slot(mean_t)
        sv = self.slot(var_t)
        arena = self.arena

        def run():
            m = module.momentum
            mean_arr = arena[sm]
            var_arr = arena[sv]
            unbiased = var_arr * (count / max(count - 1, 1))
            module._set_buffer(
                "running_mean",
                (1 - m) * module.running_mean + m * mean_arr.reshape(-1),
            )
            module._set_buffer(
                "running_var",
                (1 - m) * module.running_var + m * unbiased.reshape(-1),
            )
            module._set_buffer(
                "num_batches_tracked",
                np.asarray(int(module.num_batches_tracked) + 1),
            )

        return run

    # -- composite kernels ----------------------------------------------
    def _register_bwd(self, rec, bwd, grad_needed: bool):
        self._composite_bwd[id(rec)] = bwd if grad_needed else None

    def _relu(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        x_t = rec.parents[0]
        a = self.slot(x_t)
        o = self.slot(rec.out)
        buf = self._out_buf(rec)
        arena[o] = buf
        mask = self._mask_buf(rec)
        cell = _Cell()

        def fwd():
            # Bit-identical to np.where(x > 0, x, 0.0): for x <= 0 both
            # pick the +0.0 operand, and positives pass through untouched.
            np.maximum(arena[a], 0.0, out=buf)

        def bwd():
            # The input buffer is still intact at backward time, so the
            # mask is derived here and skipped entirely in inference runs.
            np.greater(arena[a], 0, out=mask)
            acc(a, _binout(cell, np.multiply, gbufs[o], mask), fresh=True)

        self._register_bwd(rec, bwd, x_t.requires_grad)
        return fwd

    def _conv2d(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        meta = rec.meta
        n, c, h, w = meta["image_shape"]
        _, oc, oh, ow = meta["out_shape"]
        kernel, stride, padding = meta["kernel"], meta["stride"], meta["padding"]
        has_bias = meta["has_bias"]
        x_t, w_t = rec.parents[0], rec.parents[1]
        b_t = rec.parents[2] if has_bias else None
        sx, sw = self.slot(x_t), self.slot(w_t)
        sb = self.slot(b_t) if has_bias else None
        o = self.slot(rec.out)
        weight_shape = w_t.data.shape
        st: dict = {}
        gw_cell, gc_cell = _Cell(), _Cell()

        def fwd():
            x = arena[sx]
            flat_weight = arena[sw].reshape(oc, -1)
            img = x
            if padding > 0:
                padded = st.get("padded")
                if padded is None:
                    padded = np.zeros(
                        (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
                    )
                    st["padded"] = padded
                padded[:, :, padding : padding + h, padding : padding + w] = x
                img = padded
            strides = img.strides
            windows = as_strided(
                img,
                shape=(n, c, oh, ow, kernel, kernel),
                strides=(
                    strides[0],
                    strides[1],
                    strides[2] * stride,
                    strides[3] * stride,
                    strides[2],
                    strides[3],
                ),
                writeable=False,
            )
            cols6 = st.get("cols6")
            if cols6 is None:
                cols6 = np.empty((n, oh, ow, c, kernel, kernel), dtype=x.dtype)
                st["cols6"] = cols6
                st["cols2"] = cols6.reshape(n * oh * ow, c * kernel * kernel)
            np.copyto(cols6, windows.transpose(0, 2, 3, 1, 4, 5))
            cols2 = st["cols2"]
            mm = st.get("mm")
            if mm is None:
                mm = cols2 @ flat_weight.T
                st["mm"] = mm
            else:
                np.matmul(cols2, flat_weight.T, out=mm)
            out_flat = mm
            if has_bias:
                bout = st.get("bout")
                if bout is None:
                    bout = out_flat + arena[sb]
                    st["bout"] = bout
                else:
                    np.add(out_flat, arena[sb], out=bout)
                out_flat = bout
            arena[o] = out_flat.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)

        x_req = x_t.requires_grad
        w_req = w_t.requires_grad
        b_req = has_bias and b_t.requires_grad

        def col2im_replay(gc):
            # Same slice-add sequence as F.col2im, but the columns are first
            # rearranged into a (k, k, n, c, oh, ow)-contiguous scratch so
            # each of the k*k adds streams over contiguous memory instead of
            # stride-k*k gathers.  Contribution order per output element is
            # unchanged, so the result is bit-identical.
            gcT = st.get("gcT")
            if gcT is None:
                gcT = np.empty((kernel, kernel, n, c, oh, ow), dtype=gc.dtype)
                st["gcT"] = gcT
                st["gpad"] = np.zeros(
                    (n, c, h + 2 * padding, w + 2 * padding), dtype=gc.dtype
                )
            np.copyto(
                gcT,
                gc.reshape(n, oh, ow, c, kernel, kernel).transpose(
                    4, 5, 0, 3, 1, 2
                ),
            )
            gpad = st["gpad"]
            gpad.fill(0.0)
            for ki in range(kernel):
                h_stop = ki + stride * oh
                for kj in range(kernel):
                    w_stop = kj + stride * ow
                    gpad[:, :, ki:h_stop:stride, kj:w_stop:stride] += gcT[ki, kj]
            if padding > 0:
                return gpad[:, :, padding:-padding, padding:-padding]
            return gpad

        def bwd():
            g = gbufs[o]
            grad_flat = g.transpose(0, 2, 3, 1).reshape(-1, oc)
            cols2 = st["cols2"]
            flat_weight = arena[sw].reshape(oc, -1)
            if w_req:
                gw = _binout(gw_cell, np.matmul, grad_flat.T, cols2)
                acc(sw, gw.reshape(weight_shape), fresh=True)
            if b_req:
                acc(sb, grad_flat.sum(axis=0), fresh=True)
            if x_req:
                gc = _binout(gc_cell, np.matmul, grad_flat, flat_weight)
                acc(sx, col2im_replay(gc), fresh=True)

        self._register_bwd(rec, bwd, x_req or w_req or b_req)
        return fwd

    def _max_pool2d(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        meta = rec.meta
        kernel, stride = meta["kernel"], meta["stride"]
        n, c, h, w = meta["image_shape"]
        _, _, oh, ow = meta["out_shape"]
        nc = n * c
        x_t = rec.parents[0]
        sx = self.slot(x_t)
        o = self.slot(rec.out)
        window = kernel * kernel
        count = nc * oh * ow
        rows = np.arange(count)
        # Flat base of each patch row, and a static map from column-flat
        # index to image-flat index (both depend only on the geometry).
        flat_base = rows * window
        ki, kj = np.divmod(np.arange(window), kernel)
        b, rem = np.divmod(rows, oh * ow)
        a_h, a_w = np.divmod(rem, ow)
        col_to_img = (
            b[:, None] * (h * w)
            + (a_h[:, None] * stride + ki[None, :]) * w
            + (a_w[:, None] * stride + kj[None, :])
        ).ravel()
        nonoverlap = stride >= kernel
        st: dict = {}

        def fwd():
            as_batch = arena[sx].reshape(nc, 1, h, w)
            strides = as_batch.strides
            windows = as_strided(
                as_batch,
                shape=(nc, 1, oh, ow, kernel, kernel),
                strides=(
                    strides[0],
                    strides[1],
                    strides[2] * stride,
                    strides[3] * stride,
                    strides[2],
                    strides[3],
                ),
                writeable=False,
            )
            cols6 = st.get("cols6")
            if cols6 is None:
                cols6 = np.empty((nc, oh, ow, 1, kernel, kernel), dtype=as_batch.dtype)
                st["cols6"] = cols6
                st["cols2"] = cols6.reshape(count, window)
                st["arg"] = np.empty(count, dtype=np.intp)
                st["idx"] = np.empty(count, dtype=np.intp)
                st["out"] = np.empty((n, c, oh, ow), dtype=as_batch.dtype)
            np.copyto(cols6, windows.transpose(0, 2, 3, 1, 4, 5))
            cols2 = st["cols2"]
            arg = np.argmax(cols2, axis=1, out=st["arg"])
            # Single flat take instead of a two-array fancy gather.
            idx = np.add(flat_base, arg, out=st["idx"])
            out = st["out"]
            np.take(cols2.reshape(-1), idx, out=out.reshape(-1))
            arena[o] = out

        def bwd():
            g = gbufs[o]
            if nonoverlap:
                # Windows are disjoint, so col2im's scatter-add places each
                # gradient exactly once: route it straight into the image.
                # The explicit `+ 0.0` mirrors the `0.0 + v` of the add,
                # which flushes a -0.0 gradient to +0.0.
                gimg = st.get("gimg")
                if gimg is None:
                    gimg = np.empty(nc * h * w, dtype=g.dtype)
                    st["gimg"] = gimg
                    st["imgidx"] = np.empty(count, dtype=np.intp)
                    st["gtmp"] = np.empty(count, dtype=g.dtype)
                gimg.fill(0.0)
                imgidx = np.take(col_to_img, st["idx"], out=st["imgidx"])
                gtmp = np.add(g.reshape(-1), 0.0, out=st["gtmp"])
                gimg[imgidx] = gtmp
                acc(sx, gimg.reshape(n, c, h, w), fresh=True)
                return
            cols2 = st["cols2"]
            gc = st.get("gc")
            if gc is None:
                gc = np.zeros_like(cols2)
                st["gc"] = gc
            else:
                gc.fill(0.0)
            gc[rows, st["arg"]] = g.reshape(-1)
            grad_images = F.col2im(gc, (nc, 1, h, w), kernel, stride, 0)
            acc(sx, grad_images.reshape(n, c, h, w), fresh=True)

        self._register_bwd(rec, bwd, x_t.requires_grad)
        return fwd

    def _avg_pool2d(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        meta = rec.meta
        kernel, stride = meta["kernel"], meta["stride"]
        n, c, h, w = meta["image_shape"]
        _, _, oh, ow = meta["out_shape"]
        nc = n * c
        window = kernel * kernel
        x_t = rec.parents[0]
        sx = self.slot(x_t)
        o = self.slot(rec.out)
        st: dict = {}

        def fwd():
            as_batch = arena[sx].reshape(nc, 1, h, w)
            strides = as_batch.strides
            windows = as_strided(
                as_batch,
                shape=(nc, 1, oh, ow, kernel, kernel),
                strides=(
                    strides[0],
                    strides[1],
                    strides[2] * stride,
                    strides[3] * stride,
                    strides[2],
                    strides[3],
                ),
                writeable=False,
            )
            cols6 = st.get("cols6")
            if cols6 is None:
                cols6 = np.empty((nc, oh, ow, 1, kernel, kernel), dtype=as_batch.dtype)
                st["cols6"] = cols6
                st["cols2"] = cols6.reshape(nc * oh * ow, window)
            np.copyto(cols6, windows.transpose(0, 2, 3, 1, 4, 5))
            cols2 = st["cols2"]
            mean = st.get("mean")
            if mean is None:
                mean = cols2.mean(axis=1)
                st["mean"] = mean
            else:
                cols2.mean(axis=1, out=mean)
            arena[o] = mean.reshape(n, c, oh, ow)

        def bwd():
            g = gbufs[o]
            grad_cols = np.repeat(g.reshape(-1, 1), window, axis=1) / window
            grad_images = F.col2im(grad_cols, (nc, 1, h, w), kernel, stride, 0)
            acc(sx, grad_images.reshape(n, c, h, w), fresh=True)

        self._register_bwd(rec, bwd, x_t.requires_grad)
        return fwd

    def _cross_entropy(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        reduction = rec.meta["reduction"]
        targets = rec.meta["targets"]
        if self.labels is None or targets is not self.labels:
            raise CaptureError("cross_entropy targets are not the step labels")
        logits_t = rec.parents[0]
        n = logits_t.data.shape[0]
        sl = self.slot(logits_t)
        lt = self.labels_slot
        o = self.slot(rec.out)
        rows = np.arange(n)
        st: dict = {}
        gl_cell = _Cell()

        def fwd():
            logits = arena[sl]
            tgt = arena[lt]
            if "max" not in st:
                st["max"] = logits.max(axis=1, keepdims=True)
                st["shifted"] = logits - st["max"]
                st["exp"] = np.exp(st["shifted"])
                st["sumexp"] = st["exp"].sum(axis=1, keepdims=True)
                st["ln"] = np.log(st["sumexp"][:, 0])
                losses = st["ln"] - st["shifted"][rows, tgt]
                st["losses"] = losses
            else:
                logits.max(axis=1, keepdims=True, out=st["max"])
                np.subtract(logits, st["max"], out=st["shifted"])
                np.exp(st["shifted"], out=st["exp"])
                st["exp"].sum(axis=1, keepdims=True, out=st["sumexp"])
                np.log(st["sumexp"][:, 0], out=st["ln"])
                np.subtract(st["ln"], st["shifted"][rows, tgt], out=st["losses"])
                losses = st["losses"]
            if reduction == "none":
                arena[o] = losses
            elif reduction == "sum":
                arena[o] = losses.sum()
            else:
                arena[o] = losses.mean()

        def bwd():
            g = gbufs[o]
            tgt = arena[lt]
            if reduction == "none":
                scale = np.asarray(g).reshape(n, 1)
            elif reduction == "mean":
                scale = np.asarray(g) / n
            else:
                scale = np.asarray(g)
            # exp is rewritten by the next forward replay, so the in-place
            # softmax matches the eager closure exactly.
            softmax = np.divide(st["exp"], st["sumexp"], out=st["exp"])
            gl = _binout(gl_cell, np.multiply, softmax, scale)
            if reduction == "none":
                gl[rows, tgt] -= scale[:, 0]
            else:
                gl[rows, tgt] -= scale
            acc(sl, gl, fresh=True)

        self._register_bwd(rec, bwd, logits_t.requires_grad)
        return fwd

    # -- backward kernels ------------------------------------------------
    def _backward_op(self, rec: _OpRecord):
        if id(rec) in self._composite_bwd:
            return self._composite_bwd[id(rec)]
        kind = rec.kind
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        o = self.slot(rec.out)
        srcs = [self.slot(p) for p in rec.parents]
        reqs = [p.requires_grad for p in rec.parents]

        if kind == "add":
            a, b = srcs
            ra, rb = reqs

            def run():
                g = gbufs[o]
                if ra:
                    acc(a, g)
                if rb:
                    acc(b, g)

            return run

        if kind == "neg":
            (a,) = srcs
            cell = _Cell()

            def run():
                acc(a, _unout(cell, np.negative, gbufs[o]), fresh=True)

            return run

        if kind == "sub":
            a, b = srcs
            ra, rb = reqs
            cell = _Cell()

            def run():
                g = gbufs[o]
                if ra:
                    acc(a, g)
                if rb:
                    acc(b, _unout(cell, np.negative, g), fresh=True)

            return run

        if kind == "mul":
            a, b = srcs
            ra, rb = reqs
            cell_a, cell_b = _Cell(), _Cell()

            def run():
                g = gbufs[o]
                if ra:
                    acc(a, _binout(cell_a, np.multiply, g, arena[b]), fresh=True)
                if rb:
                    acc(b, _binout(cell_b, np.multiply, g, arena[a]), fresh=True)

            return run

        if kind == "div":
            a, b = srcs
            ra, rb = reqs
            cell = _Cell()

            def run():
                g = gbufs[o]
                if ra:
                    acc(a, _binout(cell, np.divide, g, arena[b]), fresh=True)
                if rb:
                    acc(b, -g * arena[a] / (arena[b] ** 2), fresh=True)

            return run

        if kind == "pow":
            exponent = rec.meta["exponent"]
            (a,) = srcs

            def run():
                acc(a, gbufs[o] * exponent * arena[a] ** (exponent - 1), fresh=True)

            return run

        if kind == "exp":
            (a,) = srcs
            cell = _Cell()

            def run():
                acc(a, _binout(cell, np.multiply, gbufs[o], arena[o]), fresh=True)

            return run

        if kind == "log":
            (a,) = srcs
            cell = _Cell()

            def run():
                acc(a, _binout(cell, np.divide, gbufs[o], arena[a]), fresh=True)

            return run

        if kind == "sqrt":
            (a,) = srcs

            def run():
                acc(a, gbufs[o] / (2.0 * arena[o]), fresh=True)

            return run

        if kind == "tanh":
            (a,) = srcs

            def run():
                acc(a, gbufs[o] * (1.0 - arena[o] ** 2), fresh=True)

            return run

        if kind == "sigmoid":
            (a,) = srcs

            def run():
                out = arena[o]
                acc(a, gbufs[o] * out * (1.0 - out), fresh=True)

            return run

        if kind == "sum":
            axis = rec.meta["axis"]
            keepdims = rec.meta["keepdims"]
            in_shape = rec.parents[0].data.shape
            (a,) = srcs

            def run():
                g = gbufs[o]
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                acc(a, np.broadcast_to(g, in_shape))

            return run

        if kind == "reshape":
            in_shape = rec.parents[0].data.shape
            (a,) = srcs

            def run():
                acc(a, gbufs[o].reshape(in_shape))

            return run

        if kind == "transpose":
            inverse = np.argsort(rec.meta["axes"])
            (a,) = srcs

            def run():
                acc(a, gbufs[o].transpose(inverse))

            return run

        if kind == "matmul":
            a, b = srcs
            ra, rb = reqs
            a_nd = rec.parents[0].data.ndim
            b_nd = rec.parents[1].data.ndim
            cell_a, cell_b = _Cell(), _Cell()

            def run():
                g = gbufs[o]
                if ra:
                    if b_nd == 1:
                        acc(
                            a,
                            np.outer(g, arena[b]) if g.ndim else g * arena[b],
                            fresh=True,
                        )
                    else:
                        acc(
                            a,
                            _binout(cell_a, np.matmul, g, _swap_last(arena[b])),
                            fresh=True,
                        )
                if rb:
                    if a_nd == 1:
                        acc(
                            b,
                            np.outer(arena[a], g) if g.ndim else g * arena[a],
                            fresh=True,
                        )
                    else:
                        acc(
                            b,
                            _binout(cell_b, np.matmul, _swap_last(arena[a]), g),
                            fresh=True,
                        )

            return run

        raise CaptureError(f"no backward kernel for op kind {kind!r}")


# ----------------------------------------------------------------------
# Stacked-client replay
# ----------------------------------------------------------------------
def _stacked_unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` to the stacked target ``shape`` = (K,) + base.

    The client axis is *leading*, so broadcast dimensions live between it
    and the base shape; this mirrors :func:`repro.grad.tensor._unbroadcast`
    with every reduction shifted one axis right, which keeps the per-slice
    summation pattern identical to the eager single-client pass.
    """
    if grad.shape == shape:
        return grad
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(1, 1 + extra_dims)))
    stretched = tuple(
        axis
        for axis in range(1, len(shape))
        if shape[axis] == 1 and grad.shape[axis] != 1
    )
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


_STACKED_EXACT: bool | None = None


def stacked_matmul_is_exact() -> bool:
    """Whether this host's batched 3-D matmul is bitwise per-slice exact.

    The stacked kernels turn every 2-D GEMM into one slice of a 3-D
    batched GEMM.  Most BLAS builds dispatch each batch slice to the same
    2-D kernel (exact); some reassociate the reduction for small shapes.
    This probes the actual library once with the three matmul layouts the
    replay uses (forward, dX, dW) so tests and the drift check can pick
    bitwise or tolerance assertions to match reality.
    """
    global _STACKED_EXACT
    if _STACKED_EXACT is None:
        rng = np.random.default_rng(0xC11E27)
        exact = True
        for m, n, p in ((32, 784, 64), (32, 64, 10), (64, 400, 120)):
            x = rng.standard_normal((4, m, n)).astype(np.float32)
            w = rng.standard_normal((4, p, n)).astype(np.float32)
            fwd = x @ w.transpose(0, 2, 1)
            gw = fwd.transpose(0, 2, 1) @ x
            gx = fwd @ w
            for k in range(4):
                exact = (
                    exact
                    and np.array_equal(fwd[k], x[k] @ w[k].T)
                    and np.array_equal(gw[k], fwd[k].T @ x[k])
                    and np.array_equal(gx[k], fwd[k] @ w[k])
                )
        _STACKED_EXACT = bool(exact)
    return _STACKED_EXACT


class StackedStep:
    """A compiled training step batched over a leading client axis.

    Every stacked slot holds a ``(K,) + base`` array.  Parameters live in
    arena buffers *owned by the program*: the caller copies each client's
    weights in (:meth:`param_stack`), an optimizer mutates them in place
    between steps, and the trained values are read back out of the same
    buffers — rebinding them would break the compiled views.
    """

    __slots__ = (
        "arena",
        "forward_ops",
        "backward_ops",
        "param_slots",
        "input_slot",
        "labels_slot",
        "out_slot",
        "gbufs",
        "gseen",
        "gseen_false",
        "seed",
        "acc",
        "stack",
        "stats",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)

    @property
    def features(self) -> np.ndarray:
        """The ``(K, batch, ...)`` input buffer; fill one row per client."""
        return self.arena[self.input_slot]

    @property
    def labels(self) -> np.ndarray:
        """The ``(K, batch)`` target buffer; fill one row per client."""
        return self.arena[self.labels_slot]

    def param_stack(self, index: int) -> np.ndarray | None:
        """The ``(K,) + shape`` buffer of parameter ``index`` (in
        ``model.parameters()`` order), or None when the traced step never
        touched that parameter."""
        slot = self.param_slots[index]
        return None if slot is None else self.arena[slot]

    def step(self) -> np.ndarray:
        """One batched SGD step's forward+backward; returns (K,) losses.

        Gradients are left in :meth:`grads`; the returned array is an
        arena buffer overwritten by the next call.
        """
        for op in self.forward_ops:
            op()
        self.gseen[:] = self.gseen_false
        self.acc(self.out_slot, self.seed)
        for op in self.backward_ops:
            op()
        return self.arena[self.out_slot]

    def grads(self) -> list:
        """Per-parameter ``(K,) + shape`` gradients, aligned with
        ``model.parameters()``; None entries received no gradient."""
        gbufs = self.gbufs
        return [
            None if slot is None else gbufs[slot] for slot in self.param_slots
        ]


class _StackedCompiler(_Compiler):
    """Compiles a tape into a :class:`StackedStep` over K clients.

    Slot layout: op outputs, parameters, the input batch and the labels
    become ``(K,) + base`` buffers; non-parameter constants stay unstacked
    and broadcast (NumPy's right-alignment handles them untouched).  A
    stacked operand whose base rank is *below* the output's base rank
    must be viewed as ``(K, 1, ..., base)`` before any broadcasting op —
    naive right-alignment would smear the client axis across a data
    dimension — which is what :meth:`_reader` provides.
    """

    def __init__(
        self, tape, input_tensor, output, labels, stack, params, optimize=True
    ):
        self.stack = stack
        self._stacked: set[int] = set()
        self._param_index = {id(p): i for i, p in enumerate(params)}
        self.param_slots: list[int | None] = [None] * len(params)
        super().__init__(tape, input_tensor, output, labels, optimize=optimize)

    # -- slots ----------------------------------------------------------
    def _ensure_slot(self, t: Tensor, is_out: bool) -> int:
        existing = self.slots.get(id(t))
        if existing is not None:
            return existing
        stack = self.stack
        base_shape = t.data.shape
        dtype = t.data.dtype
        if is_out:
            slot = self._new_slot((stack,) + base_shape, dtype)
            self.slots[id(t)] = slot
            self._stacked.add(slot)
            return slot
        if isinstance(t, Parameter):
            index = self._param_index.get(id(t))
            if index is None:
                raise CaptureError(
                    "traced parameter is not in the model's parameter list"
                )
            slot = self._new_slot((stack,) + base_shape, dtype)
            self.slots[id(t)] = slot
            self._stacked.add(slot)
            self.arena[slot] = np.empty((stack,) + base_shape, dtype)
            self.param_slots[index] = slot
            return slot
        if t is self.input_tensor:
            slot = self._new_slot((stack,) + base_shape, dtype)
            self.slots[id(t)] = slot
            self._stacked.add(slot)
            self.arena[slot] = np.empty((stack,) + base_shape, dtype)
            self.input_slot = slot
            return slot
        if id(t) in self._buffer_leaf_map:
            raise CaptureError(
                "stacked replay does not support module buffers (batch norm)"
            )
        if t.requires_grad:
            raise CaptureError(
                "stacked replay cannot bind a gradient-bearing non-parameter leaf"
            )
        # Constant (coerced scalar, eps, ...): shared by all clients.
        slot = self._new_slot(base_shape, dtype)
        self.slots[id(t)] = slot
        if self.optimize:
            value, shared = _intern_constant(t.data)
            self._interned += 1 if shared else 0
            self.arena[slot] = value
        else:
            self.arena[slot] = np.array(t.data, copy=True)
        return slot

    def _make_acc(self):
        shapes, dtypes, gbufs = self.shapes, self.dtypes, self.gbufs
        seen: list = []

        def acc(slot, value, fresh=False):
            if value.shape != shapes[slot]:
                value = _stacked_unbroadcast(np.asarray(value), shapes[slot])
            if seen[slot]:
                gbufs[slot] += value
            else:
                if (
                    fresh
                    and value.dtype == dtypes[slot]
                    and value.flags.writeable
                ):
                    gbufs[slot] = value
                else:
                    buf = gbufs[slot]
                    if buf is None:
                        gbufs[slot] = value.astype(dtypes[slot], copy=True)
                    else:
                        np.copyto(buf, value)
                seen[slot] = True

        self._acc_seen = seen
        return acc

    def _reader(self, t: Tensor, out_base_ndim: int):
        """A zero-arg closure yielding ``t``'s buffer, viewed so its
        base dims align right against a stacked output of that rank."""
        slot = self.slot(t)
        arena = self.arena
        if slot not in self._stacked:
            return lambda: arena[slot]
        base = self.shapes[slot][1:]
        if len(base) >= out_base_ndim:
            return lambda: arena[slot]
        view_shape = (
            (self.stack,) + (1,) * (out_base_ndim - len(base)) + base
        )
        return lambda: arena[slot].reshape(view_shape)

    # -- optimizer hooks -------------------------------------------------
    def _managed_spec(self, rec: _OpRecord):
        # Stacked compile-time buffers are always freshly-built
        # C-contiguous ``(K,) + base`` arrays, so every planned kind is
        # colorable regardless of the eager trace's layout.
        if rec.kind not in _PLANNED_KINDS:
            return None
        return (self.stack,) + rec.out.data.shape, rec.out.data.dtype, None

    def _mask_shape(self, rec: _OpRecord) -> tuple:
        return (self.stack,) + rec.parents[0].data.shape

    def _fresh_buf(self, rec: _OpRecord) -> np.ndarray:
        return np.empty((self.stack,) + rec.out.data.shape, rec.out.data.dtype)

    # -- compile --------------------------------------------------------
    def compile_stacked(self) -> StackedStep:
        stack = self.stack
        self.labels_slot = self._new_slot(
            (stack,) + self.labels.shape, self.labels.dtype
        )
        self.arena[self.labels_slot] = np.empty(
            (stack,) + self.labels.shape, self.labels.dtype
        )
        self._stacked.add(self.labels_slot)

        for kind, entry in self.tape.entries:
            if kind != "op":
                raise CaptureError(
                    "stacked replay does not support batch-norm updates"
                )
            for parent in entry.parents:
                self._ensure_slot(parent, is_out=False)
            self._ensure_slot(entry.out, is_out=True)

        if id(self.output) not in self.slots:
            raise CaptureError("model output is not an op of the tape")
        if not self.output.requires_grad:
            raise CaptureError("output does not require grad")
        if self.output.data.size != 1:
            raise CaptureError("backward capture needs a scalar loss")
        if self.input_slot is None:
            raise CaptureError("model output does not depend on the input batch")
        seed = np.ones(
            (stack,) + self.output.data.shape, dtype=self.output.data.dtype
        )

        sched = self._schedule_backward()
        if self.optimize:
            self._plan_arena(sched)

        forward_ops: list = []
        for kind, entry in self.tape.entries:
            forward_ops.append(self._forward_op(entry))

        backward_ops: list = []
        for rec in sched:
            kernel = self._backward_op(rec)
            if kernel is not None:
                backward_ops.append(kernel)

        self._acc_seen.extend([False] * len(self.arena))
        return StackedStep(
            arena=self.arena,
            forward_ops=forward_ops,
            backward_ops=backward_ops,
            param_slots=self.param_slots,
            input_slot=self.input_slot,
            labels_slot=self.labels_slot,
            out_slot=self.slot(self.output),
            gbufs=self.gbufs,
            gseen=self._acc_seen,
            gseen_false=[False] * len(self.arena),
            seed=seed,
            acc=self.acc,
            stack=stack,
            stats=self._plan_stats(),
        )

    # -- forward kernels ------------------------------------------------
    def _forward_op(self, rec: _OpRecord):
        kind = rec.kind
        arena = self.arena
        stack = self.stack
        o = self.slot(rec.out)
        srcs = [self.slot(p) for p in rec.parents]
        out_base = rec.out.data.shape

        if kind in _BINARY_UFUNCS:
            fn = _BINARY_UFUNCS[kind]
            a, b = srcs
            ra = self._reader(rec.parents[0], len(out_base))
            rb = self._reader(rec.parents[1], len(out_base))
            buf = None
            if kind == "add" and self._peephole_src(rec) is not None:
                # Same bias-add peephole as the serial compiler, against
                # the stacked matmul buffer.
                buf = arena[a]
            if buf is None:
                buf = self._out_buf(rec)
            arena[o] = buf

            def run():
                fn(ra(), rb(), out=buf)

            return run

        if kind in _UNARY_UFUNCS:
            fn = _UNARY_UFUNCS[kind]
            buf = self._out_buf(rec)
            arena[o] = buf
            (a,) = srcs

            def run():
                fn(arena[a], out=buf)

            return run

        if kind == "relu":
            return self._relu(rec)

        if kind == "sigmoid":
            buf = self._out_buf(rec)
            arena[o] = buf
            (a,) = srcs
            st: dict = {}

            def run():
                xv = arena[a]
                t = st.get("t")
                if t is None:
                    t = np.exp(-xv)
                    st["t"] = t
                else:
                    np.negative(xv, out=t)
                    np.exp(t, out=t)
                np.add(1.0, t, out=t)
                np.divide(1.0, t, out=buf)

            return run

        if kind == "pow":
            exponent = rec.meta["exponent"]
            (a,) = srcs

            def run():
                arena[o] = arena[a] ** exponent

            return run

        if kind == "sum":
            axis = rec.meta["axis"]
            keepdims = rec.meta["keepdims"]
            (a,) = srcs
            buf = self._out_buf(rec)
            arena[o] = buf
            if axis is None:
                # Full reduce becomes a per-client reduce over the
                # flattened base; C-order flattening matches the eager
                # element sequence slice for slice.
                flat_out = buf.reshape(stack)

                def run():
                    arena[a].reshape(stack, -1).sum(axis=1, out=flat_out)

                return run
            saxis = (
                tuple(ax + 1 if ax >= 0 else ax for ax in axis)
                if isinstance(axis, tuple)
                else (axis + 1 if axis >= 0 else axis)
            )

            def run():
                arena[a].sum(axis=saxis, keepdims=keepdims, out=buf)

            return run

        if kind == "reshape":
            shape = (stack,) + tuple(rec.meta["shape"])
            (a,) = srcs

            def run():
                arena[o] = arena[a].reshape(shape)

            return run

        if kind == "transpose":
            in_ndim = rec.parents[0].data.ndim
            axes = tuple(ax % in_ndim for ax in rec.meta["axes"])
            saxes = (0,) + tuple(ax + 1 for ax in axes)
            (a,) = srcs

            def run():
                arena[o] = arena[a].transpose(saxes)

            return run

        if kind == "matmul":
            if rec.parents[0].data.ndim < 2 or rec.parents[1].data.ndim < 2:
                raise CaptureError("stacked matmul needs >= 2-D operands")
            ra = self._reader(rec.parents[0], len(out_base))
            rb = self._reader(rec.parents[1], len(out_base))
            buf = self._out_buf(rec)
            arena[o] = buf

            def run():
                np.matmul(ra(), rb(), out=buf)

            return run

        if kind == "conv2d":
            return self._conv2d(rec)
        if kind == "max_pool2d":
            return self._max_pool2d(rec)
        if kind == "avg_pool2d":
            return self._avg_pool2d(rec)
        if kind == "cross_entropy":
            return self._cross_entropy(rec)

        raise CaptureError(f"no stacked forward kernel for op kind {kind!r}")

    def _bn_op(self, entry):
        raise CaptureError("stacked replay does not support batch-norm updates")

    # -- composite kernels ----------------------------------------------
    def _relu(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        stack = self.stack
        x_t = rec.parents[0]
        a = self.slot(x_t)
        o = self.slot(rec.out)
        buf = self._out_buf(rec)
        arena[o] = buf
        mask = self._mask_buf(rec)
        cell = _Cell()

        def fwd():
            np.maximum(arena[a], 0.0, out=buf)

        def bwd():
            np.greater(arena[a], 0, out=mask)
            acc(a, _binout(cell, np.multiply, gbufs[o], mask), fresh=True)

        self._register_bwd(rec, bwd, x_t.requires_grad)
        return fwd

    def _conv2d(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        stack = self.stack
        meta = rec.meta
        n, c, h, w = meta["image_shape"]
        _, oc, oh, ow = meta["out_shape"]
        kernel, stride, padding = meta["kernel"], meta["stride"], meta["padding"]
        has_bias = meta["has_bias"]
        x_t, w_t = rec.parents[0], rec.parents[1]
        b_t = rec.parents[2] if has_bias else None
        sx, sw = self.slot(x_t), self.slot(w_t)
        sb = self.slot(b_t) if has_bias else None
        o = self.slot(rec.out)
        ckk = c * kernel * kernel
        m = n * oh * ow
        weight_stack_shape = (stack,) + w_t.data.shape
        w_stacked = sw in self._stacked
        b_stacked = has_bias and sb in self._stacked
        st: dict = {}
        gw_cell, gc_cell = _Cell(), _Cell()

        def flat_weight_view():
            wt = arena[sw]
            return wt.reshape(stack, oc, ckk) if w_stacked else wt.reshape(oc, ckk)

        def fwd():
            x = arena[sx]
            flat_weight = flat_weight_view()
            img = x
            if padding > 0:
                padded = st.get("padded")
                if padded is None:
                    padded = np.zeros(
                        (stack, n, c, h + 2 * padding, w + 2 * padding),
                        dtype=x.dtype,
                    )
                    st["padded"] = padded
                padded[:, :, :, padding : padding + h, padding : padding + w] = x
                img = padded
            strides = img.strides
            windows = as_strided(
                img,
                shape=(stack, n, c, oh, ow, kernel, kernel),
                strides=(
                    strides[0],
                    strides[1],
                    strides[2],
                    strides[3] * stride,
                    strides[4] * stride,
                    strides[3],
                    strides[4],
                ),
                writeable=False,
            )
            cols7 = st.get("cols7")
            if cols7 is None:
                cols7 = np.empty(
                    (stack, n, oh, ow, c, kernel, kernel), dtype=x.dtype
                )
                st["cols7"] = cols7
                st["cols3"] = cols7.reshape(stack, m, ckk)
            np.copyto(cols7, windows.transpose(0, 1, 3, 4, 2, 5, 6))
            cols3 = st["cols3"]
            fwT = (
                flat_weight.transpose(0, 2, 1) if w_stacked else flat_weight.T
            )
            mm = st.get("mm")
            if mm is None:
                mm = cols3 @ fwT
                st["mm"] = mm
            else:
                np.matmul(cols3, fwT, out=mm)
            out_flat = mm
            if has_bias:
                bias = arena[sb]
                bview = bias.reshape(stack, 1, oc) if b_stacked else bias
                bout = st.get("bout")
                if bout is None:
                    bout = out_flat + bview
                    st["bout"] = bout
                else:
                    np.add(out_flat, bview, out=bout)
                out_flat = bout
            arena[o] = out_flat.reshape(stack, n, oh, ow, oc).transpose(
                0, 1, 4, 2, 3
            )

        x_req = x_t.requires_grad
        w_req = w_t.requires_grad
        b_req = has_bias and b_t.requires_grad

        def col2im_replay(gc):
            # The stacked analogue of the serial compiler's col2im replay:
            # one extra leading axis on every buffer, the same (ki, kj)
            # slice-add order per client slice.
            gcT = st.get("gcT")
            if gcT is None:
                gcT = np.empty(
                    (kernel, kernel, stack, n, c, oh, ow), dtype=gc.dtype
                )
                st["gcT"] = gcT
                st["gpad"] = np.zeros(
                    (stack, n, c, h + 2 * padding, w + 2 * padding),
                    dtype=gc.dtype,
                )
            np.copyto(
                gcT,
                gc.reshape(stack, n, oh, ow, c, kernel, kernel).transpose(
                    5, 6, 0, 1, 4, 2, 3
                ),
            )
            gpad = st["gpad"]
            gpad.fill(0.0)
            for ki in range(kernel):
                h_stop = ki + stride * oh
                for kj in range(kernel):
                    w_stop = kj + stride * ow
                    gpad[:, :, :, ki:h_stop:stride, kj:w_stop:stride] += gcT[
                        ki, kj
                    ]
            if padding > 0:
                return gpad[:, :, :, padding:-padding, padding:-padding]
            return gpad

        def bwd():
            g = gbufs[o]
            grad_flat = g.transpose(0, 1, 3, 4, 2).reshape(stack, m, oc)
            cols3 = st["cols3"]
            flat_weight = flat_weight_view()
            if w_req:
                gw = _binout(
                    gw_cell, np.matmul, grad_flat.transpose(0, 2, 1), cols3
                )
                acc(sw, gw.reshape(weight_stack_shape), fresh=True)
            if b_req:
                acc(sb, grad_flat.sum(axis=1), fresh=True)
            if x_req:
                gc = _binout(gc_cell, np.matmul, grad_flat, flat_weight)
                acc(sx, col2im_replay(gc), fresh=True)

        self._register_bwd(rec, bwd, x_req or w_req or b_req)
        return fwd

    def _max_pool2d(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        stack = self.stack
        meta = rec.meta
        kernel, stride = meta["kernel"], meta["stride"]
        n, c, h, w = meta["image_shape"]
        _, _, oh, ow = meta["out_shape"]
        # K*n*c image planes form one flat batch: pooling never mixes
        # planes, so the serial kernel's geometry applies verbatim.
        nc = stack * n * c
        x_t = rec.parents[0]
        sx = self.slot(x_t)
        o = self.slot(rec.out)
        window = kernel * kernel
        count = nc * oh * ow
        rows = np.arange(count)
        flat_base = rows * window
        ki, kj = np.divmod(np.arange(window), kernel)
        b, rem = np.divmod(rows, oh * ow)
        a_h, a_w = np.divmod(rem, ow)
        col_to_img = (
            b[:, None] * (h * w)
            + (a_h[:, None] * stride + ki[None, :]) * w
            + (a_w[:, None] * stride + kj[None, :])
        ).ravel()
        nonoverlap = stride >= kernel
        st: dict = {}

        def fwd():
            as_batch = arena[sx].reshape(nc, 1, h, w)
            strides = as_batch.strides
            windows = as_strided(
                as_batch,
                shape=(nc, 1, oh, ow, kernel, kernel),
                strides=(
                    strides[0],
                    strides[1],
                    strides[2] * stride,
                    strides[3] * stride,
                    strides[2],
                    strides[3],
                ),
                writeable=False,
            )
            cols6 = st.get("cols6")
            if cols6 is None:
                cols6 = np.empty(
                    (nc, oh, ow, 1, kernel, kernel), dtype=as_batch.dtype
                )
                st["cols6"] = cols6
                st["cols2"] = cols6.reshape(count, window)
                st["arg"] = np.empty(count, dtype=np.intp)
                st["idx"] = np.empty(count, dtype=np.intp)
                st["out"] = np.empty(
                    (stack, n, c, oh, ow), dtype=as_batch.dtype
                )
            np.copyto(cols6, windows.transpose(0, 2, 3, 1, 4, 5))
            cols2 = st["cols2"]
            arg = np.argmax(cols2, axis=1, out=st["arg"])
            idx = np.add(flat_base, arg, out=st["idx"])
            out = st["out"]
            np.take(cols2.reshape(-1), idx, out=out.reshape(-1))
            arena[o] = out

        def bwd():
            g = gbufs[o]
            if nonoverlap:
                gimg = st.get("gimg")
                if gimg is None:
                    gimg = np.empty(nc * h * w, dtype=g.dtype)
                    st["gimg"] = gimg
                    st["imgidx"] = np.empty(count, dtype=np.intp)
                    st["gtmp"] = np.empty(count, dtype=g.dtype)
                gimg.fill(0.0)
                imgidx = np.take(col_to_img, st["idx"], out=st["imgidx"])
                gtmp = np.add(g.reshape(-1), 0.0, out=st["gtmp"])
                gimg[imgidx] = gtmp
                acc(sx, gimg.reshape(stack, n, c, h, w), fresh=True)
                return
            cols2 = st["cols2"]
            gc = st.get("gc")
            if gc is None:
                gc = np.zeros_like(cols2)
                st["gc"] = gc
            else:
                gc.fill(0.0)
            gc[rows, st["arg"]] = g.reshape(-1)
            grad_images = F.col2im(gc, (nc, 1, h, w), kernel, stride, 0)
            acc(sx, grad_images.reshape(stack, n, c, h, w), fresh=True)

        self._register_bwd(rec, bwd, x_t.requires_grad)
        return fwd

    def _avg_pool2d(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        stack = self.stack
        meta = rec.meta
        kernel, stride = meta["kernel"], meta["stride"]
        n, c, h, w = meta["image_shape"]
        _, _, oh, ow = meta["out_shape"]
        nc = stack * n * c
        window = kernel * kernel
        x_t = rec.parents[0]
        sx = self.slot(x_t)
        o = self.slot(rec.out)
        st: dict = {}

        def fwd():
            as_batch = arena[sx].reshape(nc, 1, h, w)
            strides = as_batch.strides
            windows = as_strided(
                as_batch,
                shape=(nc, 1, oh, ow, kernel, kernel),
                strides=(
                    strides[0],
                    strides[1],
                    strides[2] * stride,
                    strides[3] * stride,
                    strides[2],
                    strides[3],
                ),
                writeable=False,
            )
            cols6 = st.get("cols6")
            if cols6 is None:
                cols6 = np.empty(
                    (nc, oh, ow, 1, kernel, kernel), dtype=as_batch.dtype
                )
                st["cols6"] = cols6
                st["cols2"] = cols6.reshape(nc * oh * ow, window)
            np.copyto(cols6, windows.transpose(0, 2, 3, 1, 4, 5))
            cols2 = st["cols2"]
            mean = st.get("mean")
            if mean is None:
                mean = cols2.mean(axis=1)
                st["mean"] = mean
            else:
                cols2.mean(axis=1, out=mean)
            arena[o] = mean.reshape(stack, n, c, oh, ow)

        def bwd():
            g = gbufs[o]
            grad_cols = np.repeat(g.reshape(-1, 1), window, axis=1) / window
            grad_images = F.col2im(grad_cols, (nc, 1, h, w), kernel, stride, 0)
            acc(sx, grad_images.reshape(stack, n, c, h, w), fresh=True)

        self._register_bwd(rec, bwd, x_t.requires_grad)
        return fwd

    def _cross_entropy(self, rec: _OpRecord):
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        stack = self.stack
        reduction = rec.meta["reduction"]
        targets = rec.meta["targets"]
        if self.labels is None or targets is not self.labels:
            raise CaptureError("cross_entropy targets are not the step labels")
        logits_t = rec.parents[0]
        n = logits_t.data.shape[0]
        sl = self.slot(logits_t)
        lt = self.labels_slot
        o = self.slot(rec.out)
        kgrid = np.arange(stack)[:, None]
        rows = np.arange(n)[None, :]
        st: dict = {}
        gl_cell = _Cell()

        def fwd():
            logits = arena[sl]
            tgt = arena[lt]
            if "max" not in st:
                st["max"] = logits.max(axis=2, keepdims=True)
                st["shifted"] = logits - st["max"]
                st["exp"] = np.exp(st["shifted"])
                st["sumexp"] = st["exp"].sum(axis=2, keepdims=True)
                st["ln"] = np.log(st["sumexp"][:, :, 0])
                st["losses"] = st["ln"] - st["shifted"][kgrid, rows, tgt]
            else:
                logits.max(axis=2, keepdims=True, out=st["max"])
                np.subtract(logits, st["max"], out=st["shifted"])
                np.exp(st["shifted"], out=st["exp"])
                st["exp"].sum(axis=2, keepdims=True, out=st["sumexp"])
                np.log(st["sumexp"][:, :, 0], out=st["ln"])
                np.subtract(
                    st["ln"], st["shifted"][kgrid, rows, tgt], out=st["losses"]
                )
            losses = st["losses"]
            if reduction == "none":
                arena[o] = losses
                return
            red = st.get("red")
            if red is None:
                red = (
                    losses.sum(axis=1)
                    if reduction == "sum"
                    else losses.mean(axis=1)
                )
                st["red"] = red
            elif reduction == "sum":
                losses.sum(axis=1, out=red)
            else:
                losses.mean(axis=1, out=red)
            arena[o] = red

        def bwd():
            g = gbufs[o]
            tgt = arena[lt]
            if reduction == "none":
                scale = np.asarray(g).reshape(stack, n, 1)
            elif reduction == "mean":
                scale = (np.asarray(g) / n).reshape(stack, 1, 1)
            else:
                scale = np.asarray(g).reshape(stack, 1, 1)
            softmax = np.divide(st["exp"], st["sumexp"], out=st["exp"])
            gl = _binout(gl_cell, np.multiply, softmax, scale)
            gl[kgrid, rows, tgt] -= scale[:, :, 0]
            acc(sl, gl, fresh=True)

        self._register_bwd(rec, bwd, logits_t.requires_grad)
        return fwd

    # -- backward kernels -----------------------------------------------
    def _backward_op(self, rec: _OpRecord):
        if id(rec) in self._composite_bwd:
            return self._composite_bwd[id(rec)]
        kind = rec.kind
        arena, acc, gbufs = self.arena, self.acc, self.gbufs
        stack = self.stack
        o = self.slot(rec.out)
        srcs = [self.slot(p) for p in rec.parents]
        reqs = [p.requires_grad for p in rec.parents]
        out_ndim = rec.out.data.ndim

        if kind == "mul":
            a, b = srcs
            ra, rb = reqs
            read_a = self._reader(rec.parents[0], out_ndim)
            read_b = self._reader(rec.parents[1], out_ndim)
            cell_a, cell_b = _Cell(), _Cell()

            def run():
                g = gbufs[o]
                if ra:
                    acc(a, _binout(cell_a, np.multiply, g, read_b()), fresh=True)
                if rb:
                    acc(b, _binout(cell_b, np.multiply, g, read_a()), fresh=True)

            return run

        if kind == "div":
            a, b = srcs
            ra, rb = reqs
            read_a = self._reader(rec.parents[0], out_ndim)
            read_b = self._reader(rec.parents[1], out_ndim)
            cell = _Cell()

            def run():
                g = gbufs[o]
                if ra:
                    acc(a, _binout(cell, np.divide, g, read_b()), fresh=True)
                if rb:
                    acc(b, -g * read_a() / (read_b() ** 2), fresh=True)

            return run

        if kind == "sum":
            axis = rec.meta["axis"]
            keepdims = rec.meta["keepdims"]
            in_base = rec.parents[0].data.shape
            in_shape = (stack,) + in_base
            (a,) = srcs
            if axis is None:
                gview = (stack,) + (1,) * len(in_base)

                def run():
                    g = gbufs[o]
                    acc(a, np.broadcast_to(g.reshape(gview), in_shape))

                return run
            saxis = (
                tuple(ax + 1 if ax >= 0 else ax for ax in axis)
                if isinstance(axis, tuple)
                else (axis + 1 if axis >= 0 else axis)
            )

            def run():
                g = gbufs[o]
                if not keepdims:
                    g = np.expand_dims(g, axis=saxis)
                acc(a, np.broadcast_to(g, in_shape))

            return run

        if kind == "reshape":
            in_shape = (stack,) + rec.parents[0].data.shape
            (a,) = srcs

            def run():
                acc(a, gbufs[o].reshape(in_shape))

            return run

        if kind == "transpose":
            in_ndim = rec.parents[0].data.ndim
            axes = tuple(ax % in_ndim for ax in rec.meta["axes"])
            inverse = (0,) + tuple(int(ax) + 1 for ax in np.argsort(axes))
            (a,) = srcs

            def run():
                acc(a, gbufs[o].transpose(inverse))

            return run

        if kind == "matmul":
            a, b = srcs
            ra, rb = reqs
            read_a = self._reader(rec.parents[0], out_ndim)
            read_b = self._reader(rec.parents[1], out_ndim)
            cell_a, cell_b = _Cell(), _Cell()

            def run():
                g = gbufs[o]
                if ra:
                    acc(
                        a,
                        _binout(cell_a, np.matmul, g, _swap_last(read_b())),
                        fresh=True,
                    )
                if rb:
                    acc(
                        b,
                        _binout(cell_b, np.matmul, _swap_last(read_a()), g),
                        fresh=True,
                    )

            return run

        # add/neg/sub and the unary chain rules are rank-preserving, so
        # the serial kernels (with this class's stacked ``acc``) apply.
        return super()._backward_op(rec)


def compile_stacked_step(
    model, stack: int, features, labels, optimize: bool = True
) -> StackedStep:
    """Compile a K-client batched SGD training step for ``model``.

    ``features``/``labels`` are shape/dtype templates for *one* client's
    full-size batch; values are ignored.  The trace runs on synthetic
    zeros (consuming no randomness) and the model state is restored
    afterwards, so calling this is observably side-effect free.  Raises
    :class:`CaptureError` when the model records ops the stacked
    compiler cannot batch (e.g. batch norm, dropout).
    """
    snapshot = model.state_dict()
    model.train()
    synth_x = np.zeros_like(np.asarray(features))
    synth_y = np.zeros_like(np.asarray(labels))
    tape = Tape()
    x = Tensor(synth_x)
    previous = tensor_mod._set_tape(tape)
    try:
        logits = model(x)
        loss = F.cross_entropy(logits, synth_y)
    finally:
        tensor_mod._set_tape(previous)
    try:
        if tape.failed is not None:
            raise CaptureError(tape.failed)
        compiler = _StackedCompiler(
            tape, x, loss, synth_y, stack, model.parameters(), optimize=optimize
        )
        return compiler.compile_stacked()
    finally:
        # The trace may have advanced buffer state (batch-norm running
        # stats) before failing; roll everything back.
        model.load_state_dict(snapshot)


class StackedEngine:
    """Per-(K, batch-shape) stacked programs for one model.

    Mirrors :class:`_Engine`'s failure memoization: a (stack, shapes)
    key whose compile was rejected raises the same :class:`CaptureError`
    immediately on later requests, so executors can probe cheaply.
    """

    def __init__(self, model, optimize: bool = True):
        self.model = model
        self.optimize = optimize
        self.programs: dict = {}
        self.failures: dict = {}

    def program(self, stack: int, features, labels) -> StackedStep:
        key = (
            stack,
            features.shape,
            str(features.dtype),
            labels.shape,
            str(labels.dtype),
        )
        program = self.programs.get(key)
        if program is not None:
            return program
        reason = self.failures.get(key)
        if reason is not None:
            raise CaptureError(reason)
        try:
            program = compile_stacked_step(
                self.model, stack, features, labels, optimize=self.optimize
            )
        except CaptureError as error:
            self.failures[key] = str(error)
            raise
        self.programs[key] = program
        return program


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class _Engine:
    """Shared capture bookkeeping: at most one program per engine.

    The base rule captures the *first* shape seen; every other shape
    (odd evaluation tails) reports a fallback and runs eagerly.
    Subclasses narrow which shape may be captured.
    ``captures``/``replays``/``fallbacks`` count what actually happened,
    and ``failures`` maps a shape key to the reason its capture was
    rejected.
    """

    def __init__(self, model, optimize: bool = True):
        self.model = model
        self.optimize = optimize
        self.programs: dict = {}
        self.failures: dict = {}
        self.captures = 0
        self.replays = 0
        self.fallbacks = 0
        # Last program hit, keyed by raw shapes/dtypes: building the
        # string-keyed dict key costs tens of microseconds per step,
        # which is real money against a sub-millisecond replay.
        self._hot: tuple | None = None

    def _should_capture(self, key) -> bool:
        return not self.programs and key not in self.failures


class TrainingEngine(_Engine):
    """Captured forward+backward training step (loss and param grads).

    Only a batch of exactly ``batch_size`` rows is captured, so the one
    program is the loader's full batch whichever party trains first.
    Every other shape — a ragged last batch, a party smaller than one
    batch — runs eagerly without a capture attempt.
    """

    def __init__(self, model, batch_size: int, optimize: bool = True):
        super().__init__(model, optimize=optimize)
        self.batch_size = batch_size

    def _should_capture(self, key) -> bool:
        features_shape = key[0]
        return (
            features_shape[0] == self.batch_size
            and super()._should_capture(key)
        )

    def step(self, features: np.ndarray, labels: np.ndarray) -> float | None:
        """Loss for one step, with grads left in ``param.grad``.

        Returns None when this batch shape must run eagerly.
        """
        hot = self._hot
        if (
            hot is not None
            and hot[0] == features.shape
            and hot[1] is features.dtype
            and hot[2] == labels.shape
            and hot[3] is labels.dtype
        ):
            self.replays += 1
            return hot[4].replay_step(features, labels)
        key = (
            features.shape,
            str(features.dtype),
            labels.shape,
            str(labels.dtype),
        )
        program = self.programs.get(key)
        if program is not None:
            # Builtin dtypes are interned, so the identity probe above
            # will hit from now on; exotic dtypes just stay on this path.
            self._hot = (
                features.shape, features.dtype, labels.shape, labels.dtype,
                program,
            )
            self.replays += 1
            return program.replay_step(features, labels)
        if not self._should_capture(key):
            self.fallbacks += 1
            return None
        return self._capture(key, features, labels)

    def _capture(self, key, features, labels) -> float:
        tape = Tape()
        x = Tensor(features)
        previous = tensor_mod._set_tape(tape)
        try:
            logits = self.model(x)
            loss = F.cross_entropy(logits, labels)
        finally:
            tensor_mod._set_tape(previous)
        if tape.failed is not None:
            self.failures[key] = tape.failed
        else:
            try:
                # Compile BEFORE backward: backward() frees the graph.
                program = _Compiler(
                    tape, x, loss, labels, optimize=self.optimize
                ).compile(with_backward=True)
                self.programs[key] = program
                self.captures += 1
            except CaptureError as error:
                self.failures[key] = str(error)
        loss.backward()
        return loss.item()


class InferenceEngine(_Engine):
    """Captured forward pass for evaluation (logits only, no grads)."""

    def forward(self, features: np.ndarray) -> np.ndarray | None:
        """Logits for one batch, or None when it must run eagerly.

        The returned array is an arena buffer overwritten by the next
        replay — consume it before calling again.
        """
        hot = self._hot
        if (
            hot is not None
            and hot[0] == features.shape
            and hot[1] is features.dtype
        ):
            self.replays += 1
            return hot[2].replay_forward(features)
        key = (features.shape, str(features.dtype))
        program = self.programs.get(key)
        if program is not None:
            self._hot = (features.shape, features.dtype, program)
            self.replays += 1
            return program.replay_forward(features)
        if not self._should_capture(key):
            self.fallbacks += 1
            return None
        tape = Tape()
        x = Tensor(features)
        previous = tensor_mod._set_tape(tape)
        try:
            out = self.model(x)
        finally:
            tensor_mod._set_tape(previous)
        if tape.failed is not None:
            self.failures[key] = tape.failed
            return out.data
        try:
            program = _Compiler(
                tape, x, out, None, optimize=self.optimize
            ).compile(with_backward=False)
            self.programs[key] = program
            self.captures += 1
        except CaptureError as error:
            self.failures[key] = str(error)
        return out.data


def _engine_cache(model) -> dict:
    cache = getattr(model, "_capture_engines", None)
    if cache is None:
        # A plain attribute: Module.__setattr__ keeps it out of the
        # parameter/module registries, so it never reaches state_dict()
        # or a checkpoint (the model object itself is never pickled).
        cache = {}
        model._capture_engines = cache
    return cache


def training_engine(
    model, batch_size: int, optimize: bool = True
) -> TrainingEngine:
    """The model's cached :class:`TrainingEngine` for ``batch_size``.

    ``optimize=False`` compiles programs without the arena planner and
    dead-op elimination (the ``--no-optimize`` escape hatch); engines
    are cached independently per (batch size, optimize) pair.
    """
    cache = _engine_cache(model)
    key = ("train" if optimize else "train-raw", batch_size)
    engine = cache.get(key)
    if engine is None:
        engine = TrainingEngine(model, batch_size, optimize=optimize)
        cache[key] = engine
    return engine


def inference_engine(model, optimize: bool = True) -> InferenceEngine:
    """The model's cached :class:`InferenceEngine` (created on first use)."""
    cache = _engine_cache(model)
    key = "eval" if optimize else "eval-raw"
    engine = cache.get(key)
    if engine is None:
        engine = InferenceEngine(model, optimize=optimize)
        cache[key] = engine
    return engine


def stacked_engine(model, optimize: bool = True) -> StackedEngine:
    """The model's cached :class:`StackedEngine` (created on first use)."""
    cache = _engine_cache(model)
    key = "stacked" if optimize else "stacked-raw"
    engine = cache.get(key)
    if engine is None:
        engine = StackedEngine(model, optimize=optimize)
        cache[key] = engine
    return engine
