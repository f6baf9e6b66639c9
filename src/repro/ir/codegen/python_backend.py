"""Executable Python/numpy backend of the Hector code generator.

For every kernel instance in a plan this backend emits a Python function
``kernel_<name>(env, ctx)`` operating on

* ``env`` — a dict mapping buffer names to numpy arrays (inputs, parameters,
  intermediates, gradients), and
* ``ctx`` — a :class:`repro.runtime.context.GraphContext` holding the graph
  index arrays the access schemes read (``row_idx``/``edge_src``,
  ``etype_ptr``, ``unique_row_idx``/``unique_src``, ``edge_to_unique``, …).

The emitted source is compiled with :func:`exec` and wrapped in a
:class:`GeneratedModule`; the runtime executor calls the generated functions
directly, so what runs is what was generated.  Backward functions are
generated for the plan's backward kernel instances, mirroring how Hector pairs
forward and backward kernels in ``autograd.Function`` definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.ir.inter_op.space import Space
from repro.ir.intra_op.access import GatherKind
from repro.ir.intra_op.kernels import FallbackKernel, GemmKernel, KernelInstance, MicroOp, TraversalKernel
from repro.ir.intra_op.plan import KernelPlan

_PREAMBLE = '''"""Generated by Hector's Python backend — do not edit by hand."""
import numpy as np


def _align(a, b):
    """Broadcast a per-row scalar against per-row vectors."""
    if a.ndim == 1 and b.ndim == 2:
        a = a[:, None]
    if b.ndim == 1 and a.ndim == 2:
        b = b[:, None]
    return a, b


def _env_dtype(env):
    """The floating dtype of the environment's buffers.

    Inputs and parameters are installed before any kernel runs, so the first
    floating array encountered fixes the working precision; fresh output and
    gradient allocations follow it instead of silently upcasting a float32
    environment to float64.
    """
    for value in env.values():
        if isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.floating):
            return value.dtype
    return np.dtype(np.float64)


def _ensure(env, name, shape):
    """Fetch (or allocate) an output buffer, zero-filled.

    A correctly shaped buffer already present in ``env`` — e.g. bound from a
    preallocated arena, or left over from a previous invocation — is reused
    in place and reset to zero, so reuse is indistinguishable from a fresh
    ``np.zeros`` allocation.  Fresh buffers take the environment dtype
    (see ``_env_dtype``), not a hardcoded float64.
    """
    if np.isscalar(shape):
        shape = (shape,)
    if name not in env or env[name].shape != tuple(shape):
        env[name] = np.zeros(shape, dtype=_env_dtype(env))
    else:
        env[name][...] = 0.0
    return env[name]


def _ensure_grad(env, name):
    """Allocate (or fetch) the gradient buffer of a forward value.

    ``zeros_like`` inherits the forward buffer's dtype, so gradients never
    upcast a float32 environment.
    """
    grad_name = "grad_" + name
    if grad_name not in env:
        env[grad_name] = np.zeros_like(env[name])
    return env[grad_name]
'''


@dataclass
class GeneratedModule:
    """The output of the Python backend.

    Attributes:
        source: the full generated source text.
        forward_functions: kernel name → callable for forward kernels.
        backward_functions: kernel name → callable for backward kernels.
        forward_program: single generated function running every forward
            kernel in plan order — the compile-once-run-many entry point the
            executor prefers over per-kernel dict dispatch.
        backward_program: the same for the backward kernel list.
        seeds_gradients: the backward program seeds its own zero gradients
            lazily (only the ones it actually reads), so the executor skips
            its eager zero-seeding loop.  Set by the ``python-codegen``
            backend.
    """

    source: str
    forward_functions: Dict[str, Callable]
    backward_functions: Dict[str, Callable]
    forward_program: Optional[Callable] = None
    backward_program: Optional[Callable] = None
    seeds_gradients: bool = False

    def line_count(self) -> int:
        """Number of generated source lines (for the programming-effort metric)."""
        return len(self.source.splitlines())


def build_python_module(plan: KernelPlan) -> GeneratedModule:
    """Generate and compile Python kernels for every kernel in ``plan``.

    This is the ``python-interp`` registrant of the backend registry
    (:mod:`repro.ir.codegen.registry`); prefer selecting it through
    ``get_backend("python-interp")`` or ``CompilerOptions(backend=...)``.
    """
    generator = _PythonKernelGenerator(plan)
    source = generator.generate()
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<hector:{plan.name}>", "exec"), namespace)
    forward = {k.name: namespace[f"kernel_{k.name}"] for k in plan.forward_kernels}
    backward = {k.name: namespace[f"kernel_{k.name}"] for k in plan.backward_kernels}
    return GeneratedModule(
        source=source,
        forward_functions=forward,
        backward_functions=backward,
        forward_program=namespace.get("hector_forward"),
        backward_program=namespace.get("hector_backward"),
    )


class _PythonKernelGenerator:
    """Emits one Python function per kernel instance."""

    def __init__(self, plan: KernelPlan):
        self.plan = plan

    def generate(self) -> str:
        chunks = [_PREAMBLE]
        for kernel in self.plan.forward_kernels + self.plan.backward_kernels:
            chunks.append(self._generate_kernel(kernel))
        chunks.append(self._generate_program("hector_forward", "forward", self.plan.forward_kernels))
        chunks.append(self._generate_program("hector_backward", "backward", self.plan.backward_kernels))
        return "\n\n".join(chunks) + "\n"

    def _generate_program(self, name: str, direction: str, kernels: Sequence[KernelInstance]) -> str:
        """Emit the fused whole-pass entry point: one call runs every kernel."""
        lines = [f"def {name}(env, ctx):"]
        lines.append(f'    """Fused {direction} program of plan {self.plan.name}: '
                     f'{len(kernels)} kernels, one dispatch."""')
        if not kernels:
            lines.append("    return env")
            return "\n".join(lines)
        for kernel in kernels:
            lines.append(f"    kernel_{kernel.name}(env, ctx)")
        lines.append("    return env")
        return "\n".join(lines)

    def _generate_kernel(self, kernel: KernelInstance) -> str:
        if isinstance(kernel, GemmKernel):
            return self._generate_gemm(kernel)
        if isinstance(kernel, TraversalKernel):
            return self._generate_traversal(kernel)
        if isinstance(kernel, FallbackKernel):
            return self._generate_fallback(kernel)
        raise TypeError(f"unknown kernel type: {type(kernel)!r}")

    # ==================================================================
    # GEMM template
    # ==================================================================
    def _generate_gemm(self, kernel: GemmKernel) -> str:
        lines = [f"def kernel_{kernel.name}(env, ctx):"]
        lines.append(f'    """{kernel.describe()}"""')
        lines += self._gemm_segment_header(kernel)
        if kernel.role == "forward":
            lines += self._gemm_forward_body(kernel)
        elif kernel.role == "dgrad":
            lines += self._gemm_dgrad_body(kernel)
        elif kernel.role == "wgrad":
            lines += self._gemm_wgrad_body(kernel)
        else:
            raise ValueError(f"unknown GEMM role {kernel.role!r}")
        return "\n".join(lines)

    def _gemm_segment_header(self, kernel: GemmKernel) -> List[str]:
        """Emit the segment loop bounds for the kernel's iteration space."""
        lines: List[str] = []
        if kernel.m_space is Space.EDGE:
            lines.append("    seg_ptr = ctx.etype_ptr")
            lines.append("    num_segments = ctx.num_etypes")
        elif kernel.m_space is Space.COMPACT:
            lines.append("    seg_ptr = ctx.unique_etype_ptr")
            lines.append("    num_segments = ctx.num_etypes")
        elif kernel.m_space is Space.NODE and kernel.type_selector in ("ntype", "src_ntype", "dst_ntype"):
            lines.append("    seg_ptr = ctx.ntype_ptr")
            lines.append("    num_segments = ctx.num_ntypes")
        else:
            lines.append("    seg_ptr = None")
            lines.append("    num_segments = 1")
        return lines

    def _gemm_weight_index(self, kernel: GemmKernel) -> str:
        """Expression selecting the weight slice for segment ``t``."""
        if kernel.type_selector == "etype":
            return "t"
        if kernel.type_selector == "src_ntype":
            return "ctx.etype_to_src_ntype[t]"
        if kernel.type_selector == "dst_ntype":
            return "ctx.etype_to_dst_ntype[t]"
        if kernel.type_selector == "ntype":
            return "t"
        return "None"

    def _gemm_rows_and_gather(self, kernel: GemmKernel) -> List[str]:
        """Emit per-segment row index computation and the X gather."""
        lines: List[str] = []
        if kernel.m_space is Space.EDGE:
            lines.append("        rows = ctx.etype_perm[start:end]")
        elif kernel.m_space is Space.COMPACT:
            lines.append("        rows = np.arange(start, end)")
        else:
            lines.append("        rows = np.arange(start, end)")
        gather = kernel.x.access.gather
        x_buffer = kernel.x.buffer
        if gather is GatherKind.EDGE_SRC:
            lines.append(f"        Xg = env['{x_buffer}'][ctx.edge_src[rows]]")
        elif gather is GatherKind.EDGE_DST:
            lines.append(f"        Xg = env['{x_buffer}'][ctx.edge_dst[rows]]")
        elif gather is GatherKind.UNIQUE_SRC:
            lines.append(f"        Xg = env['{x_buffer}'][ctx.unique_src[rows]]")
        elif gather is GatherKind.EDGE_TO_COMPACT:
            lines.append(f"        Xg = env['{x_buffer}'][ctx.edge_to_unique[rows]]")
        elif gather is GatherKind.ETYPE_PERMUTATION:
            lines.append(f"        Xg = env['{x_buffer}'][rows]")
        else:
            lines.append(f"        Xg = env['{x_buffer}'][rows]")
        return lines

    def _gemm_output_rows_expr(self, kernel: GemmKernel) -> str:
        if kernel.m_space is Space.EDGE:
            return "ctx.num_edges"
        if kernel.m_space is Space.COMPACT:
            return "ctx.num_unique"
        return "ctx.num_nodes"

    def _gemm_forward_body(self, kernel: GemmKernel) -> List[str]:
        weight_idx = self._gemm_weight_index(kernel)
        lines: List[str] = []
        rows_expr = self._gemm_output_rows_expr(kernel)
        lines.append(f"    Y = _ensure(env, '{kernel.y.buffer}', ({rows_expr}, {kernel.n_dim}))")
        if kernel.type_selector == "none":
            lines.append(f"    Y[:] = env['{kernel.x.buffer}'] @ env['{kernel.weight.buffer}']")
            return lines
        lines.append("    for t in range(num_segments):")
        lines.append("        start, end = seg_ptr[t], seg_ptr[t + 1]")
        lines.append("        if end <= start:")
        lines.append("            continue")
        lines += self._gemm_rows_and_gather(kernel)
        lines.append(f"        W_t = env['{kernel.weight.buffer}'][{weight_idx}]")
        lines.append("        Y[rows] = Xg @ W_t")
        return lines

    def _gemm_dgrad_body(self, kernel: GemmKernel) -> List[str]:
        """``dX[G] += dY[S] × Wᵀ[T]`` — gradient w.r.t. the gathered input rows."""
        # For a dgrad kernel, ``x`` holds grad_Y (access = forward Y scatter),
        # ``y`` holds grad_X (access = forward X gather).
        grad_y_buffer = kernel.x.buffer
        grad_x_buffer = kernel.y.buffer
        base_x = grad_x_buffer[5:] if grad_x_buffer.startswith("grad_") else grad_x_buffer
        weight_idx = self._gemm_weight_index(kernel)
        lines: List[str] = []
        lines.append(f"    _ensure_grad(env, '{base_x}')")
        lines.append(f"    grad_X = env['{grad_x_buffer}']")
        if kernel.type_selector == "none":
            lines.append(f"    grad_X += env['{grad_y_buffer}'] @ env['{kernel.weight.buffer}'].T")
            return lines
        lines.append("    for t in range(num_segments):")
        lines.append("        start, end = seg_ptr[t], seg_ptr[t + 1]")
        lines.append("        if end <= start:")
        lines.append("            continue")
        if kernel.m_space is Space.EDGE:
            lines.append("        rows = ctx.etype_perm[start:end]")
        else:
            lines.append("        rows = np.arange(start, end)")
        lines.append(f"        gY = env['{grad_y_buffer}'][rows]")
        lines.append(f"        W_t = env['{kernel.weight.buffer}'][{weight_idx}]")
        lines.append("        contrib = gY @ W_t.T")
        # Scatter-add the contribution into grad_X through the forward gather list.
        gather = kernel.y.access.gather
        if gather is GatherKind.EDGE_SRC:
            lines.append("        np.add.at(grad_X, ctx.edge_src[rows], contrib)")
        elif gather is GatherKind.EDGE_DST:
            lines.append("        np.add.at(grad_X, ctx.edge_dst[rows], contrib)")
        elif gather is GatherKind.UNIQUE_SRC:
            lines.append("        np.add.at(grad_X, ctx.unique_src[rows], contrib)")
        elif gather is GatherKind.EDGE_TO_COMPACT:
            lines.append("        np.add.at(grad_X, ctx.edge_to_unique[rows], contrib)")
        else:
            lines.append("        grad_X[rows] += contrib")
        return lines

    def _gemm_wgrad_body(self, kernel: GemmKernel) -> List[str]:
        """``dW[T] += Xᵀ[G] × dY[S]`` — the per-type outer-product kernel."""
        grad_y_buffer = kernel.weight.buffer  # holds grad of the forward output
        grad_w_buffer = kernel.y.buffer
        base_w = grad_w_buffer[5:] if grad_w_buffer.startswith("grad_") else grad_w_buffer
        lines: List[str] = []
        lines.append(f"    _ensure_grad(env, '{base_w}')")
        lines.append(f"    grad_W = env['{grad_w_buffer}']")
        if kernel.type_selector == "none":
            lines.append(f"    grad_W += env['{kernel.x.buffer}'].T @ env['{grad_y_buffer}']")
            return lines
        weight_idx = self._gemm_weight_index(kernel)
        lines.append("    for t in range(num_segments):")
        lines.append("        start, end = seg_ptr[t], seg_ptr[t + 1]")
        lines.append("        if end <= start:")
        lines.append("            continue")
        lines += self._gemm_rows_and_gather(kernel)
        lines.append(f"        gY = env['{grad_y_buffer}'][rows]")
        lines.append(f"        grad_W[{weight_idx}] += Xg.T @ gY")
        return lines

    # ==================================================================
    # Traversal template
    # ==================================================================
    def _generate_traversal(self, kernel: TraversalKernel) -> str:
        lines = [f"def kernel_{kernel.name}(env, ctx):"]
        lines.append(f'    """{kernel.describe()}"""')
        lines += self._traversal_domain_header(kernel)
        if kernel.direction == "forward":
            for op in kernel.micro_ops:
                lines += self._traversal_forward_micro_op(kernel, op)
        else:
            for op in reversed(kernel.micro_ops):
                lines += self._traversal_backward_micro_op(kernel, op)
        return "\n".join(lines)

    def _traversal_domain_header(self, kernel: TraversalKernel) -> List[str]:
        lines: List[str] = []
        if kernel.domain is Space.EDGE:
            lines.append("    n_rows = ctx.num_edges")
            lines.append("    src, dst, typ = ctx.edge_src, ctx.edge_dst, ctx.edge_type")
        elif kernel.domain is Space.COMPACT:
            lines.append("    n_rows = ctx.num_unique")
            lines.append("    src, dst, typ = ctx.unique_src, None, ctx.unique_etype")
        else:
            lines.append("    n_rows = ctx.num_nodes")
            lines.append("    src, dst, typ = None, None, ctx.node_type_ids")
        return lines

    def _operand_expr(self, op: MicroOp, name: str) -> str:
        access = op.attrs.get("access", {}).get(name, "direct")
        if access == "src":
            return f"env['{name}'][src]"
        if access == "dst":
            return f"env['{name}'][dst]"
        if access == "compact":
            return f"env['{name}'][ctx.edge_to_unique]"
        if access == "weight":
            selector = op.attrs.get("type_selector", "etype")
            if selector == "src_ntype":
                return f"env['{name}'][ctx.node_type_ids[src]]"
            if selector == "dst_ntype":
                return f"env['{name}'][ctx.node_type_ids[dst]]"
            return f"env['{name}'][typ]"
        return f"env['{name}']"

    def _output_shape_expr(self, kernel: TraversalKernel, op: MicroOp) -> str:
        info = kernel.buffer_infos.get(op.output)
        if info is None or not info.feature_shape:
            feature = ""
        else:
            feature = ", " + ", ".join(str(int(d)) for d in info.feature_shape)
        if op.kind == "scatter_add":
            return f"(ctx.num_nodes{feature})"
        if info is not None and info.space is Space.COMPACT:
            return f"(ctx.num_unique{feature})"
        if info is not None and info.space is Space.NODE:
            return f"(ctx.num_nodes{feature})"
        if info is not None and info.space is Space.EDGE:
            return f"(ctx.num_edges{feature})"
        return f"(n_rows{feature})"

    def _traversal_forward_micro_op(self, kernel: TraversalKernel, op: MicroOp) -> List[str]:
        lines = [f"    # {op.output} = {op.kind}({', '.join(op.inputs)})"]
        out = op.output
        if op.kind == "dot":
            a, b = (self._operand_expr(op, n) for n in op.inputs)
            lines.append(f"    env['{out}'] = np.sum({a} * {b}, axis=-1)")
        elif op.kind == "typed_vec_dot":
            a = self._operand_expr(op, op.inputs[0])
            op.attrs.setdefault("access", {})[op.inputs[1]] = "weight"
            w = self._operand_expr(op, op.inputs[1])
            lines.append(f"    env['{out}'] = np.sum({a} * {w}, axis=-1)")
        elif op.kind == "binary":
            a = self._operand_expr(op, op.inputs[0])
            b = self._operand_expr(op, op.inputs[1])
            symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op.attrs.get("op", "add")]
            lines.append(f"    _a, _b = _align({a}, {b})")
            lines.append(f"    env['{out}'] = _a {symbol} _b")
        elif op.kind == "unary":
            x = self._operand_expr(op, op.inputs[0])
            fn = op.attrs.get("fn", "relu")
            if fn == "exp" and op.attrs.get("max_shift") and kernel.domain is Space.EDGE:
                # Per-destination max shift, constant w.r.t. the gradient.
                lines.append(f"    _x = {x}")
                lines.append("    _m = np.full((ctx.num_nodes,) + _x.shape[1:], -np.inf, dtype=_x.dtype)")
                lines.append("    np.maximum.at(_m, dst, _x)")
                lines.append(f"    env['{out}'] = np.exp(_x - _m[dst])")
            elif fn == "exp":
                lines.append(f"    env['{out}'] = np.exp({x})")
            elif fn == "leaky_relu":
                slope = op.attrs.get("negative_slope", 0.01)
                lines.append(f"    _x = {x}")
                lines.append(f"    env['{out}'] = np.where(_x > 0, _x, _x * {slope})")
            elif fn == "scale_const":
                constant = op.attrs.get("constant", 1.0)
                lines.append(f"    env['{out}'] = {x} * {constant}")
            else:
                lines.append(f"    env['{out}'] = np.maximum({x}, 0.0)")
        elif op.kind == "scale":
            x = self._operand_expr(op, op.inputs[0])
            s = self._operand_expr(op, op.inputs[1])
            lines.append(f"    _a, _b = _align({x}, {s})")
            lines.append(f"    env['{out}'] = _a * _b")
        elif op.kind == "copy":
            x = self._operand_expr(op, op.inputs[0])
            lines.append(f"    env['{out}'] = np.array({x}, copy=True)")
        elif op.kind == "scatter_add":
            value = self._operand_expr(op, op.inputs[0])
            shape = self._output_shape_expr(kernel, op)
            # _ensure zero-fills on both allocation and reuse.
            lines.append(f"    Y = _ensure(env, '{out}', {shape})")
            lines.append(f"    _contrib = {value}")
            if op.attrs.get("weighted") and len(op.inputs) > 1:
                scale = self._operand_expr(op, op.inputs[1])
                lines.append(f"    _c, _s = _align(_contrib, {scale})")
                lines.append("    _contrib = _c * _s")
            lines.append("    np.add.at(Y, dst, _contrib)")
        else:
            raise ValueError(f"unknown micro-op kind {op.kind!r}")
        return lines

    # -- adjoints ---------------------------------------------------------
    def _accumulate_grad(self, op: MicroOp, name: str, grad_expr: str) -> List[str]:
        """Accumulate ``grad_expr`` into the gradient buffer of operand ``name``."""
        access = op.attrs.get("access", {}).get(name, "direct")
        lines = [f"    _ensure_grad(env, '{name}')"]
        target = f"env['grad_{name}']"
        if access == "src":
            lines.append(f"    np.add.at({target}, src, {grad_expr})")
        elif access == "dst":
            lines.append(f"    np.add.at({target}, dst, {grad_expr})")
        elif access == "compact":
            lines.append(f"    np.add.at({target}, ctx.edge_to_unique, {grad_expr})")
        elif access == "weight":
            selector = op.attrs.get("type_selector", "etype")
            if selector == "src_ntype":
                index = "ctx.node_type_ids[src]"
            elif selector == "dst_ntype":
                index = "ctx.node_type_ids[dst]"
            else:
                index = "typ"
            lines.append(f"    np.add.at({target}, {index}, {grad_expr})")
        else:
            lines.append(f"    {target} += {grad_expr}")
        return lines

    def _traversal_backward_micro_op(self, kernel: TraversalKernel, op: MicroOp) -> List[str]:
        lines = [f"    # adjoint of {op.output} = {op.kind}({', '.join(op.inputs)})"]
        out = op.output
        if op.kind == "scatter_add":
            lines.append(f"    _g = env['grad_{out}'][dst]")
            value = self._operand_expr(op, op.inputs[0])
            if op.attrs.get("weighted") and len(op.inputs) > 1:
                scale = self._operand_expr(op, op.inputs[1])
                lines.append(f"    _gm, _s = _align(_g, {scale})")
                lines += self._accumulate_grad(op, op.inputs[0], "_gm * _s")
                lines.append(f"    _gs = np.sum(_g * {value}, axis=-1)")
                lines += self._accumulate_grad(op, op.inputs[1], "_gs")
            else:
                lines += self._accumulate_grad(op, op.inputs[0], "_g")
            return lines
        lines.append(f"    _g = env['grad_{out}']")
        if op.kind == "dot":
            a = self._operand_expr(op, op.inputs[0])
            b = self._operand_expr(op, op.inputs[1])
            lines += self._accumulate_grad(op, op.inputs[0], f"_g[:, None] * {b}")
            lines += self._accumulate_grad(op, op.inputs[1], f"_g[:, None] * {a}")
        elif op.kind == "typed_vec_dot":
            a = self._operand_expr(op, op.inputs[0])
            op.attrs.setdefault("access", {})[op.inputs[1]] = "weight"
            w = self._operand_expr(op, op.inputs[1])
            lines += self._accumulate_grad(op, op.inputs[0], f"_g[:, None] * {w}")
            lines += self._accumulate_grad(op, op.inputs[1], f"_g[:, None] * {a}")
        elif op.kind == "binary":
            a = self._operand_expr(op, op.inputs[0])
            b = self._operand_expr(op, op.inputs[1])
            symbol = op.attrs.get("op", "add")
            scalars = op.attrs.get("scalar", {})
            a_scalar = scalars.get(op.inputs[0], False)
            b_scalar = scalars.get(op.inputs[1], False)
            if symbol == "add":
                grad_a, grad_b = "_g", "_g"
            elif symbol == "sub":
                grad_a, grad_b = "_g", "-_g"
            elif symbol == "mul":
                lines.append(f"    _a, _b = _align({a}, {b})")
                grad_a, grad_b = "_g * _b", "_g * _a"
            else:  # div
                lines.append(f"    _a, _b = _align({a}, {b})")
                grad_a, grad_b = "_g / _b", "-_g * _a / (_b ** 2)"
            lines.append(f"    _ga = {grad_a}")
            lines.append(f"    _gb = {grad_b}")
            if a_scalar:
                lines.append("    _ga = np.sum(_ga, axis=-1) if _ga.ndim > 1 else _ga")
            if b_scalar:
                lines.append("    _gb = np.sum(_gb, axis=-1) if _gb.ndim > 1 else _gb")
            lines += self._accumulate_grad(op, op.inputs[0], "_ga")
            lines += self._accumulate_grad(op, op.inputs[1], "_gb")
        elif op.kind == "unary":
            x = self._operand_expr(op, op.inputs[0])
            fn = op.attrs.get("fn", "relu")
            if fn == "exp":
                lines.append(f"    _gx = _g * env['{out}']")
            elif fn == "leaky_relu":
                slope = op.attrs.get("negative_slope", 0.01)
                lines.append(f"    _gx = _g * np.where({x} > 0, 1.0, {slope})")
            elif fn == "scale_const":
                constant = op.attrs.get("constant", 1.0)
                lines.append(f"    _gx = _g * {constant}")
            else:
                lines.append(f"    _gx = _g * ({x} > 0)")
            lines += self._accumulate_grad(op, op.inputs[0], "_gx")
        elif op.kind == "scale":
            x = self._operand_expr(op, op.inputs[0])
            s = self._operand_expr(op, op.inputs[1])
            lines.append(f"    _gx, _s = _align(_g, {s})")
            lines += self._accumulate_grad(op, op.inputs[0], "_gx * _s")
            lines.append(f"    _gs = np.sum(_g * {x}, axis=-1)")
            lines += self._accumulate_grad(op, op.inputs[1], "_gs")
        elif op.kind == "copy":
            lines += self._accumulate_grad(op, op.inputs[0], "_g")
        else:
            raise ValueError(f"unknown micro-op kind {op.kind!r}")
        return lines

    # ==================================================================
    # Fallback kernels (PyTorch-call path)
    # ==================================================================
    def _generate_fallback(self, kernel: FallbackKernel) -> str:
        lines = [f"def kernel_{kernel.name}(env, ctx):"]
        lines.append(f'    """{kernel.describe()}"""')
        if kernel.op_kind == "weight_product":
            lines += self._fallback_weight_product_forward(kernel)
        elif kernel.op_kind == "weight_product_backward":
            lines += self._fallback_weight_product_backward(kernel)
        else:
            lines.append(f"    raise NotImplementedError('fallback op {kernel.op_kind} has no runtime')")
        return "\n".join(lines)

    def _fallback_weight_product_forward(self, kernel: FallbackKernel) -> List[str]:
        a_name, a_info = kernel.inputs[0]
        b_name, b_info = kernel.inputs[1]
        out_name, _ = kernel.output
        compose = kernel.attrs.get("compose")
        lines: List[str] = []
        if compose == "src_ntype_x_etype":
            lines.append(f"    A = env['{a_name}'][ctx.etype_to_src_ntype]")
        else:
            lines.append(f"    A = env['{a_name}']")
        lines.append(f"    B = env['{b_name}']")
        if len(b_info.feature_shape) == 1:
            lines.append(f"    env['{out_name}'] = np.einsum('tij,tj->ti', A, B)")
        else:
            lines.append(f"    env['{out_name}'] = np.matmul(A, B)")
        return lines

    def _fallback_weight_product_backward(self, kernel: FallbackKernel) -> List[str]:
        # inputs: [grad_out, A, B]; output: grad_A (grad_B is also accumulated).
        grad_out_name, _ = kernel.inputs[0]
        a_name, a_info = kernel.inputs[1]
        b_name, b_info = kernel.inputs[2]
        compose = kernel.attrs.get("compose")
        lines: List[str] = []
        lines.append(f"    _ensure_grad(env, '{a_name}')")
        lines.append(f"    _ensure_grad(env, '{b_name}')")
        lines.append(f"    G = env['{grad_out_name}']")
        if compose == "src_ntype_x_etype":
            lines.append(f"    A = env['{a_name}'][ctx.etype_to_src_ntype]")
        else:
            lines.append(f"    A = env['{a_name}']")
        lines.append(f"    B = env['{b_name}']")
        if len(b_info.feature_shape) == 1:
            lines.append("    gA = np.einsum('ti,tj->tij', G, B)")
            lines.append("    gB = np.einsum('tij,ti->tj', A, G)")
        else:
            lines.append("    gA = np.einsum('tik,tjk->tij', G, B)")
            lines.append("    gB = np.einsum('tij,tik->tjk', A, G)")
        if compose == "src_ntype_x_etype":
            lines.append(f"    np.add.at(env['grad_{a_name}'], ctx.etype_to_src_ntype, gA)")
        else:
            lines.append(f"    env['grad_{a_name}'] += gA")
        lines.append(f"    env['grad_{b_name}'] += gB")
        return lines
