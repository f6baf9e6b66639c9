"""Builder DSL for inter-operator level programs.

Models are expressed against this builder in a handful of lines (the paper's
"51 lines of code" for RGCN + RGAT + HGT); each builder call appends one
operator to the program.  The surface closely follows Listing 1 /
Table 2 of the paper: edgewise statements, nodewise aggregation with
``incoming_edges()`` semantics, weight slicing by ``e.etype`` / ``n.ntype``,
and an ``edge_softmax`` helper expanded into primitive operators.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.inter_op.operators import Operator, OpKind
from repro.ir.inter_op.program import InterOpProgram
from repro.ir.inter_op.space import (
    LoopContext,
    NodeBinding,
    Space,
    TypeSelector,
    ValueInfo,
)


class ProgramBuilder:
    """Incrementally builds an :class:`InterOpProgram`.

    Args:
        name: program name.
        in_dim: input feature dimension.
        out_dim: output feature dimension.
    """

    def __init__(self, name: str, in_dim: int, out_dim: int):
        self.program = InterOpProgram(name=name, in_dim=in_dim, out_dim=out_dim)
        self._op_counter = 0

    # ------------------------------------------------------------------
    # value declarations
    # ------------------------------------------------------------------
    def input_node_feature(self, name: str = "h", dim: Optional[int] = None) -> str:
        """Declare the per-node input feature matrix."""
        dim = dim if dim is not None else self.program.in_dim
        self.program.add_value(
            ValueInfo(name=name, space=Space.NODE, feature_shape=(dim,), is_input=True)
        )
        return name

    def input_edge_scalar(self, name: str) -> str:
        """Declare a per-edge scalar input (e.g. RGCN normalisation factors)."""
        self.program.add_value(ValueInfo(name=name, space=Space.EDGE, feature_shape=(), is_input=True))
        return name

    def weight(
        self,
        name: str,
        shape: Tuple[int, ...],
        per_type: Optional[str] = "edge_type",
    ) -> str:
        """Declare a learnable weight.

        Args:
            name: weight name.
            shape: per-slice shape, e.g. ``(in_dim, out_dim)`` or ``(out_dim,)``.
            per_type: ``"edge_type"``, ``"node_type"``, or ``None`` for a
                single shared weight.
        """
        self.program.add_value(
            ValueInfo(
                name=name,
                space=Space.WEIGHT,
                feature_shape=tuple(shape),
                per_type=per_type,
                is_parameter=True,
            )
        )
        return name

    def mark_output(self, name: str) -> str:
        """Mark an existing value as a layer output."""
        self.program.values[name].is_output = True
        return name

    # ------------------------------------------------------------------
    # operator emission
    # ------------------------------------------------------------------
    def _next_name(self, stem: str) -> str:
        self._op_counter += 1
        return f"op{self._op_counter}_{stem}"

    def _emit(
        self,
        kind: OpKind,
        context: LoopContext,
        inputs,
        output_name: str,
        output_space: Space,
        output_shape: Tuple[int, ...],
        type_selector: TypeSelector = TypeSelector.NONE,
        bindings: Optional[Dict[str, NodeBinding]] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> str:
        if output_name not in self.program.values:
            self.program.add_value(
                ValueInfo(name=output_name, space=output_space, feature_shape=output_shape)
            )
        operator = Operator(
            name=self._next_name(kind.value),
            kind=kind,
            context=context,
            inputs=list(inputs),
            output=output_name,
            type_selector=type_selector,
            bindings=bindings or {},
            attrs=attrs or {},
        )
        self.program.add_operator(operator)
        return output_name

    # -- GEMM-eligible ---------------------------------------------------
    def typed_linear(
        self,
        x: str,
        weight: str,
        out: str,
        binding: NodeBinding = NodeBinding.SRC,
        type_selector: TypeSelector = TypeSelector.EDGE_TYPE,
        context: LoopContext = LoopContext.EDGEWISE,
    ) -> str:
        """``out[i] = x[i] @ weight[type(i)]`` — edgewise or nodewise typed linear."""
        out_dim = self.program.values[weight].feature_shape[-1]
        out_space = Space.EDGE if context is LoopContext.EDGEWISE else Space.NODE
        x_space = self.program.values[x].space
        bindings = {}
        if x_space is Space.NODE and context is LoopContext.EDGEWISE:
            bindings[x] = binding
        return self._emit(
            OpKind.TYPED_LINEAR,
            context,
            [x, weight],
            out,
            out_space,
            (out_dim,),
            type_selector=type_selector,
            bindings=bindings,
        )

    def linear(self, x: str, weight: str, out: str, context: LoopContext = LoopContext.NODEWISE) -> str:
        """``out[i] = x[i] @ weight`` — untyped linear layer (e.g. RGCN's W0)."""
        out_dim = self.program.values[weight].feature_shape[-1]
        out_space = self.program.values[x].space if context is not LoopContext.NODEWISE else Space.NODE
        return self._emit(OpKind.LINEAR, context, [x, weight], out, out_space, (out_dim,))

    # -- traversal-eligible ----------------------------------------------
    def dot_product(self, a: str, b: str, out: str, context: LoopContext = LoopContext.EDGEWISE,
                    bindings: Optional[Dict[str, NodeBinding]] = None) -> str:
        """Rowwise dot product producing a per-row scalar."""
        space = Space.EDGE if context is LoopContext.EDGEWISE else Space.NODE
        return self._emit(OpKind.DOT_PRODUCT, context, [a, b], out, space, (), bindings=bindings)

    def typed_vec_dot(
        self,
        a: str,
        weight_vec: str,
        out: str,
        binding: NodeBinding = NodeBinding.NONE,
        type_selector: TypeSelector = TypeSelector.EDGE_TYPE,
    ) -> str:
        """``out[e] = <a[e], weight_vec[type(e)]>`` — dot with a per-type vector."""
        bindings = {}
        if self.program.values[a].space is Space.NODE and binding is not NodeBinding.NONE:
            bindings[a] = binding
        return self._emit(
            OpKind.TYPED_VEC_DOT,
            LoopContext.EDGEWISE,
            [a, weight_vec],
            out,
            Space.EDGE,
            (),
            type_selector=type_selector,
            bindings=bindings,
        )

    def binary(self, op: str, a: str, b: str, out: str,
               context: LoopContext = LoopContext.EDGEWISE,
               bindings: Optional[Dict[str, NodeBinding]] = None) -> str:
        """Rowwise binary arithmetic (``add`` / ``sub`` / ``mul`` / ``div``)."""
        shape = self.program.values[a].feature_shape or self.program.values[b].feature_shape
        space = Space.EDGE if context is LoopContext.EDGEWISE else Space.NODE
        return self._emit(OpKind.BINARY, context, [a, b], out, space, shape,
                          bindings=bindings, attrs={"op": op})

    def unary(self, fn: str, x: str, out: str, context: LoopContext = LoopContext.EDGEWISE,
              **attrs) -> str:
        """Rowwise unary function (``exp`` / ``leaky_relu`` / ``relu``)."""
        value = self.program.values[x]
        space = value.space if context is LoopContext.EDGEWISE else Space.NODE
        merged = {"fn": fn}
        merged.update(attrs)
        return self._emit(OpKind.UNARY, context, [x], out, space, value.feature_shape, attrs=merged)

    def scale(self, x: str, scalar: str, out: str) -> str:
        """Multiply per-edge row vectors by a per-edge scalar."""
        shape = self.program.values[x].feature_shape
        return self._emit(OpKind.SCALE, LoopContext.EDGEWISE, [x, scalar], out, Space.EDGE, shape)

    def gather_dst(self, node_value: str, out: str) -> str:
        """Gather a per-destination-node value onto each edge."""
        shape = self.program.values[node_value].feature_shape
        return self._emit(
            OpKind.GATHER_DST,
            LoopContext.EDGEWISE,
            [node_value],
            out,
            Space.EDGE,
            shape,
            bindings={node_value: NodeBinding.DST},
        )

    def aggregate(self, edge_value: str, out: str, scale: Optional[str] = None) -> str:
        """Sum (optionally attention-weighted) edge data into destination nodes."""
        shape = self.program.values[edge_value].feature_shape
        inputs = [edge_value] + ([scale] if scale else [])
        attrs = {"weighted": scale is not None}
        return self._emit(OpKind.AGGREGATE, LoopContext.NODEWISE_AGG, inputs, out, Space.NODE, shape,
                          attrs=attrs)

    # -- manipulation / fallback ------------------------------------------
    def weight_product(self, weight_a: str, weight_b: str, out: str,
                       type_selector: TypeSelector = TypeSelector.EDGE_TYPE) -> str:
        """Product of two per-type weights (introduced by reordering)."""
        a_shape = self.program.values[weight_a].feature_shape
        b_shape = self.program.values[weight_b].feature_shape
        if len(b_shape) == 1:
            out_shape: Tuple[int, ...] = (a_shape[0],)
        else:
            out_shape = (a_shape[0], b_shape[-1])
        per_type = self.program.values[weight_a].per_type or self.program.values[weight_b].per_type
        if out not in self.program.values:
            self.program.add_value(
                ValueInfo(name=out, space=Space.WEIGHT, feature_shape=out_shape, per_type=per_type)
            )
        operator = Operator(
            name=self._next_name(OpKind.WEIGHT_PRODUCT.value),
            kind=OpKind.WEIGHT_PRODUCT,
            context=LoopContext.PRELUDE,
            inputs=[weight_a, weight_b],
            output=out,
            type_selector=type_selector,
        )
        self.program.add_operator(operator)
        return out

    def copy(self, x: str, out: str) -> str:
        """Identity copy (rename)."""
        value = self.program.values[x]
        return self._emit(OpKind.COPY, LoopContext.EDGEWISE if value.space is Space.EDGE
                          else LoopContext.NODEWISE, [x], out, value.space, value.feature_shape)

    # ------------------------------------------------------------------
    # composite helpers
    # ------------------------------------------------------------------
    def edge_softmax(self, scores: str, out: str) -> str:
        """Expand ``edge_softmax`` into primitive operators (Listing 1).

        ``exp`` per edge → per-destination sum → gather the sum back onto
        edges → divide.  The expansion mirrors lines 1-9 of Listing 1 so the
        later fusion/lowering passes see exactly the same structure.  The
        ``exp`` is marked ``max_shift`` so an executing backend subtracts the
        per-destination max score first (the Python traversal emitter does):
        the shift cancels in the division but keeps ``exp`` finite and every
        denominator >= 1.
        """
        exp_scores = self.unary("exp", scores, f"{out}_exp", max_shift=True)
        att_sum = self.aggregate(exp_scores, f"{out}_sum")
        att_sum_on_edges = self.gather_dst(att_sum, f"{out}_sum_edges")
        return self.binary("div", exp_scores, att_sum_on_edges, out)

    # ------------------------------------------------------------------
    def finish(self) -> InterOpProgram:
        """Validate and return the built program."""
        self.program.validate()
        return self.program
