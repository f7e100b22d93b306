"""Native (C) lowering of the conversion IR: emit, build, bind.

The third lowering backend.  Where :mod:`repro.ir.printer` prints the
per-level conversion IR as Python loops and :mod:`repro.ir.vector`
re-derives it as bulk numpy, this module walks the *same* scalar
:class:`~repro.ir.nodes.FuncDef` — attribute-query passes, coordinate
remapping, the two-pass count/scatter shape — and prints it as a
self-contained C translation unit, then compiles it with the host
compiler into a shared object loaded through :mod:`ctypes`.

Three pieces live here, deliberately independent of the planner so the
IR layer stays self-contained:

* :func:`emit_c` — the C printer.  Fixed calling convention (every
  scalar is ``int64_t``, every values array ``double``)::

      int64_t <name>(void **in_arrays, const int64_t *in_scalars,
                     void **out_arrays, int64_t *out_lens,
                     int64_t *out_scalars);

  Input arrays/scalars arrive in the kernel's existing parameter order,
  outputs leave in its ``Return`` order (arrays and metadata each
  packed densely).  The routine returns non-zero only on allocation
  failure; output arrays are malloc'd by the kernel and owned by the
  caller, who releases them through the exported ``repro_native_free``.
  Every IR loop prints as one serial C loop.  Constructs the printer
  cannot translate raise :class:`NativeUnsupported`.

* :func:`detect_toolchain` — memoized compiler probe (honours ``$CC``),
  returning a :class:`Toolchain` whose ``fingerprint`` keys the kernel
  cache: a record built by one compiler is never loaded under another.

* :func:`build_shared` / :func:`load_kernel` — compile to a ``.so``
  (atomically: the compiler writes a unique temp name which is
  ``os.replace``d into place, so concurrent builds of the same kernel
  never clobber each other) and bind the entry point through ctypes
  behind a wrapper with the same calling convention as the generated
  Python kernels (``func(*args) -> value or tuple``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .nodes import (
    Alloc,
    Assign,
    AugAssign,
    AugStore,
    BinOp,
    Block,
    Call,
    Comment,
    Const,
    Expr,
    ExprStmt,
    For,
    FuncDef,
    If,
    Load,
    Pass,
    Return,
    Stmt,
    Store,
    Ternary,
    UnOp,
    Var,
    While,
)


class NativeUnsupported(Exception):
    """The scalar plan uses a construct the C emitter cannot translate."""


class NativeBuildError(RuntimeError):
    """The host compiler failed to build a generated translation unit."""


#: C type spellings of the two-letter internal type codes.
_CTYPE = {"i": "int64_t", "f": "double"}

#: Names the generated kernel may not use for its own variables (they
#: would shadow the ABI parameters or the runtime helpers).
_RESERVED = frozenset(
    {
        "in_arrays", "in_scalars", "out_arrays", "out_lens",
        "out_scalars", "repro_alloc", "repro_native_free",
        "repro_floordiv",
        "repro_floormod", "repro_min_i", "repro_max_i", "repro_min_f",
        "repro_max_f", "repro_next_pow2",
        # C keywords a sanitized IR name could collide with
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
    }
)

_PREAMBLE = """\
#include <stdint.h>
#include <stdlib.h>

#define REPRO_EXPORT __attribute__((visibility("default")))

static void *repro_alloc(int64_t count, size_t width, int zero) {
    size_t n = (size_t)(count > 0 ? count : 1) * width;
    return zero ? calloc(1, n) : malloc(n);
}

REPRO_EXPORT void repro_native_free(void *p) { free(p); }

/* Python floor semantics for // and % on signed operands. */
static inline int64_t repro_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}

static inline int64_t repro_floormod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

static inline int64_t repro_min_i(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t repro_max_i(int64_t a, int64_t b) { return a > b ? a : b; }
static inline double repro_min_f(double a, double b) { return a < b ? a : b; }
static inline double repro_max_f(double a, double b) { return a > b ? a : b; }

static inline int64_t repro_next_pow2(int64_t n) {
    int64_t width = 2;
    while (width < n) width *= 2;
    return width;
}
"""


# ---------------------------------------------------------------------------
# the C printer
# ---------------------------------------------------------------------------


class _CEmitter:
    """Prints one scalar-IR :class:`FuncDef` as a C translation unit.

    ``params`` / ``outputs`` are the kernel's calling convention as the
    planner records it: ``(side, level, name)`` triples aligned with
    ``func.params`` and the final ``Return``'s values respectively
    (``level == -1`` marks the float64 values array; everything else is
    ``int64``).
    """

    def __init__(
        self,
        func: FuncDef,
        params: Sequence[Tuple[str, int, str]],
        outputs: Sequence[Tuple[str, int, str]],
    ) -> None:
        if len(params) != len(func.params):
            raise NativeUnsupported("calling convention does not match params")
        self.func = func
        self.params = list(params)
        self.outputs = list(outputs)
        self.lines: List[str] = []
        self.indent = 1
        #: array name -> element type code ("i" / "f")
        self.arrays: Dict[str, str] = {}
        #: scalar name -> type code
        self.scalars: Dict[str, str] = {}
        #: Alloc'd array name -> its length variable name
        self.lengths: Dict[str, str] = {}
        #: trim-alias name -> owning Alloc'd array name
        self.alias_root: Dict[str, str] = {}
        #: Alloc targets, in first-allocation order (for cleanup)
        self.alloc_order: List[str] = []
        self._alloc_counts: Dict[str, int] = {}
        #: loop vars that are also plain assignment targets: they must be
        #: declared at function scope (Python loop vars outlive the loop)
        self.shared_loop_vars: Set[str] = set()
        self._tmp = 0
        self._returned = False

    # -- small helpers --------------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, stem: str) -> str:
        self._tmp += 1
        return f"_{stem}{self._tmp}"

    def _root(self, name: str) -> str:
        while name in self.alias_root:
            name = self.alias_root[name]
        return name

    def _length_of(self, name: str) -> str:
        length = self.lengths.get(name)
        if length is None:
            raise NativeUnsupported(
                f"array {name!r} has no tracked length (runtime call on a "
                "parameter array)"
            )
        return length

    # -- pre-pass: classify every name ----------------------------------
    def _prepass(self) -> None:
        for (side, level, _), name in zip(self.params, self.func.params):
            if name in _RESERVED:
                raise NativeUnsupported(f"parameter name {name!r} is reserved")
            if side == "src_array":
                self.arrays[name] = "f" if level == -1 else "i"
            else:  # src_meta / dim
                self.scalars[name] = "i"
        assigned: Set[str] = set()
        loop_vars: Set[str] = set()

        def scan(stmt: Stmt) -> None:
            if isinstance(stmt, Block):
                for child in stmt.stmts:
                    scan(child)
            elif isinstance(stmt, Alloc):
                name = stmt.target.name
                if name in _RESERVED:
                    raise NativeUnsupported(f"name {name!r} is reserved")
                if stmt.dtype not in ("int64", "float64", "bool"):
                    raise NativeUnsupported(f"alloc dtype {stmt.dtype!r}")
                self.arrays[name] = "f" if stmt.dtype == "float64" else "i"
                self.lengths[name] = f"{name}_len"
                self._alloc_counts[name] = self._alloc_counts.get(name, 0) + 1
                if name not in self.alloc_order:
                    self.alloc_order.append(name)
            elif isinstance(stmt, Assign):
                name = stmt.target.name
                if name in _RESERVED:
                    raise NativeUnsupported(f"name {name!r} is reserved")
                if isinstance(stmt.value, Call) and stmt.value.func == "trim":
                    src = stmt.value.args[0]
                    if not isinstance(src, Var) or src.name not in self.arrays:
                        raise NativeUnsupported("trim of a non-array value")
                    self.arrays[name] = self.arrays[src.name]
                    self.lengths[name] = f"{name}_len"
                    if name != src.name:
                        self.alias_root[name] = src.name
                else:
                    assigned.add(name)
                    if name not in self.scalars:
                        self.scalars[name] = self._expr_type(stmt.value)
            elif isinstance(stmt, AugAssign):
                name = stmt.target.name
                assigned.add(name)
                if name not in self.scalars:
                    self.scalars[name] = self._expr_type(stmt.value)
            elif isinstance(stmt, For):
                name = stmt.var.name
                if name in _RESERVED:
                    raise NativeUnsupported(f"name {name!r} is reserved")
                loop_vars.add(name)
                self.scalars.setdefault(name, "i")
                scan(stmt.body)
            elif isinstance(stmt, (While,)):
                scan(stmt.body)
            elif isinstance(stmt, If):
                scan(stmt.then)
                if stmt.orelse is not None:
                    scan(stmt.orelse)
            # Store/AugStore/Comment/Pass/ExprStmt/Return bind no names

        scan(self.func.body)
        self.shared_loop_vars = loop_vars & assigned
        overlap = set(self.arrays) & set(self.scalars)
        if overlap:
            raise NativeUnsupported(f"names used as array and scalar: {overlap}")

    def _expr_type(self, expr: Expr) -> str:
        """Infer "i" (int64) or "f" (double) for a value expression."""
        if isinstance(expr, Var):
            if expr.name in self.arrays:
                raise NativeUnsupported(f"array {expr.name!r} used as a value")
            return self.scalars.get(expr.name, "i")
        if isinstance(expr, Const):
            return "f" if isinstance(expr.value, float) else "i"
        if isinstance(expr, BinOp):
            if expr.op in ("<", "<=", ">", ">=", "==", "!="):
                return "i"
            lhs, rhs = self._expr_type(expr.lhs), self._expr_type(expr.rhs)
            if expr.op in ("//", "%", "<<", ">>", "&", "|", "^"):
                if "f" in (lhs, rhs):
                    raise NativeUnsupported(f"float operand to {expr.op!r}")
                return "i"
            if expr.op == "/":
                raise NativeUnsupported("true division has no int64 lowering")
            return "f" if "f" in (lhs, rhs) else "i"
        if isinstance(expr, UnOp):
            return "i" if expr.op == "not" else self._expr_type(expr.operand)
        if isinstance(expr, Load):
            if not isinstance(expr.array, Var):
                raise NativeUnsupported("computed array expressions")
            if expr.array.name not in self.arrays:
                raise NativeUnsupported(f"load from unknown array {expr.array}")
            return self.arrays[expr.array.name]
        if isinstance(expr, Call):
            if expr.func in ("min", "max"):
                types = {self._expr_type(a) for a in expr.args}
                return "f" if "f" in types else "i"
            if expr.func == "next_pow2":
                return "i"
            raise NativeUnsupported(f"call to {expr.func!r} in value position")
        if isinstance(expr, Ternary):
            types = {
                self._expr_type(expr.if_true), self._expr_type(expr.if_false)
            }
            return "f" if "f" in types else "i"
        raise NativeUnsupported(f"cannot type {expr!r}")

    # -- expression printing --------------------------------------------
    def cexpr(self, expr: Expr, as_bool: bool = False) -> str:
        """Print an expression; ``as_bool`` marks condition context, where
        ``and``/``or`` lower to ``&&``/``||`` instead of Python's
        value-returning short-circuit forms."""
        if isinstance(expr, Var):
            if expr.name in self.arrays:
                raise NativeUnsupported(f"array {expr.name!r} used as a value")
            return expr.name
        if isinstance(expr, Const):
            value = expr.value
            if isinstance(value, bool):
                return "1" if value else "0"
            if isinstance(value, int):
                return f"{value}LL" if abs(value) > 2**31 else str(value)
            text = repr(float(value))
            return text if ("." in text or "e" in text or "n" in text) else text + ".0"
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                lhs = self.cexpr(expr.lhs, as_bool)
                rhs = self.cexpr(expr.rhs, as_bool)
                if as_bool:
                    c_op = "&&" if expr.op == "and" else "||"
                    return f"(({lhs}) {c_op} ({rhs}))"
                # Python's value semantics: `a or b` is a if truthy else b
                if expr.op == "or":
                    return f"(({lhs}) ? ({lhs}) : ({rhs}))"
                return f"(({lhs}) ? ({rhs}) : ({lhs}))"
            lhs = self.cexpr(expr.lhs)
            rhs = self.cexpr(expr.rhs)
            if expr.op == "//":
                self._expr_type(expr)  # reject float operands
                return f"repro_floordiv({lhs}, {rhs})"
            if expr.op == "%":
                self._expr_type(expr)
                return f"repro_floormod({lhs}, {rhs})"
            if expr.op == "/":
                raise NativeUnsupported("true division has no int64 lowering")
            return f"({lhs} {expr.op} {rhs})"
        if isinstance(expr, UnOp):
            operand = self.cexpr(expr.operand, as_bool and expr.op == "not")
            op = "!" if expr.op == "not" else expr.op
            return f"({op}({operand}))"
        if isinstance(expr, Load):
            array = expr.array
            if not isinstance(array, Var) or array.name not in self.arrays:
                raise NativeUnsupported(f"load from unknown array {array!r}")
            return f"{array.name}[{self.cexpr(expr.index)}]"
        if isinstance(expr, Call):
            if expr.func in ("min", "max"):
                suffix = "f" if self._expr_type(expr) == "f" else "i"
                printed = [self.cexpr(a) for a in expr.args]
                out = printed[0]
                for arg in printed[1:]:  # fold n-ary min/max pairwise
                    out = f"repro_{expr.func}_{suffix}({out}, {arg})"
                return out
            if expr.func == "next_pow2":
                return f"repro_next_pow2({self.cexpr(expr.args[0])})"
            raise NativeUnsupported(f"call to {expr.func!r} in value position")
        if isinstance(expr, Ternary):
            return (
                f"(({self.cexpr(expr.cond, as_bool=True)}) ? "
                f"({self.cexpr(expr.if_true)}) : "
                f"({self.cexpr(expr.if_false)}))"
            )
        raise NativeUnsupported(f"cannot print {expr!r}")

    # -- statement printing ---------------------------------------------
    def cstmt(self, stmt: Stmt) -> None:
        """Print one statement."""
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self.cstmt(child)
        elif isinstance(stmt, Comment):
            for line in stmt.text.splitlines():
                self.emit(f"/* {line} */")
        elif isinstance(stmt, Pass):
            self.emit(";")
        elif isinstance(stmt, Assign):
            if isinstance(stmt.value, Call) and stmt.value.func == "trim":
                src = stmt.value.args[0]
                length = self.cexpr(stmt.value.args[1])
                assert isinstance(src, Var)
                self._length_of(src.name)  # trim requires a tracked length
                if stmt.target.name != src.name:
                    self.emit(f"{stmt.target.name} = {src.name};")
                self.emit(f"{stmt.target.name}_len = {length};")
            else:
                self.emit(f"{stmt.target.name} = {self.cexpr(stmt.value)};")
        elif isinstance(stmt, AugAssign):
            name = stmt.target.name
            if stmt.op in ("max", "min"):
                suffix = "f" if self.scalars.get(name) == "f" else "i"
                self.emit(
                    f"{name} = repro_{stmt.op}_{suffix}"
                    f"({name}, {self.cexpr(stmt.value)});"
                )
            elif stmt.op == "or":
                value = self.cexpr(stmt.value)
                self.emit(f"{name} = ({name}) ? ({name}) : ({value});")
            elif stmt.op in ("//", "%"):
                helper = "repro_floordiv" if stmt.op == "//" else "repro_floormod"
                self.emit(f"{name} = {helper}({name}, {self.cexpr(stmt.value)});")
            elif stmt.op in ("+", "-", "*", "&", "|", "^", "<<", ">>"):
                self.emit(f"{name} {stmt.op}= {self.cexpr(stmt.value)};")
            else:
                raise NativeUnsupported(f"augmented op {stmt.op!r}")
        elif isinstance(stmt, Store):
            target = self._store_target(stmt.array, stmt.index)
            self.emit(f"{target} = {self.cexpr(stmt.value)};")
        elif isinstance(stmt, AugStore):
            target = self._store_target(stmt.array, stmt.index)
            if stmt.op in ("max", "min"):
                assert isinstance(stmt.array, Var)
                suffix = "f" if self.arrays[stmt.array.name] == "f" else "i"
                self.emit(
                    f"{target} = repro_{stmt.op}_{suffix}"
                    f"({target}, {self.cexpr(stmt.value)});"
                )
            elif stmt.op == "or":
                value = self.cexpr(stmt.value)
                self.emit(f"{target} = ({target}) ? ({target}) : ({value});")
            elif stmt.op in ("+", "-", "*"):
                self.emit(f"{target} {stmt.op}= {self.cexpr(stmt.value)};")
            else:
                raise NativeUnsupported(f"augmented store op {stmt.op!r}")
        elif isinstance(stmt, For):
            self._emit_for(stmt)
        elif isinstance(stmt, While):
            self.emit(f"while ({self.cexpr(stmt.cond, as_bool=True)}) {{")
            self.indent += 1
            self.cstmt(stmt.body)
            self.indent -= 1
            self.emit("}")
        elif isinstance(stmt, If):
            self.emit(f"if ({self.cexpr(stmt.cond, as_bool=True)}) {{")
            self.indent += 1
            self.cstmt(stmt.then)
            self.indent -= 1
            if stmt.orelse is not None:
                self.emit("} else {")
                self.indent += 1
                self.cstmt(stmt.orelse)
                self.indent -= 1
            self.emit("}")
        elif isinstance(stmt, Alloc):
            self._emit_alloc(stmt)
        elif isinstance(stmt, ExprStmt):
            self._emit_effect_call(stmt.expr)
        elif isinstance(stmt, Return):
            self._emit_return(stmt)
        else:
            raise NativeUnsupported(f"cannot print {stmt!r}")

    def _store_target(self, array: Expr, index: Expr) -> str:
        if not isinstance(array, Var) or array.name not in self.arrays:
            raise NativeUnsupported(f"store into unknown array {array!r}")
        return f"{array.name}[{self.cexpr(index)}]"

    def _emit_for(self, loop: For) -> None:
        var = loop.var.name
        lo, hi = self.cexpr(loop.lo), self.cexpr(loop.hi)
        decl = "" if var in self.shared_loop_vars else "int64_t "
        self.emit(f"for ({decl}{var} = {lo}; {var} < {hi}; ++{var}) {{")
        self.indent += 1
        self.cstmt(loop.body)
        self.indent -= 1
        self.emit("}")

    def _emit_alloc(self, stmt: Alloc) -> None:
        name = stmt.target.name
        ctype = _CTYPE[self.arrays[name]]
        zero = 1 if stmt.init == "zeros" else 0
        if self._alloc_counts.get(name, 0) > 1:
            self.emit(f"if ({name}) {{ free({name}); {name} = NULL; }}")
        self.emit(f"{name}_len = {self.cexpr(stmt.size)};")
        self.emit(
            f"{name} = ({ctype} *)repro_alloc({name}_len, "
            f"sizeof({ctype}), {zero});"
        )
        self.emit(f"if (!{name}) goto fail;")

    def _emit_effect_call(self, expr: Expr) -> None:
        if not isinstance(expr, Call):
            raise NativeUnsupported(f"expression statement {expr!r}")
        if expr.func == "fill":
            array = expr.args[0]
            if not isinstance(array, Var):
                raise NativeUnsupported("fill of a computed array")
            length = self._length_of(array.name)
            value = self.cexpr(expr.args[1])
            counter = self.fresh("i")
            self.emit(
                f"for (int64_t {counter} = 0; {counter} < {length}; "
                f"++{counter}) {array.name}[{counter}] = {value};"
            )
            return
        if expr.func == "prefix_sum":
            array = expr.args[0]
            if not isinstance(array, Var) or array.name not in self.arrays:
                raise NativeUnsupported("prefix_sum of a computed array")
            length = self.cexpr(expr.args[1])
            counter = self.fresh("i")
            self.emit(
                f"for (int64_t {counter} = 1; {counter} < ({length}); "
                f"++{counter}) {array.name}[{counter}] += "
                f"{array.name}[{counter} - 1];"
            )
            return
        raise NativeUnsupported(f"runtime call {expr.func!r}")

    def _emit_return(self, stmt: Return) -> None:
        if len(stmt.values) != len(self.outputs):
            raise NativeUnsupported("return arity does not match outputs")
        kept: Set[str] = set()
        array_slot = 0
        scalar_slot = 0
        for (side, _, _), value in zip(self.outputs, stmt.values):
            if side == "dst_array":
                if not isinstance(value, Var) or value.name not in self.arrays:
                    raise NativeUnsupported(f"returned array {value!r}")
                name = value.name
                self.emit(f"out_arrays[{array_slot}] = (void *){name};")
                self.emit(f"out_lens[{array_slot}] = {self._length_of(name)};")
                kept.add(self._root(name))
                array_slot += 1
            else:
                self.emit(f"out_scalars[{scalar_slot}] = {self.cexpr(value)};")
                scalar_slot += 1
        for name in self.alloc_order:
            if name not in kept:
                self.emit(f"free({name});")
        self.emit("return 0;")
        self._returned = True

    # -- whole translation unit -----------------------------------------
    def translation_unit(self) -> str:
        self._prepass()
        out: List[str] = [_PREAMBLE]
        if self.func.docstring:
            out.append("/*")
            for line in self.func.docstring.splitlines() or [""]:
                out.append(f" * {line}".rstrip())
            out.append(" */")
        out.append(
            f"REPRO_EXPORT int64_t {self.func.name}(\n"
            "    void **in_arrays, const int64_t *in_scalars,\n"
            "    void **out_arrays, int64_t *out_lens,\n"
            "    int64_t *out_scalars)\n{"
        )
        self.lines = []
        self.emit("(void)out_scalars;")
        array_slot = 0
        scalar_slot = 0
        for (side, level, _), name in zip(self.params, self.func.params):
            if side == "src_array":
                ctype = _CTYPE["f" if level == -1 else "i"]
                self.emit(
                    f"{ctype} *{name} = ({ctype} *)in_arrays[{array_slot}];"
                )
                array_slot += 1
            else:
                self.emit(f"int64_t {name} = in_scalars[{scalar_slot}];")
                scalar_slot += 1
        if array_slot == 0:
            self.emit("(void)in_arrays;")
        if scalar_slot == 0:
            self.emit("(void)in_scalars;")
        for name in self.alloc_order:
            ctype = _CTYPE[self.arrays[name]]
            self.emit(f"{ctype} *{name} = NULL;")
            self.emit(f"int64_t {name}_len = 0;")
        for name in sorted(self.alias_root):
            ctype = _CTYPE[self.arrays[name]]
            self.emit(f"{ctype} *{name} = NULL;")
            self.emit(f"int64_t {name}_len = 0;")
            self.emit(f"(void){name}; (void){name}_len;")
        declared_scalars = sorted(
            name
            for name, code in self.scalars.items()
            if name not in set(self.func.params)
            and (name in self.shared_loop_vars or not self._is_loop_only(name))
        )
        for name in declared_scalars:
            ctype = _CTYPE[self.scalars[name]]
            init = "0.0" if self.scalars[name] == "f" else "0"
            self.emit(f"{ctype} {name} = {init};")
        self.cstmt(self.func.body)
        if not self._returned:
            raise NativeUnsupported("kernel body has no return")
        if self.alloc_order:
            self.lines.append("fail:")
            for name in self.alloc_order:
                self.emit(f"free({name});")
            self.emit("return 1;")
        out.extend(self.lines)
        out.append("}")
        return "\n".join(out) + "\n"

    def _is_loop_only(self, name: str) -> bool:
        """Scalars that only ever appear as For variables are declared in
        their for-init."""
        loop_only = getattr(self, "_loop_only_memo", None)
        if loop_only is None:
            loop_vars: Set[str] = set()
            assigned: Set[str] = set()

            def scan(stmt: Stmt) -> None:
                if isinstance(stmt, Block):
                    for child in stmt.stmts:
                        scan(child)
                elif isinstance(stmt, For):
                    loop_vars.add(stmt.var.name)
                    scan(stmt.body)
                elif isinstance(stmt, (Assign, AugAssign)):
                    assigned.add(stmt.target.name)
                elif isinstance(stmt, While):
                    scan(stmt.body)
                elif isinstance(stmt, If):
                    scan(stmt.then)
                    if stmt.orelse is not None:
                        scan(stmt.orelse)

            scan(self.func.body)
            loop_only = loop_vars - assigned
            self._loop_only_memo = loop_only
        return name in loop_only


def emit_c(
    func: FuncDef,
    params: Sequence[Tuple[str, int, str]],
    outputs: Sequence[Tuple[str, int, str]],
) -> str:
    """Print a scalar-IR kernel as a self-contained C translation unit.

    Raises :class:`NativeUnsupported` when the kernel uses a construct
    the C printer cannot translate (callers treat that pair as not
    native-capable and fall back to the Python backends).
    """
    return _CEmitter(func, params, outputs).translation_unit()


# ---------------------------------------------------------------------------
# toolchain detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Toolchain:
    """A working host C compiler and the flags the backend builds with.

    ``fingerprint`` digests the resolved compiler path, its version
    banner and the flags; it joins every native kernel-cache
    key so records built by one compiler are never loaded under another
    (a stale-ABI ``.so`` is a cache miss, not a crash).
    """

    cc: str
    flags: Tuple[str, ...]
    fingerprint: str


_BASE_FLAGS = ("-O2", "-fPIC", "-shared", "-w")

_TOOLCHAINS: Dict[Optional[str], Optional[Toolchain]] = {}
_TOOLCHAIN_LOCK = threading.Lock()

_PROBE_SOURCE = "int repro_probe(int x) { return x + 1; }\n"


def _try_compile(cc: str, workdir: str) -> bool:
    c_path = os.path.join(workdir, "probe.c")
    so_path = os.path.join(workdir, "probe.so")
    with open(c_path, "w") as handle:
        handle.write(_PROBE_SOURCE)
    try:
        result = subprocess.run(
            [cc, *_BASE_FLAGS, "-o", so_path, c_path],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return result.returncode == 0 and os.path.exists(so_path)


def detect_toolchain() -> Optional[Toolchain]:
    """Probe for a working C compiler (memoized per ``$CC`` value).

    ``$CC`` pins the compiler when set (``CC=/bin/false`` is the
    supported way to simulate a host without one); otherwise ``cc``,
    ``gcc`` and ``clang`` are tried in order.  Returns ``None`` when no
    candidate can build a shared object — callers degrade to the Python
    backends.
    """
    env_cc = os.environ.get("CC") or None
    with _TOOLCHAIN_LOCK:
        if env_cc in _TOOLCHAINS:
            return _TOOLCHAINS[env_cc]
    candidates = [env_cc] if env_cc else ["cc", "gcc", "clang"]
    toolchain: Optional[Toolchain] = None
    for cc in candidates:
        resolved = shutil.which(cc)
        if resolved is None:
            continue
        with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as workdir:
            if not _try_compile(resolved, workdir):
                continue
        try:
            banner = subprocess.run(
                [resolved, "--version"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                timeout=15,
            ).stdout.splitlines()[:1]
        except (OSError, subprocess.SubprocessError, IndexError):
            banner = []
        version = banner[0].decode("utf-8", "replace") if banner else "?"
        fingerprint = hashlib.sha256(
            repr((resolved, version, _BASE_FLAGS)).encode()
        ).hexdigest()[:16]
        toolchain = Toolchain(
            cc=resolved, flags=_BASE_FLAGS, fingerprint=fingerprint
        )
        break
    with _TOOLCHAIN_LOCK:
        _TOOLCHAINS[env_cc] = toolchain
    return toolchain


def _clear_toolchain_cache() -> None:
    """Drop memoized probes (tests that flip ``$CC`` mid-process)."""
    with _TOOLCHAIN_LOCK:
        _TOOLCHAINS.clear()


# ---------------------------------------------------------------------------
# building and binding
# ---------------------------------------------------------------------------


def build_shared(source: str, so_path: str, toolchain: Toolchain) -> None:
    """Compile ``source`` into ``so_path``, atomically.

    The compiler writes to unique temporary names (pid + thread id) in
    the destination directory, and the finished ``.so`` (and its ``.c``
    sibling, kept for inspection) are moved into place with
    ``os.replace`` — concurrent builds of the same kernel from two
    engines or threads each produce a complete artifact and the last
    rename wins, mirroring the kernel-cache record writes.
    """
    directory = os.path.dirname(so_path) or "."
    stem = f"{so_path}.tmp.{os.getpid()}.{threading.get_ident()}"
    tmp_c = f"{stem}.c"
    tmp_so = f"{stem}.so"
    os.makedirs(directory, exist_ok=True)
    try:
        with open(tmp_c, "w") as handle:
            handle.write(source)
        result = subprocess.run(
            [toolchain.cc, *toolchain.flags, "-o", tmp_so, tmp_c],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=300,
        )
        if result.returncode != 0 or not os.path.exists(tmp_so):
            detail = result.stdout.decode("utf-8", "replace").strip()
            raise NativeBuildError(
                f"{toolchain.cc} failed to build the native kernel "
                f"(exit {result.returncode}):\n{detail[:2000]}"
            )
        base = so_path[:-3] if so_path.endswith(".so") else so_path
        os.replace(tmp_c, base + ".c")
        os.replace(tmp_so, so_path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeBuildError(f"native build failed: {exc}") from exc
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass


class _NativeBuffer:
    """Owner of one C-malloc'd kernel output, viewed zero-copy by numpy
    through ``__array_interface__``; the buffer goes back to
    ``repro_native_free`` when the last view dies.  No ctypes type is
    made per buffer, so a call leaves no cyclic garbage."""

    __slots__ = ("__array_interface__", "_release", "_ptr")

    def __init__(self, ptr: int, length: int, typestr: str, release) -> None:
        self.__array_interface__ = {
            "data": (ptr, False), "shape": (length,),
            "typestr": typestr, "version": 3,
        }
        self._release = release
        self._ptr = ptr

    def __del__(self) -> None:
        self._release(self._ptr)


def load_kernel(
    so_path: str,
    entry_name: str,
    params: Sequence[Tuple[str, int, str]],
    outputs: Sequence[Tuple[str, int, str]],
):
    """Bind a built kernel; returns ``func(*args)``.

    The wrapper speaks the generated-Python calling convention — one
    positional argument per kernel parameter, returning the kernel's
    value (or tuple of values) in ``Return`` order — so the engine's
    :class:`~repro.convert.engine.CompiledConversion` machinery runs it
    unchanged.  The five slot blocks of the entry point's ABI are
    allocated once per kernel and thread, and output arrays are wrapped
    zero-copy over the C-malloc'd buffers (:class:`_NativeBuffer`).

    Raises ``OSError`` when the shared object cannot be loaded (e.g. a
    truncated cache file) — callers rebuild from source.
    """
    lib = ctypes.CDLL(so_path)
    entry = getattr(lib, entry_name)
    release = lib.repro_native_free
    release.restype = None
    release.argtypes = [ctypes.c_void_p]

    param_kinds = [
        (np.float64 if level == -1 else np.int64)
        if side == "src_array" else None
        for side, level, _ in params
    ]
    output_kinds = [
        np.dtype(np.float64 if level == -1 else np.int64).str
        if side == "dst_array" else None
        for side, level, _ in outputs
    ]
    n_in_arrays = sum(kind is not None for kind in param_kinds)
    n_out_arrays = sum(kind is not None for kind in output_kinds)
    block_types = (
        ctypes.c_void_p * max(n_in_arrays, 1),
        ctypes.c_int64 * max(len(param_kinds) - n_in_arrays, 1),
        ctypes.c_void_p * max(n_out_arrays, 1),
        ctypes.c_int64 * max(n_out_arrays, 1),
        ctypes.c_int64 * max(len(output_kinds) - n_out_arrays, 1),
    )
    entry.restype = ctypes.c_int64
    entry.argtypes = block_types
    local = threading.local()  # each thread's own slot blocks

    def func(*args):
        if len(args) != len(param_kinds):
            raise TypeError(
                f"{entry_name} takes {len(param_kinds)} arguments, "
                f"got {len(args)}"
            )
        blocks = getattr(local, "blocks", None)
        if blocks is None:
            blocks = local.blocks = tuple(block() for block in block_types)
        in_arrays, in_scalars, out_arrays, out_lens, out_scalars = blocks
        keepalive = []
        array_slot = 0
        scalar_slot = 0
        for dtype, value in zip(param_kinds, args):
            if dtype is not None:
                array = np.ascontiguousarray(value, dtype=dtype)
                keepalive.append(array)
                in_arrays[array_slot] = array.ctypes.data
                array_slot += 1
            else:
                in_scalars[scalar_slot] = int(value)
                scalar_slot += 1
        if entry(*blocks) != 0:
            raise MemoryError(f"native kernel {entry_name} failed to allocate")
        results = []
        array_slot = 0
        scalar_slot = 0
        for typestr in output_kinds:
            if typestr is not None:
                results.append(np.asarray(_NativeBuffer(
                    out_arrays[array_slot], out_lens[array_slot], typestr,
                    release,
                )))
                array_slot += 1
            else:
                results.append(out_scalars[scalar_slot])
                scalar_slot += 1
        return tuple(results) if len(results) != 1 else results[0]

    func.__name__ = entry_name
    func._native_lib = lib  # keep the dlopen handle alive with the wrapper
    return func
