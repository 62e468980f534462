"""Control-flow graphs over Python function (and module) bodies.

The CFG is the substrate of every dataflow analysis in this package.
Statements are grouped into :class:`BasicBlock`\\ s — maximal straight-line
runs — connected by directed edges for branches, loop back-edges and
loop exits.  The builder covers the statement vocabulary the repro
codebase (and the lint fixtures) actually use:

``If``/``While``/``For`` (with ``break``/``continue``/``else``),
``Return``/``Raise`` (edges to the dedicated exit block), ``Try`` (the
body is the happy path; each handler and the ``finally`` block are
joined conservatively), ``With``/``Match``-free straight-line code, and
everything else as a plain block statement.

Invariants (checked by ``tests/lint/test_cfg.py``):

* every source statement appears in exactly one block;
* ``entry`` dominates every reachable block, ``exit`` has no successors;
* ``succs``/``preds`` are mutually consistent;
* loops contribute a back edge (their header has an in-edge from inside
  the loop body).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["BasicBlock", "CFG", "build_cfg", "function_cfgs"]


@dataclass
class BasicBlock:
    """A maximal straight-line run of simple statements."""

    id: int
    stmts: list[ast.stmt] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # compact, for debugging assertions
        kinds = ",".join(type(s).__name__ for s in self.stmts)
        return f"B{self.id}[{kinds}]->{self.succs}"


@dataclass
class CFG:
    """Blocks plus the distinguished entry/exit ids."""

    blocks: dict[int, BasicBlock]
    entry: int
    exit: int
    #: The function (or module) node this CFG was built from.
    node: ast.AST | None = None

    def block_of(self, stmt: ast.stmt) -> BasicBlock | None:
        """The block containing ``stmt`` (identity comparison)."""
        for b in self.blocks.values():
            for s in b.stmts:
                if s is stmt:
                    return b
        return None

    def rpo(self) -> list[int]:
        """Reverse postorder over reachable blocks (entry first)."""
        seen: set[int] = set()
        post: list[int] = []

        def dfs(b: int) -> None:
            seen.add(b)
            for s in self.blocks[b].succs:
                if s not in seen:
                    dfs(s)
            post.append(b)

        dfs(self.entry)
        return post[::-1]


class _Builder:
    """One-pass recursive CFG construction."""

    def __init__(self) -> None:
        self.blocks: dict[int, BasicBlock] = {}
        self._next = 0

    def new_block(self) -> BasicBlock:
        b = BasicBlock(id=self._next)
        self._next += 1
        self.blocks[b.id] = b
        return b

    def edge(self, a: BasicBlock, b: BasicBlock) -> None:
        if b.id not in a.succs:
            a.succs.append(b.id)
        if a.id not in b.preds:
            b.preds.append(a.id)

    # ------------------------------------------------------------------

    def build(self, body: list[ast.stmt], node: ast.AST | None) -> CFG:
        entry = self.new_block()
        exit_ = self.new_block()
        end = self._seq(body, entry, exit_, loop_stack=[])
        if end is not None:
            self.edge(end, exit_)
        return CFG(blocks=self.blocks, entry=entry.id, exit=exit_.id, node=node)

    def _seq(
        self,
        stmts: list[ast.stmt],
        cur: BasicBlock,
        exit_: BasicBlock,
        loop_stack: list[tuple[BasicBlock, BasicBlock]],
    ) -> BasicBlock | None:
        """Thread ``stmts`` from ``cur``; return the open tail block, or
        None when control definitively left (return/raise/break/...)."""
        for stmt in stmts:
            if cur is None:  # unreachable code after a jump: new island
                cur = self.new_block()
            if isinstance(stmt, ast.If):
                cur = self._if(stmt, cur, exit_, loop_stack)
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                cur = self._loop(stmt, cur, exit_, loop_stack)
            elif isinstance(stmt, ast.Try):
                cur = self._try(stmt, cur, exit_, loop_stack)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                cur.stmts.append(stmt)
                self.edge(cur, exit_)
                cur = None
            elif isinstance(stmt, ast.Break):
                cur.stmts.append(stmt)
                if loop_stack:
                    self.edge(cur, loop_stack[-1][1])  # loop after-block
                else:
                    self.edge(cur, exit_)
                cur = None
            elif isinstance(stmt, ast.Continue):
                cur.stmts.append(stmt)
                if loop_stack:
                    self.edge(cur, loop_stack[-1][0])  # loop header
                else:
                    self.edge(cur, exit_)
                cur = None
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                cur.stmts.append(stmt)  # the context-manager expression
                cur = self._seq(stmt.body, cur, exit_, loop_stack)
            else:
                # simple statement (incl. nested function/class defs,
                # which are opaque values at this level)
                cur.stmts.append(stmt)
        return cur

    def _if(
        self,
        stmt: ast.If,
        cur: BasicBlock,
        exit_: BasicBlock,
        loop_stack: list[tuple[BasicBlock, BasicBlock]],
    ) -> BasicBlock | None:
        cur.stmts.append(stmt)  # the test lives with the branch statement
        then_b = self.new_block()
        self.edge(cur, then_b)
        then_end = self._seq(stmt.body, then_b, exit_, loop_stack)
        after = self.new_block()
        if stmt.orelse:
            else_b = self.new_block()
            self.edge(cur, else_b)
            else_end = self._seq(stmt.orelse, else_b, exit_, loop_stack)
            if else_end is not None:
                self.edge(else_end, after)
        else:
            self.edge(cur, after)  # fall-through edge
        if then_end is not None:
            self.edge(then_end, after)
        if not after.preds:  # both arms jumped away
            del self.blocks[after.id]
            return None
        return after

    def _loop(
        self,
        stmt: ast.While | ast.For | ast.AsyncFor,
        cur: BasicBlock,
        exit_: BasicBlock,
        loop_stack: list[tuple[BasicBlock, BasicBlock]],
    ) -> BasicBlock:
        header = self.new_block()
        header.stmts.append(stmt)  # test / iteration protocol
        self.edge(cur, header)
        after = self.new_block()
        body_b = self.new_block()
        self.edge(header, body_b)
        self.edge(header, after)  # loop-exit edge
        body_end = self._seq(
            stmt.body, body_b, exit_, loop_stack + [(header, after)]
        )
        if body_end is not None:
            self.edge(body_end, header)  # back edge
        if stmt.orelse:
            # for/while-else runs on normal exhaustion; join into after
            else_b = self.new_block()
            self.edge(header, else_b)
            else_end = self._seq(stmt.orelse, else_b, exit_, loop_stack)
            if else_end is not None:
                self.edge(else_end, after)
        return after

    def _try(
        self,
        stmt: ast.Try,
        cur: BasicBlock,
        exit_: BasicBlock,
        loop_stack: list[tuple[BasicBlock, BasicBlock]],
    ) -> BasicBlock | None:
        body_end = self._seq(stmt.body, cur, exit_, loop_stack)
        after = self.new_block()
        joined = False
        if body_end is not None:
            else_end = (
                self._seq(stmt.orelse, body_end, exit_, loop_stack)
                if stmt.orelse
                else body_end
            )
            if else_end is not None:
                self.edge(else_end, after)
                joined = True
        # conservatively: any handler may run, entered from the try head
        for handler in stmt.handlers:
            h_b = self.new_block()
            self.edge(cur, h_b)
            h_end = self._seq(handler.body, h_b, exit_, loop_stack)
            if h_end is not None:
                self.edge(h_end, after)
                joined = True
        if stmt.finalbody:
            fin_start = after if joined else self.new_block()
            if not joined:
                self.edge(cur, fin_start)
            fin_end = self._seq(stmt.finalbody, fin_start, exit_, loop_stack)
            return fin_end
        if not joined:
            del self.blocks[after.id]
            return None
        return after


def build_cfg(node: ast.AST) -> CFG:
    """CFG of a function/module node (or a bare statement list wrapper)."""
    body = getattr(node, "body", None)
    if not isinstance(body, list):
        raise TypeError(f"cannot build a CFG over {type(node).__name__}")
    return _Builder().build(body, node)


def function_cfgs(tree: ast.Module) -> dict[str, CFG]:
    """CFGs for every (possibly nested/method) function in ``tree``.

    Keys are dotted qualified names: ``Class.method``, ``outer.inner``.
    """
    out: dict[str, CFG] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out[qual] = build_cfg(child)
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out
