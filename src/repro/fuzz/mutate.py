"""The metamorphic layer: semantics-preserving program mutations.

Each mutation rewrites the AST in a way that provably cannot change the
interpreter's observable output — commuting a wrapped commutative
operator, re-associating under equal intermediate types, rotating a loop,
inserting dead code, splitting a compound assignment through a typed
temporary.  Running original and mutant through the *same* flow must then
produce the same observables; any divergence is a compiler bug **even
without the reference interpreter** (this is what makes the fuzzer useful
on programs the interpreter cannot run, and doubles the differential
surface on ones it can).

Mutations take a private copy of the program's analyzed tree from a
:class:`~repro.lang.Frontend` (one parse and one snapshot per source, one
unpickled copy per attempt at a kind that has sites), transform it, and
pretty-print it back; a mutant that fails to parse is discarded (never
emitted), so every mutant handed to the campaign is a valid program.
Given the campaign engine's frontend, the parse of each kept mutant is the
one its golden run and its cells reuse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..lang import ast_nodes as ast
from ..lang.frontend import Frontend
from ..lang.pretty import print_program
from ..lang.types import BoolType, IntType, PointerType
from .masks import FeatureMask

# Wrapped two's-complement + - * and the bitwise ops commute; comparison
# for equality does too.  (`-` does not, and && / || short-circuit.)
_COMMUTATIVE = ("+", "*", "&", "|", "^", "==", "!=")
# Associative under a *fixed* wrap width — we additionally require all
# intermediate types to be identical before re-associating.
_ASSOCIATIVE = ("+", "*", "&", "|", "^")

MUTATION_NAMES = (
    "commute",
    "reassociate",
    "rotate-loop",
    "dead-code",
    "split-stmt",
)


@dataclass(frozen=True)
class Mutant:
    """One semantics-preserving rewrite of a program."""

    name: str          # mutation kind, e.g. "commute"
    index: int         # which candidate site was rewritten
    source: str


# -- AST walking helpers ----------------------------------------------------

def _walk_exprs(node, visit):
    """Visit every expression node reachable from ``node`` (a statement,
    function, or program), passing (expr, parent, slot) to ``visit`` where
    ``parent.slot`` (or ``parent[slot]`` for lists) owns the expression."""

    def expr(e, parent, slot):
        if e is None:
            return
        visit(e, parent, slot)
        if isinstance(e, ast.UnaryOp):
            expr(e.operand, e, "operand")
        elif isinstance(e, ast.BinaryOp):
            expr(e.left, e, "left")
            expr(e.right, e, "right")
        elif isinstance(e, ast.Conditional):
            expr(e.cond, e, "cond")
            expr(e.then, e, "then")
            expr(e.otherwise, e, "otherwise")
        elif isinstance(e, ast.ArrayIndex):
            expr(e.base, e, "base")
            expr(e.index, e, "index")
        elif isinstance(e, ast.Call):
            for i, a in enumerate(e.args):
                expr(a, e.args, i)

    def stmt(s):
        if s is None:
            return
        if isinstance(s, ast.Block):
            for child in s.statements:
                stmt(child)
        elif isinstance(s, ast.VarDecl):
            expr(s.init, s, "init")
            for i, e in enumerate(s.array_init or ()):
                expr(e, s.array_init, i)
        elif isinstance(s, ast.Assign):
            expr(s.target, s, "target")
            expr(s.value, s, "value")
        elif isinstance(s, ast.ExprStmt):
            expr(s.expr, s, "expr")
        elif isinstance(s, ast.If):
            expr(s.cond, s, "cond")
            stmt(s.then)
            stmt(s.otherwise)
        elif isinstance(s, ast.While):
            expr(s.cond, s, "cond")
            stmt(s.body)
        elif isinstance(s, ast.DoWhile):
            expr(s.cond, s, "cond")
            stmt(s.body)
        elif isinstance(s, ast.For):
            stmt(s.init)
            expr(s.cond, s, "cond")
            stmt(s.step)
            stmt(s.body)
        elif isinstance(s, ast.Return):
            expr(s.value, s, "value")
        elif isinstance(s, (ast.Par, ast.Seq)):
            for child in getattr(s, "branches", None) or [s.body]:
                stmt(child)
        elif isinstance(s, ast.Within):
            stmt(s.body)
        elif isinstance(s, ast.Send):
            expr(s.value, s, "value")

    if isinstance(node, ast.Program):
        for g in node.globals:
            stmt(g)
        for fn in node.functions:
            stmt(fn.body)
    elif isinstance(node, ast.FunctionDef):
        stmt(node.body)
    else:
        stmt(node)


def _walk_blocks(program: ast.Program):
    """Yield every Block in every function body, outermost first."""
    pending = [fn.body for fn in program.functions]
    while pending:
        block = pending.pop(0)
        if not isinstance(block, ast.Block):
            continue
        yield block
        for s in block.statements:
            for child in _block_children(s):
                pending.append(child)


def _block_children(stmt):
    if isinstance(stmt, ast.Block):
        return [stmt]
    if isinstance(stmt, ast.If):
        return [b for b in (stmt.then, stmt.otherwise) if b is not None]
    if isinstance(stmt, (ast.While, ast.DoWhile)):
        return [stmt.body]
    if isinstance(stmt, ast.For):
        return [stmt.body]
    if isinstance(stmt, ast.Par):
        return list(stmt.branches)
    if isinstance(stmt, ast.Seq):
        return [stmt.body]
    if isinstance(stmt, ast.Within):
        return [stmt.body]
    return []


def _contains(node, kinds) -> bool:
    found = []
    _walk_exprs(node, lambda e, p, s: found.append(e) if isinstance(e, kinds) else None)
    return bool(found)


def _stmt_contains_continue(stmt) -> bool:
    if isinstance(stmt, ast.Continue):
        return True
    # Continue inside a *nested* loop binds to that loop, not this one.
    if isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
        return False
    for child in _block_children(stmt):
        if any(_stmt_contains_continue(s) for s in child.statements):
            return True
    if isinstance(stmt, ast.Block):
        return any(_stmt_contains_continue(s) for s in stmt.statements)
    return False


def _is_pure(expr) -> bool:
    """No calls, no channel reads: safe to evaluate early or not at all."""
    return not _contains(expr, (ast.Call, ast.Receive))


def _set(parent, slot, value):
    if isinstance(parent, list):
        parent[slot] = value
    else:
        setattr(parent, slot, value)


# -- individual mutations ---------------------------------------------------

def _commute_sites(program):
    sites = []

    def visit(e, parent, slot):
        if isinstance(e, ast.BinaryOp) and e.op in _COMMUTATIVE:
            if any(
                isinstance(sub.type, PointerType) for sub in (e.left, e.right)
            ):
                return  # pointer arithmetic is not symmetric across flows
            if _is_pure(e.left) and _is_pure(e.right):
                sites.append((e, parent, slot))

    _walk_exprs(program, visit)
    return sites


def _apply_commute(site):
    e, _, _ = site
    e.left, e.right = e.right, e.left


def _reassociate_sites(program):
    """(a op (b op c)) <-> ((a op b) op c), only when every participating
    node (operands and both operators) has the same scalar type — then
    wrap-around happens at one width throughout and the ops associate."""
    sites = []

    def same_types(*nodes):
        types = [n.type for n in nodes]
        if any(t is None for t in types):
            return False
        first = types[0]
        if not isinstance(first, IntType):
            return False
        return all(t == first for t in types)

    def visit(e, parent, slot):
        if not (isinstance(e, ast.BinaryOp) and e.op in _ASSOCIATIVE):
            return
        if isinstance(e.right, ast.BinaryOp) and e.right.op == e.op:
            if same_types(e, e.right, e.left, e.right.left, e.right.right) \
                    and _is_pure(e):
                sites.append(("left", e))
        if isinstance(e.left, ast.BinaryOp) and e.left.op == e.op:
            if same_types(e, e.left, e.right, e.left.left, e.left.right) \
                    and _is_pure(e):
                sites.append(("right", e))

    _walk_exprs(program, visit)
    return sites


def _apply_reassociate(site):
    direction, e = site
    if direction == "left":
        # a op (b op c) -> (a op b) op c
        inner = e.right
        e.left = ast.BinaryOp(op=e.op, left=e.left, right=inner.left,
                              type=e.type)
        e.right = inner.right
    else:
        # (a op b) op c -> a op (b op c)
        inner = e.left
        e.right = ast.BinaryOp(op=e.op, left=inner.right, right=e.right,
                               type=e.type)
        e.left = inner.left


def _rotate_sites(program):
    """``for`` loops whose body has no ``continue`` (continue would skip
    the rotated step) can become init + while(cond){body; step}."""
    sites = []
    for block in _walk_blocks(program):
        for i, s in enumerate(block.statements):
            if isinstance(s, ast.For) and s.cond is not None:
                body = s.body
                if isinstance(body, ast.Block) and not any(
                    _stmt_contains_continue(c) for c in body.statements
                ):
                    sites.append((block, i))
    return sites


def _apply_rotate(site):
    block, i = site
    loop = block.statements[i]
    new_body = ast.Block(statements=list(loop.body.statements))
    if loop.step is not None:
        new_body.statements.append(loop.step)
    rotated = ast.Block(statements=[])
    if loop.init is not None:
        rotated.statements.append(loop.init)
    rotated.statements.append(ast.While(cond=loop.cond, body=new_body))
    block.statements[i] = rotated


def _dead_code_sites(program):
    """Positions (block, index) in the *entry* functions where an unused
    declaration can be inserted.  Parameters of the owning function are the
    only names we can safely read at an arbitrary position."""
    sites = []
    for fn in program.functions:
        params = [p.name for p in fn.params
                  if isinstance(p.param_type, (IntType, BoolType))]
        if not isinstance(fn.body, ast.Block):
            continue
        for i in range(len(fn.body.statements) + 1):
            sites.append((fn.body, i, params))
    return sites


_DEAD_COUNTER = "__dead"


def _apply_dead_code(site, rng: random.Random, existing: int):
    block, i, params = site
    name = f"{_DEAD_COUNTER}{existing}"
    if params and rng.random() < 0.7:
        base = ast.Identifier(name=rng.choice(params))
    else:
        base = ast.IntLiteral(value=rng.randint(0, 255))
    expr = ast.BinaryOp(
        op=rng.choice(["+", "^", "|"]),
        left=base,
        right=ast.IntLiteral(value=rng.randint(0, 255)),
    )
    decl = ast.VarDecl(name=name, var_type=IntType(32, True), init=expr)
    block.statements.insert(i, decl)


def _split_sites(program):
    """Assignments ``t = a op b`` where ``a`` is pure and scalar-typed:
    extract ``a`` into a typed temporary declared just before."""
    sites = []
    for block in _walk_blocks(program):
        for i, s in enumerate(block.statements):
            if not (isinstance(s, ast.Assign)
                    and isinstance(s.target, ast.Identifier)
                    and isinstance(s.value, ast.BinaryOp)):
                continue
            left = s.value.left
            if left.type is None:
                continue
            if not isinstance(left.type, (IntType, BoolType)):
                continue
            if not _is_pure(s.value):
                continue  # never move or duplicate calls / channel reads
            sites.append((block, i))
    return sites


def _apply_split(site, existing: int):
    block, i = site
    stmt = block.statements[i]
    left = stmt.value.left
    name = f"__split{existing}"
    decl = ast.VarDecl(name=name, var_type=left.type, init=left)
    stmt.value.left = ast.Identifier(name=name, type=left.type)
    block.statements[i] = ast.Block(statements=[decl, stmt])


# -- driver -----------------------------------------------------------------

def _mutation_catalog():
    return {
        "commute": (_commute_sites, lambda site, rng, n: _apply_commute(site)),
        "reassociate": (
            _reassociate_sites,
            lambda site, rng, n: _apply_reassociate(site),
        ),
        "rotate-loop": (_rotate_sites, lambda site, rng, n: _apply_rotate(site)),
        "dead-code": (_dead_code_sites, _apply_dead_code),
        "split-stmt": (_split_sites, lambda site, rng, n: _apply_split(site, n)),
    }


def mutants(
    source: str,
    seed: int = 0,
    count: int = 3,
    mask: Optional[FeatureMask] = None,
    only: Optional[List[str]] = None,
    frontend: Optional[Frontend] = None,
) -> List[Mutant]:
    """Up to ``count`` distinct valid mutants of ``source``, deterministic
    in ``(source, seed, count, only)``.  ``mask`` suppresses mutations that
    would push the program outside the target flow's subset (rotating a
    counted loop breaks Cones' static-bounds analysis, so it is skipped
    there).  ``only`` restricts the rotation to a subset of
    :data:`MUTATION_NAMES` — the coverage-guided scheduler's lever for
    focusing mutation kinds on a hot parent.  ``frontend`` (default: a
    private one) parses ``source`` and every candidate mutant."""
    if frontend is None:
        frontend = Frontend()
    try:
        frontend.parse(source)
    except Exception:
        return []
    rng = random.Random(seed)
    catalog = _mutation_catalog()
    names = list(MUTATION_NAMES)
    if only:
        names = [n for n in names if n in only] or names
    if mask is not None and mask.requires_static_bounds \
            and "rotate-loop" in names:
        names.remove("rotate-loop")
    if not names:
        return []

    out: List[Mutant] = []
    seen = {source}
    # Kinds found to have no sites are not tried again, and the copy
    # that showed it (collectors only read) serves the next attempt, so
    # every copy but at most one is rewritten.
    siteless = set()
    spare = None
    attempts = 0
    while len(out) < count and attempts < count * 6:
        attempts += 1
        name = names[(seed + attempts) % len(names)]
        if name in siteless:
            continue
        collect, apply = catalog[name]
        tree = spare if spare is not None else frontend.fresh(source)
        spare = None
        sites = collect(tree)
        if not sites:
            siteless.add(name)
            spare = tree
            continue
        index = rng.randrange(len(sites))
        apply(sites[index], rng, len(out))
        try:
            text = print_program(tree)
            frontend.parse(text)   # validity gate: discard anything that broke
        except Exception:
            continue
        if text in seen:
            continue
        seen.add(text)
        out.append(Mutant(name=name, index=index, source=text))
    return out


__all__ = ["MUTATION_NAMES", "Mutant", "mutants"]
