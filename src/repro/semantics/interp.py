"""A nondeterministic interpreter for oolong with runtime monitors.

Execution explores *every* resolution of the demonic choices — ``C [] D``,
implementation dispatch, and the configurable initial values of ``var`` —
up to path/step budgets, and returns the multiset of reachable outcomes.

The monitors give the paper's static claims an operational ground truth:

* **modifies monitor** — a field write must be permitted by every active
  frame: the written location is either of an object unallocated at that
  frame's entry, or included (in the frame's *entry* store, matching the
  static semantics) in a location listed in the frame's modifies list;
* **pivot-uniqueness monitor** — after every write, a non-null value
  stored in a pivot field must be stored nowhere else;
* **owner-exclusion monitor** — at every call, a passed value must not be
  the non-null content of a pivot field ``F`` of an object ``X`` (with
  ``rinc(F, A, B)``) when the callee's licence covers ``X·A``.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InterpError
from repro.oolong.ast import (
    Assert,
    Assign,
    AssignNew,
    Assume,
    BinOp,
    BoolConst,
    Call,
    Choice,
    Cmd,
    Expr,
    FieldAccess,
    Id,
    IntConst,
    NullConst,
    ProcDecl,
    Seq,
    Skip,
    UnOp,
    VarCmd,
)
from repro.oolong.program import Scope
from repro.record import Record
from repro.semantics.inclusion import Location, included_locations
from repro.semantics.store import ObjRef, RuntimeStore, Value


class OutcomeKind(enum.Enum):
    NORMAL = "normal"
    BLOCKED = "blocked"
    WRONG_ASSERT = "assert failed"
    MODIFIES_VIOLATION = "modifies violation"
    PIVOT_VIOLATION = "pivot uniqueness violated"
    OWNER_EXCLUSION_VIOLATION = "owner exclusion violated"
    ERROR = "dynamic error"
    LIMIT = "exploration limit reached"


#: Outcome kinds that count as the computation *going wrong*.
WRONG_KINDS = frozenset(
    {
        OutcomeKind.WRONG_ASSERT,
        OutcomeKind.MODIFIES_VIOLATION,
        OutcomeKind.PIVOT_VIOLATION,
        OutcomeKind.OWNER_EXCLUSION_VIOLATION,
        OutcomeKind.ERROR,
    }
)


class Outcome(Record, frozen=True):
    """One terminal result of one explored path."""

    kind: OutcomeKind
    detail: str = ""
    trace: Tuple[str, ...] = ()

    @property
    def wrong(self) -> bool:
        return self.kind in WRONG_KINDS


class ExplorationConfig(Record):
    """Budgets and switches for one exploration."""

    max_paths: int = 10000
    max_steps: int = 200000
    max_call_depth: int = 32
    var_candidates: Tuple[Value, ...] = (None,)
    check_modifies: bool = True
    check_pivot_uniqueness: bool = True
    check_owner_exclusion: bool = True


class _Licence(Record, frozen=True):
    """One frame's write licence, fixed at method entry."""

    proc_name: str
    entry_alive: FrozenSet[int]
    covered: FrozenSet[Location]

    def permits(self, obj: ObjRef, attr: str) -> bool:
        if obj.oid not in self.entry_alive:
            return True
        return (obj, attr) in self.covered


class _Stop(Exception):
    """Internal control flow: a path ended with the carried outcome."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome


class _State(Record):
    store: RuntimeStore
    env: Dict[str, Value]
    frames: Tuple[_Licence, ...]
    trace: Tuple[str, ...] = ()

    def fork(self) -> "_State":
        return _State(self.store.snapshot(), dict(self.env), self.frames, self.trace)

    def noting(self, note: str) -> "_State":
        self.trace = self.trace + (note,)
        return self


class Interpreter:
    """Explores an oolong program's executions."""

    def __init__(self, scope: Scope, config: Optional[ExplorationConfig] = None):
        from repro.oolong.contracts import desugar_contracts

        # Contracts execute as the paper's assert/assume discipline, so the
        # interpreter checks them at runtime for free.
        self.scope = desugar_contracts(scope)
        self.config = config or ExplorationConfig()
        self._steps = 0
        self._paths = 0

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def explore_call(
        self, proc_name: str, args: Sequence[Value] = (), store: Optional[RuntimeStore] = None
    ) -> List[Outcome]:
        """All outcomes of calling ``proc_name`` with ``args``."""
        self._steps = 0
        self._paths = 0
        proc = self.scope.proc(proc_name)
        if proc is None:
            raise InterpError(f"undeclared procedure {proc_name!r}")
        if len(args) != len(proc.params):
            raise InterpError(
                f"procedure {proc_name!r} takes {len(proc.params)} arguments"
            )
        base = _State(store or RuntimeStore(), {}, ())
        outcomes: List[Outcome] = []
        call = Call(proc_name, tuple(_ValueExpr(v) for v in args))
        for result in self._exec(call, base, 0):
            outcomes.append(self._finish(result))
        return outcomes

    def _finish(self, result) -> Outcome:
        if isinstance(result, Outcome):
            self._paths += 1
            return result
        self._paths += 1
        return Outcome(OutcomeKind.NORMAL, trace=result.trace)

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    def _budget(self, state: _State) -> Optional[Outcome]:
        self._steps += 1
        if self._steps > self.config.max_steps:
            return Outcome(OutcomeKind.LIMIT, "step budget exhausted", state.trace)
        if self._paths > self.config.max_paths:
            return Outcome(OutcomeKind.LIMIT, "path budget exhausted", state.trace)
        return None

    def _exec(self, cmd: Cmd, state: _State, depth: int) -> Iterator:
        """Yield, per completed path, either a final ``_State`` (normal) or
        an ``Outcome`` (blocked / wrong / limit)."""
        over = self._budget(state)
        if over is not None:
            yield over
            return
        try:
            if isinstance(cmd, Skip):
                yield state
            elif isinstance(cmd, Assume):
                if self._truthy(cmd.condition, state):
                    yield state
                else:
                    yield Outcome(OutcomeKind.BLOCKED, str(cmd.condition), state.trace)
            elif isinstance(cmd, Assert):
                if self._truthy(cmd.condition, state):
                    yield state
                else:
                    yield Outcome(
                        OutcomeKind.WRONG_ASSERT,
                        f"assert {cmd.condition} failed",
                        state.trace,
                    )
            elif isinstance(cmd, VarCmd):
                yield from self._exec_var(cmd, state, depth)
            elif isinstance(cmd, Seq):
                yield from self._exec_seq(cmd.cmds, state, depth)
            elif isinstance(cmd, Choice):
                for index, part in enumerate(cmd.cmds):
                    arm = state.fork().noting(f"choice:{index}")
                    yield from self._exec(part, arm, depth)
            elif isinstance(cmd, Assign):
                yield self._exec_assign(cmd, state)
            elif isinstance(cmd, AssignNew):
                yield self._exec_assign_new(cmd, state)
            elif isinstance(cmd, Call):
                yield from self._exec_call(cmd, state, depth)
            else:
                raise InterpError(f"cannot execute {cmd!r}")
        except _Stop as stop:
            yield stop.outcome

    def _exec_seq(self, cmds, state: _State, depth: int) -> Iterator:
        """Run ``cmds`` on every path, depth-first, with an explicit stack
        of (index of the next command, results) instead of one nested
        generator per statement."""
        stack = [(1, self._exec(cmds[0], state, depth))]
        while stack:
            index, results = stack[-1]
            result = next(results, None)
            if result is None:
                stack.pop()
            elif isinstance(result, Outcome) or index == len(cmds):
                yield result
            else:
                stack.append((index + 1, self._exec(cmds[index], result, depth)))

    def _exec_var(self, cmd: VarCmd, state: _State, depth: int) -> Iterator:
        for candidate in self.config.var_candidates:
            child = state.fork()
            child.env[cmd.name] = candidate
            if len(self.config.var_candidates) > 1:
                child.noting(f"var {cmd.name}:={candidate!r}")
            for result in self._exec(cmd.body, child, depth):
                if isinstance(result, Outcome):
                    yield result
                else:
                    result.env.pop(cmd.name, None)
                    yield result

    def _exec_assign(self, cmd: Assign, state: _State) -> _State:
        value = self._eval(cmd.rhs, state)
        return self._store_to_target(cmd.target, value, state)

    def _exec_assign_new(self, cmd: AssignNew, state: _State) -> _State:
        fresh = state.store.allocate()
        return self._store_to_target(cmd.target, fresh, state)

    def _store_to_target(self, target: Expr, value: Value, state: _State) -> _State:
        if isinstance(target, Id):
            state.env[target.name] = value
            return state
        assert isinstance(target, FieldAccess)
        obj = self._eval(target.obj, state)
        if not isinstance(obj, ObjRef):
            raise _Stop(
                Outcome(
                    OutcomeKind.ERROR,
                    f"field write on non-object {obj!r}",
                    state.trace,
                )
            )
        self._check_modifies(obj, target.attr, state)
        state.store.write(obj, target.attr, value)
        self._check_pivot_uniqueness(state)
        return state

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _licence_for(
        self,
        proc: ProcDecl,
        env: Dict[str, Value],
        store: RuntimeStore,
    ) -> _Licence:
        """Compute a frame's write licence at entry time."""
        covered: set = set()
        snapshot = store.snapshot()
        for designator in proc.modifies:
            owner = env.get(designator.root)
            for field_name in designator.path:
                if not isinstance(owner, ObjRef):
                    owner = None
                    break
                owner = snapshot.read(owner, field_name)
            if isinstance(owner, ObjRef):
                covered |= included_locations(
                    self.scope, snapshot, owner, designator.attr
                )
        entry_alive = frozenset(ref.oid for ref in snapshot.alive_objects())
        return _Licence(proc.name, entry_alive, frozenset(covered))

    def _exec_call(self, cmd: Call, state: _State, depth: int) -> Iterator:
        if depth >= self.config.max_call_depth:
            yield Outcome(OutcomeKind.LIMIT, "call depth exceeded", state.trace)
            return
        proc = self.scope.proc(cmd.proc)
        if proc is None:
            raise InterpError(f"call to undeclared procedure {cmd.proc!r}")
        impls = self.scope.impls_of(cmd.proc)
        if not impls:
            raise InterpError(
                f"no implementation of {cmd.proc!r} available to execute"
            )
        args = [self._eval(arg, state) for arg in cmd.args]
        callee_env = dict(zip(proc.params, args))
        licence = self._licence_for(proc, callee_env, state.store)
        self._check_owner_exclusion(cmd.proc, args, licence, state)
        for index, impl in enumerate(impls):
            child = state.fork()
            if len(impls) > 1:
                child.noting(f"dispatch:{cmd.proc}#{index}")
            child.env = dict(zip(impl.params, args))
            child.frames = state.frames + (licence,)
            for result in self._exec(impl.body, child, depth + 1):
                if isinstance(result, Outcome):
                    yield result
                else:
                    # Return to the caller's environment and frame stack.
                    result.env = dict(state.env)
                    result.frames = state.frames
                    yield result

    # ------------------------------------------------------------------
    # Monitors
    # ------------------------------------------------------------------

    def _check_modifies(self, obj: ObjRef, attr: str, state: _State) -> None:
        if not self.config.check_modifies:
            return
        for licence in state.frames:
            if not licence.permits(obj, attr):
                raise _Stop(
                    Outcome(
                        OutcomeKind.MODIFIES_VIOLATION,
                        f"write to {obj!r}.{attr} not licensed by frame "
                        f"{licence.proc_name}",
                        state.trace,
                    )
                )

    def _check_pivot_uniqueness(self, state: _State) -> None:
        if not self.config.check_pivot_uniqueness:
            return
        pivots = {decl.name for decl in self.scope.pivot_fields()}
        if not pivots:
            return
        locations = state.store.written_locations()
        values: Dict[int, Tuple[ObjRef, str]] = {}
        for holder, field_name in locations:
            value = state.store.read(holder, field_name)
            if not isinstance(value, ObjRef):
                continue
            if field_name in pivots:
                for other_holder, other_field in locations:
                    if (other_holder, other_field) == (holder, field_name):
                        continue
                    if state.store.read(other_holder, other_field) == value:
                        raise _Stop(
                            Outcome(
                                OutcomeKind.PIVOT_VIOLATION,
                                f"pivot value {value!r} stored both at "
                                f"{holder!r}.{field_name} and "
                                f"{other_holder!r}.{other_field}",
                                state.trace,
                            )
                        )

    def _check_owner_exclusion(
        self,
        callee: str,
        args: Sequence[Value],
        licence: _Licence,
        state: _State,
    ) -> None:
        if not self.config.check_owner_exclusion:
            return
        for value in args:
            if not isinstance(value, ObjRef):
                continue
            for holder in state.store.alive_objects():
                for pivot in self.scope.pivot_fields():
                    if state.store.read(holder, pivot.name) != value:
                        continue
                    for group, _mapped in self.scope.rep_pairs(pivot.name):
                        if (holder, group) in licence.covered:
                            raise _Stop(
                                Outcome(
                                    OutcomeKind.OWNER_EXCLUSION_VIOLATION,
                                    f"pivot value {value!r} of {holder!r}."
                                    f"{pivot.name} passed to {callee}, which "
                                    f"may modify {holder!r}.{group}",
                                    state.trace,
                                )
                            )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _truthy(self, expr: Expr, state: _State) -> bool:
        value = self._eval(expr, state)
        if not isinstance(value, bool):
            raise _Stop(
                Outcome(
                    OutcomeKind.ERROR,
                    f"condition {expr} evaluated to non-boolean {value!r}",
                    state.trace,
                )
            )
        return value

    def _eval(self, expr: Expr, state: _State) -> Value:
        if isinstance(expr, _ValueExpr):
            return expr.value
        if isinstance(expr, NullConst):
            return None
        if isinstance(expr, BoolConst):
            return expr.value
        if isinstance(expr, IntConst):
            return expr.value
        if isinstance(expr, Id):
            if expr.name not in state.env:
                raise InterpError(f"unbound variable {expr.name!r}")
            return state.env[expr.name]
        if isinstance(expr, FieldAccess):
            obj = self._eval(expr.obj, state)
            if not isinstance(obj, ObjRef):
                raise _Stop(
                    Outcome(
                        OutcomeKind.ERROR,
                        f"field read on non-object {obj!r}",
                        state.trace,
                    )
                )
            return state.store.read(obj, expr.attr)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, state)
        if isinstance(expr, UnOp):
            return self._eval_unop(expr, state)
        raise InterpError(f"cannot evaluate {expr!r}")

    def _eval_binop(self, expr: BinOp, state: _State) -> Value:
        if expr.op == "&&":
            return self._truthy(expr.left, state) and self._truthy(expr.right, state)
        if expr.op == "||":
            return self._truthy(expr.left, state) or self._truthy(expr.right, state)
        left = self._eval(expr.left, state)
        right = self._eval(expr.right, state)
        if expr.op == "=":
            return left == right
        if expr.op == "!=":
            return left != right
        if expr.op in ("<", "<=", ">", ">=", "+", "-", "*"):
            if not isinstance(left, int) or not isinstance(right, int) or (
                isinstance(left, bool) or isinstance(right, bool)
            ):
                raise _Stop(
                    Outcome(
                        OutcomeKind.ERROR,
                        f"arithmetic on non-integers: {left!r} {expr.op} {right!r}",
                        state.trace,
                    )
                )
            table = {
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
                "+": left + right,
                "-": left - right,
                "*": left * right,
            }
            return table[expr.op]
        raise InterpError(f"unknown operator {expr.op!r}")

    def _eval_unop(self, expr: UnOp, state: _State) -> Value:
        if expr.op == "!":
            return not self._truthy(expr.operand, state)
        value = self._eval(expr.operand, state)
        if isinstance(value, bool) or not isinstance(value, int):
            raise _Stop(
                Outcome(
                    OutcomeKind.ERROR,
                    f"negation of non-integer {value!r}",
                    state.trace,
                )
            )
        return -value


class _ValueExpr(Expr):
    """An already-evaluated argument injected into a synthetic call."""

    value: Value = None


def explore_program(
    scope: Scope,
    entry: str,
    args: Sequence[Value] = (),
    config: Optional[ExplorationConfig] = None,
) -> List[Outcome]:
    """Explore all executions of ``entry(args)`` in a fresh store."""
    return Interpreter(scope, config).explore_call(entry, args)
