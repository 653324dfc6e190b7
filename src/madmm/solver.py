"""Block-coordinate method of multipliers for multiaffine constraint systems.

One iteration sweeps the x-role blocks in a fixed order, each minimizing the
augmented Lagrangian

    L(U, W) = phi(U) + sum_e <W_e, C_e(U)> + (rho / 2) * sum_e ||C_e(U)||^2

with every other block frozen, then minimizes jointly over the final z-role
group, then takes the dual ascent step W_e <- W_e + rho * C_e(U) for every
equation.  Each x subproblem is solved exactly, by prox.py: a smooth block
reduces to its quadratic solver, a block carrying one separable nonsmooth
term to its single proximal step, and anything else must register a custom
updater.  The z blocks split into connected components (blocks tied by a
shared equation).  A lone z block is updated like an x block; a component of
several blocks is solved jointly by one exact quadratic solve, so every block
must be smooth, have no custom updater, and share no term with another block
of its component.  ``Problem`` refuses any other component when it is built.

Each x block and each z component is one update unit.  ``Problem`` builds
the solve plan of every unit (``prox._SolvePlan``) when it is built, which
fixes the unit's one solve path, ``plan.path``; building also fixes the
system, so the plans stay valid.  A step freezes each unit's form, which
checks the values it reads and builds only the pieces that read them, and
runs its plan on values alone.  The plans and the step's later phases share
scratch the ``Problem`` allocates once, on first use (see ``step`` for what
that means to a caller).

The penalty weight rho can be given explicitly, certified from curvature
constants declared in the problem metadata via rho_lower_bound, or found by
doubling until a short trial run keeps L nonincreasing.  Statuses are plain
strings so callers can switch on them without extra imports.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import (BuildError, ShapeMismatchError, SubproblemError,
                     require_finite)
from .operators import DenseOp, LinearOp
from .prox import ObjectiveTerm, Quadratic, _SolvePlan, _check_duals
from .system import (BlockId, Conv2D, LinearTerm, MultiaffineSystem, ROLE_X,
                     ROLE_Z1, ROLE_Z2, freeze, FrozenLinearForm, _Scratch,
                     _Slot, _block_adjoints, _checked_values, _constant_part,
                     _evaluate, _read_only, _term_index, _unfreeze, step_memo)

STATUS_CONVERGED = "Converged"
STATUS_MAXITER = "MaxIter"
STATUS_DIVERGED = "Diverged"

_ROLE_ORDER = {"x": 0, "z0": 1, "z1": 2, "z2": 3}
_DIVERGE_LIMIT = 1e12
_SPECTRUM_LIMIT = 1500
_CONVERGED_STREAK = 3
# The fewest entries of a target or product term that a step keeps in its
# memo (see _repeats): below it the lookups cost more than the passes they
# spare.  Steady nmf3 and rpca2 steps, one process, 2-vCPU VM, one BLAS
# thread: 2-13% slower kept than formed twice from 8,100 to 57,600
# entries, 2% faster at 90,000.
_KEEP_MIN = 65536


def _block_key(block: BlockId):
    return (_ROLE_ORDER[block.role], block.index, block.name)


@dataclass(frozen=True)
class Violation:
    """One failed runtime check; magnitude is the amount over the tolerance."""

    check: str
    magnitude: float
    tol: float
    detail: str = ""


@dataclass
class IterTrace:
    """Per-iteration record; wall_ms is the only nondeterministic field."""

    k: int
    L: float
    primal_res: float
    dual_step: float
    block_steps: dict
    stat_est: float
    wall_ms: float
    violations: tuple = ()


@dataclass
class SolverState:
    assignment: dict          # BlockId -> array
    multipliers: dict         # eq_id -> array
    rho: float
    k: int = 0


class Problem:
    """A constraint system plus objective terms, validated and ready to run.

    ``objective`` maps blocks (BlockId or name) to lists of ObjectiveTerm,
    each term on the one block it is listed under; blocks may be absent.
    Every coupling between blocks goes through the constraints.  Building
    raises BuildError when the objective names one block twice (by its
    BlockId and by its name), and ShapeMismatchError, naming the block,
    when a term does not fit its block (``ObjectiveTerm.shape_error``).
    The x-role blocks are updated in (index, name) order, kept as
    ``update_order``.  ``custom_updaters`` maps block names to

        fn(problem, block, assignment, multipliers, rho) -> array

    which returns the block's new value as a new array.  It is handed
    dicts made for the call, of read-only views of the state's arrays,
    which the caller may hold and the step's memo reads (a returned view of
    one is copied).  The convergence argument assumes the exact minimizer
    of L over that block; nothing checks it, and the zoo's deconvolution
    updaters are not exact.  ``metadata`` is free-form; the keys m1, M1,
    M2, M_F and r_blocks (see ``rho_lower_bound``) feed the certified
    penalty bound at each solve.

    A block carries at most one nonsmooth term.  Building raises BuildError
    when such a block, with no custom updater, has no exact proximal step
    (its solve plan needs a positive scalar curvature) at the point where
    every block is all ones; where that curvature is not positive at run
    time, the step raises SubproblemError.  The solve plans are built here
    too, one per update unit, each with the one solve path its unit takes
    at every step (see the module docstring); a plan also refuses, naming
    the block, a SmoothCustom term with curvature on a block with no
    custom updater.  Building fixes the system, even when no unit has a
    plan: ``add_equation`` then raises BuildError.  A refused build leaves
    a system that was open before it open.  A Problem owns its steps'
    scratch and the slots of their memo's products, taken on first use.

    z blocks tied by a shared equation form one component, which each step
    solves jointly and exactly.  Building raises BuildError when a
    component of two or more blocks has no such solve: one of its blocks
    carries a nonsmooth term or a custom updater, or one term involves two
    of its blocks.  Give each such block its own equation through a slack
    block instead, as the zoo families do.
    """

    def __init__(self, system: MultiaffineSystem, objective=None,
                 custom_updaters=None, metadata=None):
        self.system = system
        self.custom_updaters = dict(custom_updaters or {})
        self.metadata = dict(metadata or {})
        self.objective = {}
        for key, terms in (objective or {}).items():
            block = self._resolve(key)
            if block in self.objective:
                raise BuildError(f"objective names block {block.name!r} twice")
            self.objective[block] = list(terms)
        self.update_order = sorted(system.blocks_with_role(ROLE_X), key=_block_key)
        self.z_order = sorted((b for b in system.blocks.values() if b.role != ROLE_X),
                              key=_block_key)
        self._validate()
        self._z_components = self._build_z_components()
        self._scratch = _Scratch()
        # The product terms the step memo keeps, and whether a step opens it
        # (see system.step_memo).
        self._kept_terms, self._memo = {}, False
        was_open = system._terms is None
        try:
            self._units = self._build_units()
        except BaseException:
            if was_open:
                _unfreeze(system)
            raise
        _term_index(system)  # fixes the system even when no unit froze it
        self._slack = None  # _SlackMaps, built on first use
        self._step_arrays = None  # _StepArrays, taken on first use

    def _resolve(self, key) -> BlockId:
        if isinstance(key, BlockId):
            if self.system.blocks.get(key.name) != key:
                raise BuildError(f"block {key.name!r} is not part of the system")
            return key
        block = self.system.blocks.get(key)
        if block is None:
            raise BuildError(f"unknown block {key!r}")
        return block

    def terms_for(self, block: BlockId):
        return self.objective.get(block, ())

    def nonsmooth_term(self, block: BlockId):
        for t in self.terms_for(block):
            if not t.smooth:
                return t
        return None

    @property
    def all_blocks(self):
        return list(self.update_order) + list(self.z_order)

    def z_components(self):
        """Tuples of z blocks tied by shared equations, each in block order;
        a tuple of several blocks is solved jointly."""
        return self._z_components

    def _validate(self):
        for name in self.custom_updaters:
            if name not in self.system.blocks:
                raise BuildError(f"custom updater for unknown block {name!r}")
        for block, terms in self.objective.items():
            for t in terms:
                if not isinstance(t, ObjectiveTerm):
                    raise BuildError(
                        f"objective for {block.name!r} contains "
                        f"{type(t).__name__}; expected ObjectiveTerm")
                reason = t.shape_error(block.shape)
                if reason:
                    raise ShapeMismatchError(
                        f"{type(t).__name__} on block {block.name!r} of shape "
                        f"{block.shape} does not fit: {reason}", block=block.name)
            nonsmooth = [t for t in terms if not t.smooth]
            if len(nonsmooth) > 1:
                raise BuildError(
                    f"block {block.name!r} carries {len(nonsmooth)} nonsmooth "
                    "terms; at most one is supported")
            if nonsmooth and not hasattr(nonsmooth[0], "stat_residual"):
                raise BuildError(
                    f"nonsmooth term {type(nonsmooth[0]).__name__} on block "
                    f"{block.name!r} has no stat_residual(x, g)")

    def _build_units(self):
        """(focus, solve plan) per update unit in step order; the plan is
        None for a block with a custom updater.  Each plan is read from a
        form frozen where every block is all ones: the one value a plan reads
        when it is built is a Hadamard partner's square, to check that the
        curvature is positive, and at all ones that square is one in every
        entry, so the check reads the structure alone.  The ones are
        read-only views of one scalar.  Which products a step forms twice
        is read from the forms too (see :func:`_repeats`)."""
        system = self.system
        point = {b: np.broadcast_to(1.0, b.shape) for b in system.blocks.values()}
        foci = [(b,) for b in self.update_order] + self._z_components
        forms = [None if focus[0].name in self.custom_updaters
                 else freeze(system, focus, point) for focus in foci]
        shared, self._kept_terms = _repeats(system, foci, forms)
        self._memo = (any(shared) or bool(self._kept_terms)
                      or any(isinstance(t, Conv2D) for _, ts in system.equations for t in ts))
        units = []
        for focus, form, eqs in zip(foci, forms, shared):
            if form is None:
                units.append((focus, None))
                continue
            extras = [(b.name, t) for b in focus for t in self.terms_for(b)
                      if t.smooth]
            units.append((focus, _SolvePlan(form, extras,
                                            term=self.nonsmooth_term(focus[0]),
                                            scratch=self._scratch, shared=eqs)))
        # What step(out=) keeps of a given-up state, (key, dict, shape, name,
        # error fields): each multiplier and lone diagonal-path block.
        self._destinations = [(e, "multipliers", system.eq_shape(e), f"multiplier {e}",
                               {"eq_id": e}) for e in system.eq_ids]
        self._destinations += [(f[0], "assignment", f[0].shape, f"block {f[0].name!r}",
                                {"block": f[0].name}) for f, plan in units
                               if len(f) == 1 and plan is not None and plan.path == "diag"]
        return units

    def _arrays(self) -> "_StepArrays":
        """The step's arrays past its units, taken on first use, so that
        building a Problem and choosing its rho take none."""
        if self._step_arrays is None:
            self._step_arrays = _StepArrays(self)
        return self._step_arrays

    def _slack_maps(self) -> "_SlackMaps":
        """The slack maps and their spectra, built on first use and kept.
        Each map is frozen once at zeros, its blocks in ``blocks_with_role``
        order: z1 and z2 blocks enter only linear terms, so it is the same
        at every point.  The zeros are read-only views of one scalar, so the
        maps the record keeps hold no block-sized array."""
        if self._slack is None:
            zeros = {b: np.broadcast_to(0.0, b.shape) for b in self.system.blocks.values()}
            maps = []
            for roles in ((ROLE_Z1,), (ROLE_Z2,), (ROLE_Z1, ROLE_Z2)):
                blocks = self.system.blocks_with_role(*roles)
                maps.append(freeze(self.system, blocks, zeros) if blocks else None)
            self._slack = _SlackMaps(*maps)
        return self._slack

    def _build_z_components(self):
        zs = self.z_order
        if not zs:
            return []
        parent = {b: b for b in zs}

        def find(b):
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            return b

        for _, terms in self.system.equations:
            eq_zs = list(dict.fromkeys(b for t in terms for b in t.blocks()
                                       if b.role != ROLE_X))
            for a, b in zip(eq_zs, eq_zs[1:]):
                parent[find(a)] = find(b)
        comps = {}
        for b in zs:
            comps.setdefault(find(b), []).append(b)
        # zs is in block order, so each component and the list of them are.
        out = [tuple(blocks) for blocks in comps.values()]
        for blocks in out:
            reason = self._joint_obstacle(blocks) if len(blocks) > 1 else None
            if reason:
                raise BuildError(
                    f"z blocks {[b.name for b in blocks]} share an equation "
                    f"but have no exact joint update: {reason}; give each "
                    "block its own equation through a slack block, as the "
                    "zoo families do")
        return out

    def _joint_obstacle(self, blocks):
        """Why one quadratic solve cannot minimize L over `blocks`, or None."""
        for b in blocks:
            if self.nonsmooth_term(b) is not None:
                return f"block {b.name!r} carries a nonsmooth term"
            if b.name in self.custom_updaters:
                return f"block {b.name!r} has a custom updater"
        for _, terms in self.system.equations:
            for t in terms:
                shared = [b.name for b in t.blocks() if b in blocks]
                if len(shared) > 1:
                    return f"one term multiplies blocks {shared}"
        return None


def _repeats(system, foci, forms):
    """What a step forms more than once from the same values, read from the
    units' forms (None for a custom updater) alone: per unit, the
    equations whose target (``FrozenLinearForm.target``) other units read
    too; and the product terms (``_Term.product``) that two offsets, or an
    offset and ``evaluate``, read, by id.  Each maps to (its reads, the
    ``system._Slot`` of its term, or of its equation and the blocks read).
    Only equations of at least ``_KEEP_MIN`` entries count.

    A target reads the old multiplier, which a sweep does not change, and
    the blocks its equation's other terms read, so two units read the same
    target when they read the same blocks of that equation and no unit
    between them updates one; a term's product is read again while no unit
    updates one of its blocks.  A target read again forms its offset
    once."""
    rebound = {}  # block -> units that have updated it so far
    seen = {}     # (what, (block, rebound count) of its reads) -> times read
    big = {e for e, _ in system.equations
           if math.prod(system.eq_shape(e)) >= _KEEP_MIN}

    def read(what, blocks):
        key = (what, tuple((b, rebound.get(b, 0)) for b in blocks))
        seen[key] = seen.get(key, 0) + 1
        return key

    def read_terms(e, terms):
        return [(read(("term", id(t)), t.blocks()), t, e) for t in terms if t.product]

    targets, terms = [], []
    for focus, form in zip(foci, forms):
        keys = []
        if form is not None:
            plan = form.plan
            for e in [e for e in plan.eq_pieces if e in big]:
                keys.append((e, read(("target", e), plan.eq_reads[e])))
                if seen[keys[-1][1]] == 1:
                    terms += read_terms(e, plan.frozen_terms[e])
        targets.append(keys)
        for b in focus:
            rebound[b] = rebound.get(b, 0) + 1
    for e, eq_terms in system.equations:
        if e in big:
            terms += read_terms(e, eq_terms)
    slots, kept = {}, {}  # slots: a term's id, or (equation, blocks read) -> slot

    def slot(item, e):
        return slots.setdefault(item, _Slot(system.eq_shape(e)))

    for key, t, e in terms:
        if seen[key] > 1:
            kept[id(t)] = (max(seen[key], kept.get(id(t), (0,))[0]), slot(id(t), e))
    return [{e: (seen[key], slot((e, tuple(b for b, _ in key[1])), e))
             for e, key in keys if seen[key] > 1} for keys in targets], kept


class _StepArrays:
    """The arrays of a step's phases past its units, taken from the scratch
    its problem's solve plans share (see ``system._Scratch``).

    L's phase: per equation, its ``evaluate`` pair (``residual_out``), and
    each objective term's ``scratch_shape`` array (``al_terms``, in
    objective order).  The blocks' phase: per block name, an array that
    holds the block's step, then its gradient sum in the stationarity
    estimate (``blocks``); and each smooth term's array, in
    ``block_terms``, (block, ((smooth term, array or None, handed), ...),
    nonsmooth term) per block.  A ``Quadratic`` with a center, listed once
    for its block, is handed: its array is the same in both phases and no
    other array of either is, so the residual that L leaves in it is still
    there for the stationarity estimate at the same point (see ``step``)."""

    def __init__(self, problem: Problem):
        take = problem._scratch.take
        dims = problem.system.constraint_dims()
        shapes, n = [s for _, s in dims], len(dims)
        # Terms by (block, id): a term need be neither hashable nor comparable.
        al_terms = [(b, t) for b, terms in problem.objective.items() for t in terms]
        keys = [(b, id(t)) for b, t in al_terms]
        quads = [(b, t) for (b, t), k in zip(al_terms, keys) if isinstance(t, Quadratic)
                 and t.center is not None and keys.count(k) == 1]
        first = [t.scratch_shape(b.shape) for b, t in quads]
        outs = {(b, id(t)): a for (b, t), a in zip(quads, take(first))}
        handed = set(outs)
        rest = [(b, t) for b, t in al_terms if (b, id(t)) not in handed]
        got = take([*first, *shapes, *shapes,
                    *(t.scratch_shape(b.shape) for b, t in rest)])[len(first):]
        self.residual_out = list(zip(got[:n], got[n:2 * n]))
        outs.update(((b, id(t)), a) for (b, t), a in zip(rest, got[2 * n:]))
        self.al_terms = [(b, t, outs[b, id(t)]) for b, t in al_terms]
        blocks = problem.all_blocks
        smooth = [[t for t in problem.terms_for(b) if t.smooth] for b in blocks]
        rest = [(b, t) for b, ts in zip(blocks, smooth) for t in ts
                if (b, id(t)) not in handed]
        got = take([*first, *(b.shape for b in blocks),
                    *(t.scratch_shape(b.shape) for b, t in rest)])[len(first):]
        self.blocks = {b.name: a for b, a in zip(blocks, got)}
        outs.update(((b, id(t)), a) for (b, t), a in zip(rest, got[len(blocks):]))
        self.block_terms = [(b, tuple((t, outs[b, id(t)], (b, id(t)) in handed)
                                      for t in ts), problem.nonsmooth_term(b))
                            for b, ts in zip(blocks, smooth)]


def _sq_norm(arrays) -> float:
    """The squared norm of ``arrays`` stacked, summed one array at a time."""
    return sum(float(np.vdot(a, a)) for a in arrays)


def _squared(residuals) -> list:
    """Each of ``residuals`` with its squared norm."""
    return [(r, float(np.vdot(r, r))) for r in residuals]


def _al(problem: Problem, assignment: dict, multipliers: dict, rho: float,
        residuals=None) -> float:
    """L at a point of checked block values (see
    ``system._checked_values``); ``residuals`` may pass, for it, each array
    of ``evaluate``'s result with its squared norm.  Its arrays are the
    problem's scratch of L's phase (see ``_StepArrays``); the inner
    products write none."""
    arrays = problem._arrays()
    total = 0.0
    for block, t, out in arrays.al_terms:
        v = t.value(assignment[block]) if out is None else t.value(assignment[block], out=out)
        if not v < np.inf:
            return math.inf
        total += v
    if residuals is None:
        residuals = _squared(_evaluate(problem.system, assignment, out=arrays.residual_out))
    for eq_id, (r, sq) in zip(problem.system.eq_ids, residuals):
        lin = float(np.vdot(multipliers[eq_id], r))
        total += lin + 0.5 * rho * sq
    return float(total)


def _check_state(problem: Problem, state: SolverState) -> dict:
    """The state's block values, each checked once (see
    ``system._checked_values``: KeyError or ShapeMismatchError naming the
    block), after refusing multipliers that do not fit the system, naming
    the equation (ShapeMismatchError), or a rho that is not positive and
    finite (ValueError), as ``prox._check_duals`` refuses them."""
    _check_duals(problem.system.constraint_dims(), state.multipliers, state.rho)
    return _checked_values(problem.system, state.assignment)


def augmented_lagrangian(problem: Problem, state: SolverState) -> float:
    """L at the state's assignment, multipliers and rho; +inf when infeasible
    for an indicator term.  The state is checked as ``step`` checks it."""
    return _al(problem, _check_state(problem, state), state.multipliers, state.rho)


def _update_blocks(problem: Problem, focus: tuple, plan, assignment: dict,
                   multipliers: dict, rho: float, block_steps: dict, steps: dict,
                   bind, out=None):
    """Minimize L exactly over one block, or jointly over a z component, in
    place in ``assignment``, recording each block's step norm, the step
    written into the block's array of ``steps``; each new value is bound by
    ``bind(assignment, block, value)``.  ``plan`` is the unit's solve plan,
    None for a custom updater, which belongs to a lone block (see
    ``Problem``), is looked up at each call and is handed read-only views
    (a read-only result, one of them, is copied).  ``out`` is the array a
    lone block's diagonal path writes into, or None."""
    if plan is None:
        block = focus[0]
        value = np.asarray(problem.custom_updaters[block.name](
            problem, block, _read_only(assignment), _read_only(multipliers), rho),
            dtype=float)
        if value.shape != block.shape:
            raise SubproblemError(
                f"custom updater for {block.name!r} returned shape "
                f"{value.shape}, declared {block.shape}", block=block.name)
        new = [(block, value if value.flags.writeable else value.copy())]
    else:
        form = freeze(problem.system, focus, assignment)
        y0 = (np.concatenate([np.ravel(assignment[b]) for b in focus])
              if plan.path == "cg" else None)
        y = plan.solve(form, multipliers, rho, y0=y0, out=out)
        new = [(b, y[sl].reshape(b.shape)) for b, sl in zip(focus, plan.slices)]
    for b, value in new:
        change = np.subtract(value, assignment[b], out=steps[b.name])
        block_steps[b.name] = math.sqrt(np.vdot(change, change))
        bind(assignment, b, value)


def _stationarity(problem: Problem, assignment: dict, multipliers: dict,
                  formed: bool = False):
    """Per-block first-order residuals and their maximum.

    For a smooth block this is the norm of the partial gradient of L's linear
    part, grad phi_block + C'_block^T W; for a block with one separable
    nonsmooth term it is the distance of that gradient to the negative
    subdifferential (normal cone for indicators).  ``assignment`` holds
    checked values, as ``_check_state`` returns them.  ``formed`` says that
    ``_al`` ran last, at the same assignment, and left the residuals of the
    handed terms (see ``_StepArrays``) in their arrays.
    """
    parts = {}
    arrays = problem._arrays()
    adjoints = _block_adjoints(problem.system, assignment, multipliers,
                               out=arrays.blocks)
    for block, smooth, term in arrays.block_terms:
        g = adjoints[block]
        x = assignment[block]
        for t, out, handed in smooth:
            if out is None:
                g += t.grad(x)
            else:
                g += t.grad(x, out=out, formed=True) if formed and handed else t.grad(x, out=out)
        parts[block.name] = (math.sqrt(np.vdot(g, g)) if term is None
                             else term.stat_residual(x, g))
    agg = max(parts.values()) if parts else 0.0
    return parts, agg


def step(problem: Problem, state: SolverState, *, check_argmin: bool = False,
         out: SolverState | None = None):
    """One full iteration; returns (new_state, IterTrace).

    check_argmin re-evaluates L after every block update and records a
    Violation when it rose by more than 1e-9 * (1 + |L|) (exact minimization
    over one block can never increase L).

    Each product of the step's values that it reads twice is formed once
    (see system.step_memo), as nmf3's X Y and the target of Z = X Y that
    its Y and X units share; L leaves the residual of a centred
    ``Quadratic`` for the stationarity estimate (see ``_StepArrays``).
    Every array that dies inside the step lives in scratch ``problem``
    reuses, or in a kept product's slot, so one Problem runs one step at a
    time; nothing the step returns aliases them.  Each new multiplier is
    written as rho * r, then W added.

    ``out`` is a state, other than ``state``, that the caller gives up.
    The step empties its dicts first, keeping only the arrays it writes
    into: the new multipliers' and the diagonal path's lone blocks'
    (``Problem._destinations``).  Any other new value is a new array; the
    bits are the same either way, and a state not given up never changes.
    ValueError refuses ``out is state``, and names a kept array that is no
    writeable C-contiguous float array or may share memory with a value of
    ``state`` or another kept one; ShapeMismatchError, one of another shape.

    The state is checked once, first, and the step's own reads rely on
    that check: ShapeMismatchError names an equation whose multiplier is
    missing or has another shape, ValueError refuses a rho that is not
    positive and finite, and KeyError or ShapeMismatchError names a block
    whose value is missing or has another shape.  The new state's
    assignment holds the system's blocks alone, as float arrays.
    """
    t0 = time.perf_counter()
    assignment = _check_state(problem, state)
    into = {} if out is None else _give_up(problem, state, assignment, out)
    rho = state.rho
    system = problem.system
    arrays = problem._arrays()
    multipliers = state.multipliers
    mults_new = {}
    k_next = state.k + 1
    block_steps = {}
    violations = []
    L_track = _al(problem, assignment, multipliers, rho) if check_argmin else None

    def _argmin_check(label):
        nonlocal L_track
        L_now = _al(problem, assignment, multipliers, rho)
        tol = 1e-9 * (1.0 + abs(L_now) if math.isfinite(L_now) else 1.0)
        if math.isfinite(L_track) and L_now > L_track + tol:
            violations.append(Violation("block_argmin", float(L_now - L_track),
                                        tol, f"L rose while updating {label}"))
        L_track = L_now

    memo = (step_memo(assignment, multipliers, mults_new, terms=problem._kept_terms)
            if problem._memo else None)
    bind = dict.__setitem__ if memo is None else memo.rebind
    with memo or nullcontext():
        try:
            for focus, plan in problem._units:
                _update_blocks(problem, focus, plan, assignment, multipliers,
                               rho, block_steps, arrays.blocks, bind,
                               into.get(focus[0]))
                if check_argmin and focus[0].role == ROLE_X:
                    _argmin_check(repr(focus[0].name))
            if check_argmin and problem.z_order:
                _argmin_check("the z group")
        except SubproblemError as exc:
            if exc.k < 0:
                exc.k = k_next
            raise

        residuals = _squared(_evaluate(system, assignment, out=arrays.residual_out))
        primal = math.sqrt(sum(sq for _, sq in residuals))
        dual_sq = 0.0
        for eq_id, (r, _) in zip(system.eq_ids, residuals):
            # rho * r, then W added to it: the bits of W + rho * r.
            delta = np.multiply(r, rho, out=into.get(eq_id))
            dual_sq += float(np.vdot(delta, delta))
            bind(mults_new, eq_id, np.add(delta, multipliers[eq_id], out=delta))
        L_new = _al(problem, assignment, mults_new, rho, residuals)
        _, stat = _stationarity(problem, assignment, mults_new, formed=L_new < math.inf)
    new_state = SolverState(assignment, mults_new, rho, k_next)
    trace = IterTrace(k=k_next, L=float(L_new), primal_res=primal,
                      dual_step=math.sqrt(dual_sq), block_steps=block_steps,
                      stat_est=float(stat),
                      wall_ms=(time.perf_counter() - t0) * 1000.0,
                      violations=tuple(violations))
    return new_state, trace


def _give_up(problem: Problem, state: SolverState, assignment: dict,
             out: SolverState) -> dict:
    """The arrays of ``out``, by eq_id or block, that a step from ``state``
    (its checked values ``assignment``) writes into, checked as ``step``
    says, and ``out`` emptied.  Arrays of different owners share no memory,
    so ``np.may_share_memory`` runs only where owners repeat or are unknown."""
    if out is state or {id(out.assignment), id(out.multipliers)} & {
            id(state.assignment), id(state.multipliers)}:
        raise ValueError("out must be a state other than the one stepped from")
    held = [*assignment.values(), *state.multipliers.values()]
    owners = {_owner(h) for h in held}
    taken = {}
    for key, where, shape, what, fields in problem._destinations:
        a = getattr(out, where).get(key)
        if a is None:
            continue
        if not (isinstance(a, np.ndarray) and a.dtype == float and a.flags.carray):
            raise ValueError(f"out's {what} is not a writeable C-contiguous float array")
        if a.shape != shape:
            raise ShapeMismatchError(f"out's {what} has shape {a.shape}, expected {shape}",
                                     **fields)
        owner = _owner(a)
        if ((owner is None or owner in owners or None in owners)
                and any(np.may_share_memory(a, h) for h in [*held, *taken.values()])):
            raise ValueError(f"out's {what} may share memory with a value of the state "
                             "stepped from or another array of out")
        owners.add(owner)
        taken[key] = a
    out.assignment.clear()
    out.multipliers.clear()
    return taken


def _owner(a):
    """The id of the array that owns the memory of ``a``, or None."""
    base = a.base if isinstance(a, np.ndarray) and a.base is not None else a
    return id(base) if isinstance(base, np.ndarray) and base.flags.owndata else None


def _fail_on(violations):
    """Raise AssertionError naming each violation, if there is any."""
    if violations:
        lines = [f"{v.check}: magnitude {v.magnitude:.3e} exceeds {v.tol:.3e}"
                 f" ({v.detail})" for v in violations]
        raise AssertionError("iteration checks failed: " + "; ".join(lines))


def solve(problem: Problem, *, rho=None, max_iter: int = 500,
          tol_primal: float = 1e-8, tol_step: float = 1e-8, seed: int = 0,
          assert_level: str = "none", init=None):
    """Run the solver; returns (state, traces, status).

    rho=None picks the penalty automatically: certified from metadata
    curvature constants when they are declared, otherwise by doubling from 1
    until a 10-iteration trial keeps L nonincreasing (ValueError when 40
    doublings find none).  Initial blocks are
    unit-Frobenius Gaussian draws (seeded; one draw per block in sorted order,
    so runs are reproducible bit for bit), overridden per block by ``init``,
    whose values must have the block's shape and finite entries; naming one
    block twice raises BuildError.
    Convergence requires the stacked residual norm to fall below
    tol_primal * (1 + ||C(0)||) with every block step below tol_step on
    3 consecutive iterations; C(0) is the sum of the constant terms, as
    every other term vanishes where the blocks are zero.  Divergence (a
    status, not an exception) is declared when L or the multiplier norm
    passes 1e12 or stops being finite.
    assert_level "basic" attaches per-iteration invariant violations to the
    traces; "strict" additionally checks per-block descent and raises
    AssertionError on any violation, the step's own included.

    Each step gives up the state from two steps back (``step(out=)``), or
    three when the checks read the previous one; never the first state.
    """
    if assert_level not in ("none", "basic", "strict"):
        raise ValueError(f"unknown assert_level {assert_level!r}")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    system = problem.system
    blocks = sorted(system.blocks.values(), key=_block_key)
    if not blocks:
        raise BuildError("the system has no variable blocks")

    init_map = {}
    if init:
        for key, v in init.items():
            block = problem._resolve(key)
            if block in init_map:
                raise BuildError(f"init names block {block.name!r} twice")
            arr = np.asarray(v, dtype=float)
            if arr.shape != block.shape:
                raise ShapeMismatchError(
                    f"initial value for {block.name!r} has shape {arr.shape}, "
                    f"declared {block.shape}", block=block.name)
            require_finite(arr, f"initial value for {block.name!r}")
            init_map[block] = arr.copy()
    rng = np.random.default_rng(seed)
    assignment = {}
    for b in blocks:
        draw = rng.standard_normal(b.shape)
        norm = float(np.linalg.norm(draw))
        if norm > 0.0:
            draw = draw / norm
        assignment[b] = init_map.get(b, draw)
    multipliers = {e: np.zeros(system.eq_shape(e)) for e in system.eq_ids}
    offsets_norm = math.sqrt(_sq_norm(_constant_part(system)))

    certified = False
    if rho is None:
        rho_val, certified = _auto_rho(problem, assignment)
    elif isinstance(rho, str):
        raise ValueError(f"unknown rho policy {rho!r}")
    else:
        rho_val = float(rho)
        if not 0.0 < rho_val < math.inf:
            raise ValueError("rho must be positive and finite")

    current = SolverState(assignment, multipliers, rho_val, 0)
    traces = []
    if max_iter == 0:
        return current, traces, STATUS_MAXITER
    status = STATUS_MAXITER
    streak = 0
    strict = assert_level == "strict"
    back = 2 if assert_level == "none" else 3
    done = []  # the states the steps returned, to give up, the oldest first
    for _ in range(max_iter):
        prev = current
        current, tr = step(problem, prev, check_argmin=strict,
                           out=done.pop(0) if len(done) == back else None)
        done.append(current)
        if strict:
            _fail_on(tr.violations)
        if assert_level != "none":
            from . import diagnostics
            extra = diagnostics.assert_iteration(problem, prev, current,
                                                 level=assert_level,
                                                 rho_certified=certified)
            if extra:
                tr.violations = tr.violations + tuple(extra)
        traces.append(tr)
        w_sq = sum(float(np.vdot(w, w)) for w in current.multipliers.values())
        if not math.isfinite(tr.L) or tr.L > _DIVERGE_LIMIT \
                or w_sq > _DIVERGE_LIMIT ** 2:
            status = STATUS_DIVERGED
            break
        max_step = max(tr.block_steps.values(), default=0.0)
        if tr.primal_res <= tol_primal * (1.0 + offsets_norm) \
                and max_step <= tol_step:
            streak += 1
        else:
            streak = 0
        if streak >= _CONVERGED_STREAK:
            status = STATUS_CONVERGED
            break
    return current, traces, status


def _auto_rho(problem: Problem, assignment: dict):
    """(rho, certified): the metadata bound when available, else a probe.

    Raises ValueError when no probed rho up to 2**39 passes its trial run.
    The r_blocks maps may depend on values, so they are frozen here.
    """
    m1, M1, M2, M_F, r_blocks = _curvature(problem)
    system = problem.system
    if m1 is not None and M1 is not None and system.blocks_with_role(ROLE_Z1):
        r_maps = [(freeze(system, system.blocks[name], assignment), float(mu))
                  for name, mu in r_blocks]
        return _grid_rho(m1, M1, M2 or 0.0, M_F or 0.0, problem._slack_maps(),
                         r_maps), True
    rho_try = 1.0
    for _ in range(40):
        if _probe_ok(problem, assignment, rho_try):
            return rho_try, False
        rho_try *= 2.0
    raise ValueError(
        f"no admissible rho found by doubling: the trial run failed up to "
        f"rho = {rho_try / 2.0!r}")


def _probe_ok(problem: Problem, base: dict, rho: float, iters: int = 10) -> bool:
    """Whether ``iters`` steps from ``base`` and zero multipliers keep L
    finite and nonincreasing; each gives up the state from two steps back,
    never the first, which holds ``base``."""
    st = SolverState(base, {e: np.zeros(problem.system.eq_shape(e))
                            for e in problem.system.eq_ids}, rho, 0)
    values = [_al(problem, st.assignment, st.multipliers, rho)]
    done = []
    try:
        for _ in range(iters):
            st, tr = step(problem, st, out=done.pop(0) if len(done) == 2 else None)
            done.append(st)
            values.append(tr.L)
    except SubproblemError:
        return False
    for a, b in zip(values, values[1:]):
        if not math.isfinite(b):
            return False
        if math.isfinite(a) and b > a + 1e-10 * (1.0 + abs(a)):
            return False
    return True


def _min_pos_from_eigs(eigs: np.ndarray, tol: float):
    """(smallest eigenvalue after zeroing, smallest positive eigenvalue)."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    lam_max = eigs[-1]
    if eigs[0] < -tol * max(abs(lam_max), 1.0):
        raise ValueError("matrix is not positive semidefinite within tolerance")
    if lam_max <= 0.0:
        raise ValueError("matrix has no positive eigenvalue")
    thr = tol * lam_max
    eigs = np.where(eigs < thr, 0.0, eigs)
    positives = eigs[eigs > 0.0]
    if positives.size == 0:
        raise ValueError("matrix has no positive eigenvalue")
    return float(eigs[0]), float(positives.min())


def lambda_min_pos(M, tol: float = 1e-9):
    """(lambda_min, lambda_min_positive) of a symmetric PSD matrix.

    Eigenvalues below tol * lambda_max count as zero; lambda_min is taken
    after that truncation.  Raises ValueError for matrices that have NaN
    or infinite entries, are asymmetric, indefinite beyond the tolerance,
    or have no positive eigenvalue.
    """
    M = _finite_matrix(M, "matrix")
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError("a nonempty square matrix is required")
    scale = float(np.max(np.abs(M)))
    if float(np.max(np.abs(M - M.T))) > tol * (1.0 + scale):
        raise ValueError("matrix is not symmetric")
    eigs = np.linalg.eigvalsh((M + M.T) / 2.0)
    return _min_pos_from_eigs(eigs, tol)


def _finite_matrix(m, what: str) -> np.ndarray:
    """``m`` as a float array; ValueError naming ``what`` when an entry is
    NaN or infinite."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} has NaN or infinite entries")
    return m


def _gram_eigenvalues(q):
    """Ascending eigenvalues of Q^T Q for an operator, matrix or frozen form."""
    if isinstance(q, FrozenLinearForm):
        plan = _SolvePlan(q)
        diag = plan.normal_diag(q, 1.0)
        if diag is not None:
            return np.sort(np.asarray(diag, dtype=float))
        n = q.in_dim
        if n > _SPECTRUM_LIMIT:
            raise BuildError(
                f"constraint map with {n} columns is too large for a dense "
                "spectrum")
        gram = plan.dense_normal(q, 1.0)
        return np.linalg.eigvalsh((gram + gram.T) / 2.0)
    if isinstance(q, LinearOp):
        gd = q.gram_diag()
        if gd is not None:
            return np.sort(np.asarray(gd, dtype=float))
        q = q.to_dense()
        if q is None:
            raise BuildError("operator is too large for a dense spectrum")
    mat = np.asarray(q, dtype=float)
    if mat.ndim != 2:
        raise BuildError("Q must be a LinearOp, a matrix, or a frozen form")
    return np.linalg.eigvalsh(mat.T @ mat)


_CURVATURE_KEYS = ("m1", "M1", "M2", "M_F", "r_blocks")


def _curvature(problem: Problem):
    """(m1, M1, M2, M_F, r_blocks) from ``problem.metadata``, read at each
    call since the dict stays editable: each constant a float, None when
    absent, and r_blocks a tuple of (block name, mu) pairs."""
    md = problem.metadata
    *constants, r_key = _CURVATURE_KEYS
    return (*(float(md[k]) if k in md else None for k in constants),
            tuple(md.get(r_key, ())))


class _SlackMaps:
    """The slack map ``z`` (the z1 and z2 blocks together), with the
    smallest positive eigenvalue of the z1 map's gram, ``lambda_pp``, and
    the smallest of the z2 map's, ``sigma`` (0.0 when at most 1e-10: not
    injective), each None without its map; the z1 and z2 maps are read
    here, not kept.  Raises ValueError when z1's gram is indefinite or has
    no positive eigenvalue."""

    def __init__(self, z1, z2, z=None):
        self.z = z
        self.lambda_pp = self.sigma = None
        if z1 is not None:
            _, self.lambda_pp = _min_pos_from_eigs(_gram_eigenvalues(z1), 1e-9)
        if z2 is not None:
            sigma = float(np.min(_gram_eigenvalues(z2)))
            self.sigma = sigma if sigma > 1e-10 else 0.0


def rho_lower_bound(m1: float, M1: float, M2: float, M_F: float, q1, q2,
                    r_blocks=()) -> float:
    """Smallest grid penalty 1e-3 * 1.05**k meeting the descent conditions.

    m1/M1 bound the curvature of the smooth coupled term over the z1 blocks,
    M2 its gradient Lipschitz constant over the z2 blocks, and M_F the
    Lipschitz constant of the separable smooth remainder.  q1/q2 are the
    constraint coefficient maps of the z1/z2 groups (LinearOp, matrix, or a
    frozen form over those blocks); q2 may be None when there are no z2
    blocks, which requires M2 == 0.  r_blocks lists (map, mu) pairs for
    blocks whose own coefficient map must be injective, adding the condition
    rho > (mu + M_F) / lambda_min(R^T R) for each.  A constant that is NaN
    or infinite, or a matrix q1 or q2 with such an entry, raises ValueError
    naming it.
    """
    for name, q in (("q1", q1), ("q2", q2)):
        if q is not None and not isinstance(q, (LinearOp, FrozenLinearForm)):
            _finite_matrix(q, name)
    return _grid_rho(m1, M1, M2, M_F, _SlackMaps(q1, q2), r_blocks)


def _grid_rho(m1, M1, M2, M_F, spectra: _SlackMaps, r_blocks) -> float:
    """rho_lower_bound with the slack spectra read from ``spectra``."""
    for name, value in (("m1", m1), ("M1", M1), ("M2", M2), ("M_F", M_F)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not m1 > 0.0:
        raise ValueError("m1 must be positive")
    if M1 < m1:
        raise ValueError("M1 must be at least m1")
    if M2 < 0.0 or M_F < 0.0:
        raise ValueError("M2 and M_F must be nonnegative")
    lam_pp, sigma = spectra.lambda_pp, spectra.sigma
    if lam_pp is None:
        raise ValueError("Q1 is required")
    if sigma == 0.0 or (sigma is None and M2 > 0.0):
        raise ValueError("Q2 not injective")

    kappa = M1 / m1
    bound = max(2.0 * M1 * kappa / lam_pp,
                0.5 * (M1 + M2) * max(1.0 / sigma if sigma else 0.0,
                                      (1.0 + 2.0 * kappa) ** 2 / lam_pp))
    for r_map, mu in r_blocks:
        if mu + M_F == 0.0:
            continue
        lam_min = float(np.min(_gram_eigenvalues(r_map)))
        if lam_min <= 1e-10:
            raise ValueError("final-block coefficient map is not injective")
        bound = max(bound, (mu + M_F) / lam_min)

    def admissible(rho):
        return rho > bound and (not M2 > 0.0 or sigma * rho / 2.0
                                - M2 * M2 / (sigma * rho) > M2 / 2.0)

    rho = 1e-3
    for _ in range(3000):
        if admissible(rho):
            return float(rho)
        rho *= 1.05
    raise ValueError("no admissible rho within the search grid")


def add_prox_constraint(problem: Problem, block, S, rho: float) -> Problem:
    """Clone the problem with a proximal tie on one x-role block.

    Appends a shadow z1 block z' of the same shape and the equation

        c * S12 @ block - c * S12 @ z' = 0,   c = sqrt(2 / rho),

    where S12 is the PSD square root of S (a matrix or LinearOp acting on the
    flattened block).  The shadow gets an exact anchored updater, so starting
    from zero multipliers it tracks the block exactly and its multiplier stays
    zero; the block's own subproblem gains the penalty
    (rho_solver / rho) * ||x - x_prev||_S^2, which matches the intended
    proximal weight when the solver runs at this rho.  The curvature metadata
    keys are dropped from the clone: the certified penalty bound does not
    cover the extended system.  A z block is refused with BuildError: its
    shadow would share an equation with it, and the shadow's custom updater
    leaves that pair no exact joint update (see ``Problem``).
    """
    if not 0.0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    blk = problem._resolve(block)
    if blk.role != ROLE_X:
        raise BuildError(f"a proximal tie needs an x-role block; {blk.name!r} "
                         f"has role {blk.role!r}")
    if isinstance(S, LinearOp):
        s_mat = S.to_dense()
        if s_mat is None:
            raise BuildError("S is too large to densify")
    else:
        s_mat = np.asarray(S, dtype=float)
    if s_mat.shape != (blk.dim, blk.dim):
        raise ShapeMismatchError(
            f"S has shape {s_mat.shape}, expected {(blk.dim, blk.dim)} for "
            f"block {blk.name!r}", block=blk.name)
    if float(np.max(np.abs(s_mat - s_mat.T))) > 1e-10 * (1.0 + float(np.max(np.abs(s_mat)))):
        raise ValueError("S must be symmetric")
    lam, vecs = np.linalg.eigh((s_mat + s_mat.T) / 2.0)
    if lam[0] < -1e-10 * max(1.0, abs(lam[-1])):
        raise ValueError("S is not positive semidefinite")
    lam = np.maximum(lam, 0.0)
    sqrt_s = (vecs * np.sqrt(lam)) @ vecs.T
    inv_sqrt = (vecs * np.where(lam > 1e-12 * max(1.0, lam[-1]),
                                1.0 / np.sqrt(np.where(lam > 0, lam, 1.0)),
                                0.0)) @ vecs.T
    c = math.sqrt(2.0 / rho)

    name = f"{blk.name}_prox"
    while name in problem.system.blocks:
        name += "_"
    shadow = BlockId(name, ROLE_Z1, blk.shape)

    rebuilt = MultiaffineSystem()
    for _, terms in problem.system.equations:
        rebuilt.add_equation(terms)
    eq_new = rebuilt.add_equation(
        [LinearTerm(DenseOp(c * sqrt_s, blk.shape, blk.shape), blk),
         LinearTerm(DenseOp(c * sqrt_s, blk.shape, blk.shape), shadow, sign=-1)])

    def _anchored(problem_, zblk, assignment, multipliers, rho_now):
        w = np.ravel(multipliers[eq_new])
        return assignment[blk] + (inv_sqrt @ w / (rho_now * c)).reshape(blk.shape)

    updaters = dict(problem.custom_updaters)
    updaters[shadow.name] = _anchored
    metadata = {k: v for k, v in problem.metadata.items()
                if k not in _CURVATURE_KEYS}
    return Problem(rebuilt, dict(problem.objective), updaters, metadata)
