"""Master-equation evolution and steady states.

The master equation is integrated on the vectorized density matrix.  A
constant generator is stepped by `steps`, the one place the program steps
a state through time with a matrix exponential: the propagator over one
grid step is computed once and applied repeatedly, which is exact up to
roundoff and untroubled by GHz-scale rotating-frame diagonals.  `steps`
yields the states in blocks of consecutive times: a run of equal gaps
applies the powers of its propagator, built once by successive products,
a block of up to 16 states in one matmul, so a gap whose propagator serves
no other gap is one matmul for one state.  A stack of generators steps
every ensemble member at once.  A stack of models is one RotatingFrameModel with a leading member
axis (see `driven`); a jump amplitude of 0 means that member has no such
jump.  Every function here that takes a model takes a stack too, and
treats it in one broadcast pass, each member bit-equal to its own model.

`expm` is the program's one matrix exponential, bit-equal to
`scipy.linalg.expm` on every slice.  The GHz-scale one-photon detunings give
generators of large norm, so scaling and squaring needs many squarings per
slice; `expm` keeps scipy's own Pade step per slice (imported from the
private `scipy.linalg._matfuncs_expm`) and does the squarings of a whole
stack as stacked matmuls, which run the same BLAS gemm per slice as scipy's
2-D ones.  `scipy.linalg` is imported inside `expm`, not with this module:
it costs about 0.3 s of start-up, and a run that never exponentiates (the
Landau-Zener sweep, the CPT scan, a dry run) never loads it.  `steps`
builds the propagators of every gap of a grid that needs one in one `expm`
call per chunk.  The bit-equalities are pinned by tests/test_lindblad.py
(`test_expm_bit_equal_to_scipy`, `test_steps_bit_equal_to_per_gap_loop`
and `test_steps_bit_equal_to_block_oracle`), under one BLAS thread and, in
CI, under the default threading.

A model's state is stepped by `model_steps` on the block of its Liouvillian
that holds the initial state, never on the whole d^2 x d^2 generator.  The
block comes from the model and the initial state (`invariant_block`): join
two levels when the Hamiltonian couples them or the initial state holds a
coherence between them; the block is every pair (a, b) of levels in one
connected component, so it holds all populations, the coherences inside each
coupled component, and a cross-component coherence such as the up/down one a
Ramsey dark segment carries.  The generator maps that block into itself
because a jump (from, to, c) is one pair of levels by construction: its
collapse operator C = c|to><from| moves through C rho C^dagger only the
`from` population onto the `to` population, and C^dagger C is diagonal, so
the dissipator keeps each pair of Hamiltonian components apart and the
populations among themselves, and the Hamiltonian mixes a coherence only
within its own pair of components.  Propagating the block is therefore
exact, and every entry outside it stays exactly zero (the weak-symmetry
block reduction of a Lindblad generator; Buca & Prosen, New J. Phys. 14,
073007 (2012); Albert & Jiang, Phys. Rev. A 89, 022118 (2014)).
`liouvillian` builds the generator straight on the block's pairs, and
`model_block` sets the block up for `model_steps` and for the callers that
step and read the block's states without scattering them back (the Rabi
ensemble and the coherence scans of `sequences`), so every propagator the
program builds from a model is the exponential of a block generator.  When
the block is the whole space its positions are all d^2 of them.

`model_block` gives the block in a real basis, the coherence vector of the
block (Alicki & Lendi, Quantum Dynamical Semigroups and Applications, LNP
286, 1987): a population keeps its position, and for a pair a < b the
position of (a, b) holds Re rho_ab and that of (b, a) holds Im rho_ab.  A
Lindblad generator maps a Hermitian matrix to a Hermitian one, so in this
basis it is a real matrix, and every propagator the program builds is a
real matrix exponential, at about half the cost of a complex one of the
same size.  `complex_entries` maps real states back to the block's complex
entries, copying the populations, so every state `model_steps` yields is
exactly Hermitian.

Trace is never renormalized; its drift is a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .driven import RotatingFrameModel


class StateError(ValueError):
    """A density matrix that is not a state: not Hermitian, not of unit trace
    or not positive."""


class DegenerateSteadyStateError(Exception):
    """The Liouvillian null space is not one-dimensional; add a small
    dephasing to break the degeneracy."""


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def pure(cls, dim: int, index: int) -> "DensityMatrix":
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    def populations(self) -> np.ndarray:
        """The diagonal, (d,), or (M, d) for the steady states of a stack."""
        return np.diagonal(self.matrix, axis1=-2, axis2=-1).real.copy()

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T))

    def min_eigenvalue(self) -> float:
        h = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(h)[0])

    def validate(self) -> None:
        if self.hermiticity_defect() > 1e-9:
            raise StateError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(self.matrix).real - 1.0) > 1e-9:
            raise StateError("density matrix trace differs from 1")
        if self.min_eigenvalue() < -1e-9:
            raise StateError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled populations."""

    times: np.ndarray
    populations: dict[str, np.ndarray]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        pops = {}
        for k, v in self.populations.items():
            v = np.asarray(v, dtype=float)
            v.setflags(write=False)
            pops[k] = v
        object.__setattr__(self, "populations", pops)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def liouvillian(model: RotatingFrameModel, index=None) -> np.ndarray:
    """Vectorized generator L with drho_vec/dt = L rho_vec (row-major vec).

    L[(a,b),(a',b')] = -i (H[a,a'] delta_bb' - delta_aa' H[b',b]), plus for
    each jump (from, to, c) the rate c*c from the `from` onto the `to`
    population and -c*c/2 on a pair for each of its two levels that is
    `from`.  Each jump's terms are added in jump order, so the whole
    generator is bit-equal to the Kronecker-product build.  A jump of
    amplitude 0 is no jump: it adds nothing, signed zeros included.

    A model gives its (k, k) generator, a stack of M models (a leading
    member axis) the (M, k, k) stack of its members' generators, built in
    one broadcast pass; each member is bit-equal to its own build, whatever
    jumps it lacks.

    With `index`, only the rows and columns at those vec positions (the pair
    (a, b) sits at a * dim + b) are built, bit-equal to slicing the whole
    generator.  `index` must be sorted and hold every population, as every
    block from `invariant_block` does.
    """
    d = model.dim
    k = d * d if index is None else len(index)
    left, right, same_a, same_b, touches, population = _pairs(
        d, None if index is None else np.asarray(index, dtype=np.intp).tobytes())
    # every member's generator, flattened over its entries
    h = model.hamiltonian.reshape(-1, d * d)
    lv = h.take(left, 1) * same_b
    lv -= same_a * h.take(right, 1)
    lv *= -1j
    if model.jumps:
        frm, to, amp = zip(*model.jumps)
        frm, to = np.array(frm, dtype=np.intp), np.array(to, dtype=np.intp)
        # amplitudes by jump slot and member
        amp = np.broadcast_to(np.array(np.broadcast_arrays(*amp)).reshape(len(frm), -1),
                              (len(frm), len(h)))
        rate, present = amp * amp, amp != 0
        # each slot's losses, the padding -0.0 - 0.0j where a member lacks
        # the jump, which adds nothing, signed zeros included
        loss = np.where(present[..., None], -0.5 * rate[..., None] * touches[to, frm][:, None],
                        complex(-0.0, -0.0))
        # H's diagonal is real, so each diagonal entry's real part is the
        # sum of its member's losses, added one jump at a time; a member
        # with jumps adds 0.0 to the imaginary part, one without adds nothing
        lv[:, ::k + 1] += reduce(np.add, loss)
        # a gain lands between two populations, where the Hamiltonian part
        # is zero; add.at sums repeated entries of a member in jump order
        slot, member = present.nonzero()
        gain = (rate[slot, member] * (to != frm)[slot]).astype(complex)
        np.add.at(lv, (member, population[to[slot]] * k + population[frm[slot]]), gain)
    lv = lv.reshape(-1, k, k)
    return lv if model.hamiltonian.ndim == 3 else lv[0]


@lru_cache(maxsize=16)
def _pairs(d: int, index: bytes | None) -> tuple[np.ndarray, ...]:
    """The parts of a generator on the vec positions `index` (the bytes of
    an intp array; None for all d * d) that depend on no model, read-only.

    For the flattened entries (p, q), p = (a, b) and q = (a', b'): the flat
    positions of H[a, a'] and of H[b', b], and the complex masks of
    a == a' and of b == b'.  Then touches[to, from, p], how many of p's two
    levels a jump from `from` to `to` drains (0.0, 1.0 or 2.0, and 0.0 on a
    self-jump's own population), and the position of each population.
    """
    pos = np.arange(d * d) if index is None else np.frombuffer(index, dtype=np.intp)
    a, b = np.divmod(pos, d)
    levels = np.arange(d)
    population = pos.searchsorted(levels * (d + 1))
    touches = np.tile(np.add(a == levels[:, None], b == levels[:, None], dtype=float), (d, 1, 1))
    touches[levels, levels, population] = 0.0
    parts = ((a[:, None] * d + a).ravel(), (b * d + b[:, None]).ravel(),
             (a[:, None] == a).astype(complex).ravel(), (b[:, None] == b).astype(complex).ravel(),
             touches, population)
    for x in parts:
        x.setflags(write=False)
    return parts


def invariant_block(model: RotatingFrameModel, rho0) -> np.ndarray:
    """Vec positions of a block of the model's generator that holds the
    density matrix `rho0` and that it maps into itself, in row-major order;
    `np.arange(d * d)` when that is the whole space.

    The block is every pair (a, b) inside one connected component of the
    graph that joins two levels when the Hamiltonian couples them or `rho0`
    holds a coherence between them.  A stack's members all start from
    `rho0`, and a stack joins the levels that any member couples.
    """
    d = model.dim
    linked = (rho0 != 0) | (model.hamiltonian != 0).reshape(-1, d, d).any(axis=0)
    linked |= linked.T
    linked.reshape(-1)[::d + 1] = True
    # k squarings join levels up to 2**k links apart; d - 1 links suffice
    for _ in range(max(d - 2, 0).bit_length()):
        linked = linked @ linked
    return linked.ravel().nonzero()[0]


# bytes of propagators `steps` builds in one `expm` call, and the most bytes
# of the powers it holds for one run of equal gaps
_STEP_BYTES = 4 << 20
# the most states of one block of a run of equal gaps: past 16 the Rabi
# presets run no faster, and each further power grows the memory that
# `run_rabi_ensemble` holds per member
_STEP_BLOCK = 16


def steps(generator: np.ndarray, vec0: np.ndarray, times):
    """Yield the states of dv/dt = generator @ v at every time in blocks of
    consecutive times, (..., b, n) each, the block (..., 1, n) of `vec0` first.

    Each gap between consecutive times is stepped with expm(generator * gap);
    the propagator P is reused while the next gap matches the one it was
    built for within a relative 1e-9, so a uniform grid costs one matrix
    exponential.  The propagators of the gaps that need one are built
    together, one `expm` call per chunk of about `_STEP_BYTES` (4 MB) of
    them, so a long non-uniform grid over a large stack holds a bounded
    amount; each is bit-equal to scipy's expm of its own generator * gap.

    A run of r equal gaps builds the powers P, P^2, ..., P^B once by
    successive products, P^k = P^(k-1) @ P, with B = min(r, `_STEP_BLOCK`)
    and fewer if the powers would pass `_STEP_BYTES`; each block of up to B
    states is then one product of the (b n, n) stack of powers with the
    state before it, and the block's last state carries into the next.  A
    gap whose propagator serves no other gap is a block of one state, the
    same matmul P @ v as a per-gap loop, so a grid without a run of equal
    gaps steps one matmul per time and bit-equal to that loop.  The powers
    of one matrix are exact up to rounding (Moler and Van Loan, SIAM Rev.
    45, 3 (2003)): on fig3d's stack the blocks and the per-gap loop both
    stay within 1e-13 of a 40-digit product
    (`test_steps_match_a_40_digit_product`).

    A stacked generator (..., n, n) steps states (..., n) of every member at
    once, each member bit-equal to stepping it alone.  The generator and the
    state are stepped C-ordered, since a matmul rounds by memory layout, so
    the states depend only on their values; every block is C-contiguous.
    Yielding blocks instead of collecting lets a caller reduce the members a
    block at a time without ever holding the (members, times, n) stack.
    """
    generator = np.ascontiguousarray(generator)
    times = np.asarray(times, dtype=float)
    vec = np.ascontiguousarray(vec0)
    yield vec[..., None, :]
    gaps = np.diff(times)
    built, built_for = [], None
    for k, gap in enumerate(gaps.tolist()):
        if built_for is None or abs(gap - built_for) > 1e-9 * built_for:
            built.append(k)
            built_for = gap
    ends = built[1:] + [len(gaps)]
    chunk = max(1, _STEP_BYTES // max(generator.nbytes, 1))
    most = min(chunk, _STEP_BLOCK)
    n = vec.shape[-1]
    for first in range(0, len(built), chunk):
        starts = built[first:first + chunk]
        scaled = generator * gaps[starts].reshape(-1, *(1,) * generator.ndim)
        for step, start, stop in zip(expm(scaled), starts, ends[first:first + chunk]):
            count = min(stop - start, most)
            powers = _powers(step, count)
            for at in range(start, stop, count):
                b = min(count, stop - at)
                block = (powers[..., :b * n, :] @ vec[..., None]).reshape(*vec.shape[:-1], b, n)
                vec = block[..., -1, :]
                yield block


def _powers(step: np.ndarray, count: int) -> np.ndarray:
    """P, P^2, ..., P^count of every (n, n) slice of `step`, stacked by rows
    as (..., count n, n), by successive products P^k = P^(k-1) @ P; `step`
    itself when count is 1."""
    if count == 1:
        return step
    n = step.shape[-1]
    powers = np.empty((*step.shape[:-2], count * n, n), dtype=step.dtype)
    powers[..., :n, :] = step
    for k in range(n, count * n, n):
        powers[..., k:k + n, :] = powers[..., k - n:k, :] @ step
    return powers


def expm(a) -> np.ndarray:
    """scipy.linalg.expm of every (n, n) slice of `a`, bit for bit.

    scipy (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009))
    runs a stack one slice at a time: a bandwidth check, a Pade step and s
    squarings, each a 2-D matmul.  Here each generic slice goes through the
    same Pade step (`pick_pade_structure` and `pade_UV_calc` from scipy's
    private `scipy.linalg._matfuncs_expm`, the functions `scipy.linalg.expm`
    calls), then the slices are sorted by their squaring count s and each
    round squares every slice that still needs one in a single stacked
    matmul, which runs the same BLAS gemm per slice as scipy's 2-D one.
    Triangular (and diagonal) slices, for which scipy has its own branch,
    go to `scipy.linalg.expm` itself, as does input that is not float64 or
    complex128 or whose slices are smaller than 2 x 2.
    `test_expm_bit_equal_to_scipy` pins the bit-equality.
    """
    from scipy.linalg import expm as scipy_expm
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

    a = np.asarray(a)
    if (a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 2 or a.size == 0
            or a.dtype not in (np.float64, np.complex128)):
        return scipy_expm(a)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    rows, cols = np.tril_indices(n, -1)
    triangular = ~flat[:, rows, cols].any(axis=1) | ~flat[:, cols, rows].any(axis=1)
    out = np.empty_like(flat)
    if triangular.any():
        out[triangular] = scipy_expm(flat[triangular])
    generic = (~triangular).nonzero()[0]
    if len(generic):
        pade = np.empty((5, n, n), dtype=a.dtype)
        powers = np.empty((len(generic), n, n), dtype=a.dtype)
        squarings = np.empty(len(generic), dtype=np.intp)
        for k, member in enumerate(generic):
            pade[0] = flat[member]
            m, squarings[k] = pick_pade_structure(pade)
            info = pade_UV_calc(pade, m) if m >= 0 else m
            if info != 0:
                raise RuntimeError(f"expm: the Pade step of slice {member} failed (code {info})")
            powers[k] = pade[0]
        order = np.argsort(-squarings, kind="stable")
        powers, squarings = powers[order], squarings[order]
        # the slices that need more than r squarings lead the sorted stack
        for r in range(squarings[0]):
            needing = np.count_nonzero(squarings > r)
            powers[:needing] = powers[:needing] @ powers[:needing]
        out[generic[order]] = powers
    return out.reshape(a.shape)


def model_block(model: RotatingFrameModel, rho0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block of the model's generator that holds the density matrix
    `rho0`, ready for `steps`, in the real basis: (index, generator, vec0).

    `index` is the block's vec positions from `invariant_block`; the pair
    (a, b) of levels sits at a * dim + b, so an entry is found in the block
    by `index.searchsorted`.  In the real basis (see the module docstring)
    the population of a sits at (a, a), and for a < b Re rho_ab at (a, b)
    and Im rho_ab at (b, a).  With T the map from these coordinates to the
    complex entries, `generator` is Re(T^-1 L T) of the model's Liouvillian
    L on the block (a stack for a stacked model).  T's column is e_q for a
    population, e_ab + e_ba for Re rho_ab and i (e_ab - e_ba) for Im rho_ab,
    and L maps (b, a) as it maps (a, b), conjugated, so the row of Re rho_ab
    is the real part of row (a, b) of L T and the row of Im rho_ab its
    imaginary part: each entry is read off at most two entries of one row of
    L, so each member stays bit-equal to its own build.  `vec0` holds
    `rho0`'s coordinates, broadcast over a stack's members;
    `complex_entries` maps states back.  `rho0` must be Hermitian within
    1e-9.
    """
    rho0 = np.asarray(rho0)
    if np.abs(rho0 - rho0.conj().T).max() > 1e-9:
        raise StateError("the initial density matrix is not Hermitian within tolerance")
    index = invariant_block(model, rho0)
    lv = liouvillian(model, index)
    upper, lower, side = _real_basis(model.dim, index.tobytes())
    # the rows and columns of an Im rho_ab
    flip = side < 0
    # L at (upper p, upper q) and (upper p, lower q), C-ordered as steps needs
    rows = lv.take(upper, -2)
    x, y = rows.take(upper, -1), rows.take(lower, -1)
    lt = np.where(upper == lower, x, np.where(flip, 1j * (x - y), x + y))
    entries = rho0.reshape(-1)[index][upper]
    vec0 = np.where(flip, entries.imag, entries.real)
    return (index, np.where(flip[:, None], lt.imag, lt.real),
            np.broadcast_to(vec0, (*lv.shape[:-2], len(index))))


@lru_cache(maxsize=16)
def _real_basis(d: int, index: bytes) -> tuple[np.ndarray, ...]:
    """The real basis on the vec positions `index` (the bytes of a sorted
    intp array that holds the swapped pair of each of its pairs, as every
    block from `invariant_block` does), read-only: (upper, lower, side).

    The complex entry at the block position p of the pair (a, b) is the real
    coordinate at `upper` plus i `side` times the one at `lower`: `upper` is
    the position of (a, b) for a <= b and of (b, a) otherwise, `lower` that
    of (b, a) for a < b and p itself otherwise, and `side` the sign of b - a.
    """
    pos = np.frombuffer(index, dtype=np.intp)
    a, b = np.divmod(pos, d)
    mirror = pos.searchsorted(b * d + a)
    own = np.arange(len(pos))
    parts = np.where(a <= b, own, mirror), np.where(a < b, mirror, own), np.sign(b - a).astype(float)
    for x in parts:
        x.setflags(write=False)
    return parts


def complex_entries(real: np.ndarray, index: np.ndarray, dim: int) -> np.ndarray:
    """The complex vec entries at the block positions `index` of states
    (..., len(index)) in the real basis of `model_block`: T applied to each.

    A population's real part is copied, and the pair (a, b) gets
    Re rho_ab + i Im rho_ab and (b, a) its conjugate, so every state is
    exactly Hermitian.
    """
    upper, lower, side = _real_basis(dim, np.asarray(index, dtype=np.intp).tobytes())
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real.take(upper, -1), real.take(lower, -1) * side
    return out


def model_steps(model: RotatingFrameModel, rho0, times):
    """Yield the vectorized state of the master equation at every time, `rho0` first.

    Every member of a stacked model starts from the density matrix `rho0`
    and steps at once (see `steps`).  Only the invariant block that holds
    `rho0` (`model_block`) is stepped, in the real basis; each block of
    states `steps` yields is mapped back in one `complex_entries` call and
    scattered into the whole vec, where every entry outside the block is
    exactly zero, and its states are yielded one time at a time.
    """
    index, lv, vec0 = model_block(model, rho0)
    for block in steps(lv, vec0, times):
        full = np.zeros((*block.shape[:-1], np.size(rho0)), dtype=complex)
        full[..., index] = complex_entries(block, index, model.dim)
        yield from np.moveaxis(full, -2, 0)


def steady_state(model: RotatingFrameModel) -> DensityMatrix:
    """Null-space steady state of the vectorized Liouvillian.

    A stacked model gives the (M, d, d) steady states of its members from
    one batched SVD.  Raises DegenerateSteadyStateError, naming a stack's
    first such member, when the null space is not unique at numerical
    resolution.
    """
    lv = liouvillian(model)
    _, svals, vh = np.linalg.svd(lv)
    smax = np.where(svals[..., 0] > 0, svals[..., 0], 1.0)
    tiny = np.maximum(1e-12 * smax, np.finfo(float).eps * smax * lv.shape[-1])
    _reject(svals[..., -2] < tiny, "Liouvillian null space is degenerate; add a small dephasing")
    rho = vh[..., -1, :].conj().reshape(*lv.shape[:-2], model.dim, model.dim)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    _reject(np.abs(tr) < 1e-14, "null vector is traceless; no physical steady state")
    return DensityMatrix(rho / tr[..., None, None])


def _reject(bad: np.ndarray, message: str) -> None:
    """Raise DegenerateSteadyStateError when `bad` holds; a stack's message
    names its first bad member."""
    if bad.any():
        raise DegenerateSteadyStateError(
            message if bad.ndim == 0 else f"member {bad.nonzero()[0][0]}: {message}")
