"""TeRo model core: complex embeddings rotated per time step.

Entities live in C^k as (real, imaginary) array pairs. Each time step tau
carries a phase vector theta; multiplying an entity embedding by
e^{i theta_j} rotates every coordinate without changing its modulus. A fact
(s, r, o, tau) is scored by how well the relation translates the rotated
subject onto the conjugate of the rotated object:

    score = || rot(s, theta_tau) + r - conj(rot(o, theta_tau)) ||_p

Lower is more plausible. Relations on interval datasets come in dual
begin/end variants stored as two row blocks of one table: slot r is the
beginning of relation r, slot r + n_relations its end.

Every scorer computes the score one way, from two helpers. ``_rotate``
turns (re, im) by (cos, sin), and ``_query`` builds, from a rotated anchor
and the relation, the query vector x of which every candidate e scores
||rot(e) - x||_p: x = conj(rot(s) + r) when the object is the candidate,
conj(rot(o)) - r when the subject is. Rotation keeps each coordinate's
modulus (RotatE, Sun et al. 2019), so both equal the score above.
``score_quads`` scores row-paired quadruples in float64 from the subject's
query vector, BLOCK_ROWS rows at a time, so no whole-batch temporary is
built; the training step (``training.loss_and_grads``) builds two query
vectors per group of a positive and its negatives, ``score_step`` one per
query.

Link prediction needs every entity rotated to the query's step.
``score_step`` fuses that rotation with the scoring, BLOCK_ROWS rows at a
time, in float32: a screen. Each block is rotated by one complex64
multiply. At p=1 a row scores as 2*sum(max(rot(e), x)) - sum(rot(e)) -
sum(x), one ``np.maximum`` pass per query and no subtraction; at p=2 it
subtracts and squares. Rows are summed by BLAS products over chunks of at
most SUM_COLS columns, then in float64, which bounds the float32 roundings
any term meets. One worker per CPU in the process's affinity set takes a
contiguous run of whole blocks (``on_workers``, which the training step's
blocks and Adagrad use too), so the screen's values do not depend on their
number. ``screen_band`` bounds the screen's error against
``score_quads``, and ``score_quads`` rescores only the gathered candidates
the screen cannot order (~5-6 per query on the ICEWS14 shape), so ranks
equal those of ``score_quads`` over every candidate.

Parameter arrays are float32, matching the checkpoint wire format, so
save/load round-trips are lossless. Models built with ``dtype=np.float64``
(for finite-difference work) behave identically but save with rounding.
"""

from __future__ import annotations

import contextlib
import functools
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

CHECKPOINT_MAGIC = b"TERO"
CHECKPOINT_VERSION = 1
# rows per block of the fused rotate-and-score kernel, of ``score_quads``
# and of the training step's Adagrad. At k=500 a screen worker holds a
# 256 KB complex64 block of rotated rows and a 512 KB buffer of one query
# pair's maxima (p=1) or differences, which stay in L2 together (2 MB per
# core on the 2-core Xeon measured); np.dot's float64 casts for the row
# sums are transient. There, evaluate over
# 20 ICEWS14-shaped valid steps took 2.85, 2.24 and 2.40 ms per query at
# 32, 64 and 128 rows (medians of 4 alternated rounds). Adagrad over
# ICEWS14-shaped gradients (4,000 entity rows per table) took 33.5, 33.8
# and 42.5 ms at 16, 64 and 256 rows (medians of 15 calls).
BLOCK_ROWS = 64
# widest column chunk of the screen's float32 row sum (chunks are the
# largest divisor of 2k up to this). The band grows with the chunk's depth
# w - 1 (screen_band), the chunk sums' cost falls with w. On a 2-core Xeon
# (numpy 2.4.6) the chunk sums of one query pair's 2 x 64 x 1000 block took
# 16.4 us at 25 columns, 9.4 at 40 and 7.1 at 100. Over 20 ICEWS14-shaped
# valid steps (926 queries, k=500, seeded random model) evaluate rescored
# 4.1, 5.5 and 11.2 rows per query (7, 10 and 18 at the 90th percentile)
# and took 2.66, 2.44 and 2.44 ms per query (medians of 4 alternated rounds)
SUM_COLS = 40
# queries the screen takes through a block per numpy call: one maximum (or
# subtraction and square) and one chunk-sum product. One query's call on a
# 64 x 1000 float32 block lasts only ~10-30 us, so workers hand the GIL over
# often, and pairs halve the hand-overs. Over 20 ICEWS14-shaped valid steps
# (926 queries, k=500, 2 workers on a 2-core Xeon, numpy 2.4.6) evaluate
# took 2.81, 2.24 and 2.27 ms per query at 1, 2 and 4 queries per call
# (medians of 4 alternated rounds). Each worker's buffer of maxima or
# differences holds this many blocks (512 KB at k=500), which stay in L2
# beside its rotated block
QUERIES_PER_OP = 2
# bytes of operands of one numpy call of a unit of ``on_workers`` work below
# which the work takes one worker: such calls hold the interpreter lock for
# most of their time, so workers take turns at it and run slower than one.
# On a 2-core Xeon (numpy 2.4.6, Python 3.11), 2 workers took 1.08-1.17,
# 0.85-0.94 and 0.69-0.89 times one worker's time over the training step's
# blocks at 70, 141 and 352 KB a block (k=100, 200 and 500; batches of 32 to
# 512), and 1.21-1.25, 1.06-1.08 and 0.73-1.02 times over Adagrad's at 51,
# 102 and 256 KB
WORKER_BYTES = 1 << 17
U32 = 2.0 ** -24  # unit roundoff of float32


@dataclass
class ModelParams:
    """The five trainable arrays and their shape facts.

    ``rel_re``/``rel_im`` have ``2 * n_relations`` rows when ``dual`` (begin
    block then end block), else ``n_relations``.
    """

    ent_re: np.ndarray  # (n_entities, k)
    ent_im: np.ndarray
    rel_re: np.ndarray  # (n_slots, k)
    rel_im: np.ndarray
    phase: np.ndarray  # (n_tau, k), radians
    n_relations: int
    dual: bool
    norm_p: int = 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {"ent_re": self.ent_re, "ent_im": self.ent_im,
                "rel_re": self.rel_re, "rel_im": self.rel_im, "phase": self.phase}

    @property
    def n_entities(self) -> int:
        return self.ent_re.shape[0]

    @property
    def n_tau(self) -> int:
        return self.phase.shape[0]

    @property
    def k(self) -> int:
        return self.ent_re.shape[1]

    @property
    def n_slots(self) -> int:
        return self.rel_re.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(*(a.copy() for a in self.arrays().values()),
                           self.n_relations, self.dual, self.norm_p)


def init_params(n_entities: int, n_relations: int, n_tau: int, k: int, dual: bool,
                seed: int, norm_p: int = 1, dtype=np.float32) -> ModelParams:
    """Seeded uniform initialization.

    Entity/relation components are uniform in +-6/sqrt(2k) per real and
    imaginary part; phases are uniform in [0, 2*pi). Identical seeds give
    bit-identical parameters. Tables too large to allocate raise
    ``MemoryError`` naming their size.
    """
    if min(n_entities, n_relations, n_tau, k) < 1:
        raise ValueError("all dimensions must be at least 1")
    if norm_p not in (1, 2):
        raise ValueError(f"norm_p must be 1 or 2, got {norm_p}")
    rng = np.random.default_rng(seed)
    n_slots = 2 * n_relations if dual else n_relations
    try:  # ent_re, ent_im, rel_re, rel_im, phase
        bound = 6.0 / np.sqrt(2.0 * k)  # 2.0: np.sqrt takes no int past 2^64
        arrays = [rng.uniform(-bound, bound, (rows, k)).astype(dtype)
                  for rows in (n_entities, n_entities, n_slots, n_slots)]
        arrays.append(rng.uniform(0.0, 2.0 * np.pi, (n_tau, k)).astype(dtype))
    except (MemoryError, ValueError, OverflowError) as exc:  # past what numpy can address
        rows = 2 * n_entities + 2 * n_slots + n_tau
        raise MemoryError(f"cannot allocate {rows} x {k} float64 parameter values "
                          f"({8 * rows * k:,} bytes)") from exc
    return ModelParams(*arrays, n_relations=n_relations, dual=dual, norm_p=norm_p)


def _rotate(re, im, c, sn):
    """(re + i*im) * (c + i*sn), elementwise in the operands' dtype."""
    return re * c - im * sn, re * sn + im * c


def _query(a_re, a_im, r_re, r_im, obj):
    """Query vector x of rotated anchor a and relation r: a candidate e scores ||rot(e) - x||_p.

    x = conj(rot(a) + r) where ``obj`` (the object is asked for, a the
    subject), else conj(rot(a)) - r (a the object); ``obj`` broadcasts
    against the rows. Rotation keeps each coordinate's modulus, so both
    norms equal ||rot(s) + r - conj(rot(o))||_p.
    """
    x_im = a_im + r_im
    return a_re + np.where(obj, r_re, -r_re), np.negative(x_im, out=x_im)


def _norm(d_re: np.ndarray, d_im: np.ndarray, p: int) -> np.ndarray:
    """p-norm of a complex difference vector over its 2k real coordinates."""
    if p == 1:
        return np.abs(d_re).sum(axis=-1) + np.abs(d_im).sum(axis=-1)
    return np.sqrt((d_re * d_re).sum(axis=-1) + (d_im * d_im).sum(axis=-1))


def score_quads(params: ModelParams, s: np.ndarray, slot: np.ndarray,
                o: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Vectorized endpoint scores for index arrays of equal length.

    Computed in float64 whatever the storage dtype, so scores are safe to
    compare for ranking: BLOCK_ROWS quadruples at a time, each as
    ||rot(o) - x||_p with x the object-side query vector of s.
    """
    # trig over the distinct steps only, which the inverse then indexes
    steps, tau = np.unique(tau, return_inverse=True)
    phase = params.phase[steps].astype(np.float64)
    cos, sin = np.cos(phase), np.sin(phase)
    out = np.empty(len(s))
    for lo in range(0, len(s), BLOCK_ROWS):
        b = slice(lo, lo + BLOCK_ROWS)
        c, sn = cos[tau[b]], sin[tau[b]]
        x_re, x_im = _query(*_rotate(params.ent_re[s[b]], params.ent_im[s[b]], c, sn),
                            params.rel_re[slot[b]], params.rel_im[slot[b]], True)
        d_re, d_im = _rotate(params.ent_re[o[b]], params.ent_im[o[b]], c, sn)
        d_re -= x_re
        d_im -= x_im
        out[b] = _norm(d_re, d_im, params.norm_p)
    return out


def _check_ids(params: ModelParams, entities, slots, tau: int) -> None:
    # numpy indexing would wrap a negative id round to the last row
    if not all(0 <= e < params.n_entities for e in entities):
        raise IndexError(f"entity id out of range: {entities}, n={params.n_entities}")
    if not all(0 <= slot < params.n_slots for slot in slots):
        raise IndexError(f"relation slot out of range: {slots}, n_slots={params.n_slots}")
    if not 0 <= tau < params.n_tau:
        raise IndexError(f"time step {tau} out of range (n_tau={params.n_tau})")


def score_step(params: ModelParams, tau: int, anchors, slots, sides,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Float32 screen scores at step ``tau`` with each entity substituted, per query.

    Query q fixes entity ``anchors[q]`` and relation slot ``slots[q]`` and
    asks for the entity on ``sides[q]``. Both sides reduce to
    ``||rot(e, theta_tau) - x_q||_p`` over the 2k real coordinates, x_q the
    query vector ``_query`` builds in float64 from the anchor, which
    ``_rotate`` turns by float64 cos(theta) and sin(theta).

    Returns float32 scores of every entity, row q for query q, and the
    per-query offsets ``screen_band`` takes. Entities are rotated
    BLOCK_ROWS rows at a time by one multiply of a complex64 buffer by
    cos(theta) + i*sin(theta); viewed as float32, each row holds its 2k
    coordinates with re and im interleaved, as x does. Every query is
    scored against a block while it is in cache, QUERIES_PER_OP queries per
    numpy call. At p=1 that call is ``np.maximum(b, x)``, since
    ``||b - x||_1 = 2*sum(max(b, x)) - sum(b) - sum(x)``, with sum(b) taken in
    float64 once per block and sum(x) once per query; at p=2 it subtracts
    and squares. Each row's 2k terms are summed by two BLAS products with a
    ones vector: one per QUERIES_PER_OP queries over chunks of
    ``largest_divisor(2k, SUM_COLS)`` adjacent columns, in float32, then one
    per block over every query's chunk sums, in float64, so each term meets
    few float32 roundings (``screen_band``).

    ``on_workers`` splits the blocks into ``min(usable_cpus(), blocks)``
    contiguous runs, one for the calling thread and one per pool thread,
    each with its own buffers. Every block keeps its rows and arithmetic, so
    the result is bit-identical for every worker count.
    """
    _check_ids(params, anchors, slots, tau)
    for side in sides:
        if side not in ("subject", "object"):
            raise ValueError(f"side must be 'subject' or 'object', got {side!r}")
    k, n, p = params.k, params.n_entities, params.norm_p
    anchors, slots = np.asarray(anchors, dtype=np.intp), np.asarray(slots, dtype=np.intp)
    phase = params.phase[tau].astype(np.float64)
    c, sn = np.cos(phase), np.sin(phase)
    a_re, a_im = _rotate(params.ent_re[anchors], params.ent_im[anchors], c, sn)
    r_re, r_im = params.rel_re[slots], params.rel_im[slots]
    obj = np.array([side == "object" for side in sides])[:, None]
    x_re, x_im = _query(a_re, a_im, r_re, r_im, obj)
    offsets = ((_screen_slope(k, 1) if p == 1 else 17 * U32) * _norm(x_re, x_im, p)
               + np.sqrt(2 * k) * 2.0 ** -68
               + 2.0 ** -44 * (_norm(a_re, a_im, 1) + _norm(r_re, r_im, 1)))

    z = (c + 1j * sn).astype(np.complex64)
    # (Q, 2k), re and im interleaved as in a block
    x = np.stack([x_re, x_im], axis=-1).astype(np.float32).reshape(len(x_re), 2 * k)
    x_sums = x.sum(axis=1, dtype=np.float64)
    out = np.empty((len(x), n), np.float32)
    on_workers(functools.partial(_screen_blocks, params, z, x, x_sums, out), -(-n // BLOCK_ROWS))
    return (out if p == 1 else np.sqrt(out, out=out)), offsets


def _screen_blocks(params: ModelParams, z, x, x_sums, out, first: int, last: int) -> None:
    """Screen scores of the entities of row blocks ``first:last`` into their columns of ``out``.

    Holds its own buffers and writes only its own columns of ``out``, so
    calls on disjoint runs of blocks can run side by side.
    """
    k, nq, p = params.k, len(x), params.norm_p
    lo, hi = BLOCK_ROWS * first, min(BLOCK_ROWS * last, params.n_entities)
    w = largest_divisor(2 * k, SUM_COLS)
    m, rows = 2 * k // w, min(BLOCK_ROWS, hi - lo)
    ones_w, ones_m, ones_2k = np.ones(w, np.float32), np.ones(m), np.ones(2 * k)
    block = np.empty((rows, k), np.complex64)
    # flat, so that a short last block's views stay contiguous for reshape and np.dot's out
    diff = np.empty(QUERIES_PER_OP * rows * 2 * k, np.float32)
    chunk_sums = np.empty(nq * rows * m, np.float32)
    for start in range(lo, hi, BLOCK_ROWS):
        e = slice(start, min(start + BLOCK_ROWS, hi))
        r = e.stop - start
        rotated = block[:r]
        rotated.real, rotated.imag = params.ent_re[e], params.ent_im[e]
        rotated *= z
        b = rotated.view(np.float32)  # (r, 2k), re and im interleaved
        parts = chunk_sums[:nq * r * m]
        for q in range(0, nq, QUERIES_PER_OP):
            xq = x[q:q + QUERIES_PER_OP, None]
            d = diff[:len(xq) * r * 2 * k].reshape(len(xq), r, 2 * k)
            if p == 1:
                np.maximum(b, xq, out=d)
            else:
                np.subtract(b, xq, out=d)
                np.multiply(d, d, out=d)
            np.dot(d.reshape(-1, w), ones_w, out=parts[q * r * m:(q + len(xq)) * r * m])
        # float64 ones vectors: np.dot casts the float32 operand and sums in float64
        sums = np.dot(parts.reshape(-1, m), ones_m).reshape(nq, r)
        if p == 1:  # |b - x| summed as 2*max(b, x) - b - x
            sums *= 2
            sums -= np.dot(b, ones_2k)
            sums -= x_sums[:, None]
        out[:, e] = sums


def on_workers(work: Callable[[int, int], object], n: int, unit_bytes: int | None = None) -> None:
    """Run ``work(lo, hi)`` over contiguous runs ``lo:hi`` that cover ``range(n)``.

    There are ``min(usable_cpus(), n)`` runs, or one when n is 0 or when
    ``unit_bytes``, the operands of a unit's numpy calls where the caller
    gives them, are fewer than WORKER_BYTES. The calling thread takes the
    first run, so one run is a plain call; the threads of the process's
    pool (``_pool``) take the others. ``taskset`` narrows the affinity set
    and so the count. Callers whose units read and write only their own
    slices get the same bits at every count. A worker's error is raised
    here, after every run has ended, and leaves the pool's threads free for
    the next call. ``work`` must not call ``on_workers``, which could then
    wait on threads busy with ``work`` itself. Pool threads keep numpy's
    per-thread state between calls, so each unit sets its own
    ``np.errstate``, as ``training.loss_and_grads``' blocks do.
    """
    cpus = usable_cpus()
    small = unit_bytes is not None and unit_bytes < WORKER_BYTES
    workers = max(min(cpus, 1 if small else n), 1)
    cuts = [i * n // workers for i in range(workers + 1)]
    others = [_pool(os.getpid(), cpus - 1).submit(work, lo, hi)
              for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        work(cuts[0], cuts[1])
    finally:
        wait(others)
    for future in others:
        future.result()


@functools.cache
def _pool(pid: int, threads: int) -> ThreadPoolExecutor:
    """``on_workers``' threads, started on first need and kept. Keyed on the process
    id too: a forked child would count the parent's idle threads, which it lacks, as free."""
    return ThreadPoolExecutor(max_workers=threads)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def largest_divisor(n: int, cap: int) -> int:
    """The largest divisor of ``n`` up to ``cap``: the widest equal chunks of n columns."""
    return max(d for d in range(1, min(n, cap) + 1) if n % d == 0)


def _screen_slope(k: int, p: int) -> float:
    """The slope a of the screen's error bound B(S) = a*S + offset (``screen_band``)."""
    w = largest_divisor(2 * k, SUM_COLS)
    g = 2 * _gamma(w + 6) if p == 1 else _gamma(w + 14)
    return g / (1 - g)


def _gamma(m: int) -> float:
    """gamma(m) = m*u/(1 - m*u), the bound on m chained float32 roundings."""
    return m * U32 / (1 - m * U32)


def screen_band(k: int, p: int, score, offset: float) -> tuple[np.float32, np.float32]:
    """Screen scores ``(lo, hi)`` outside which a candidate's order is certain.

    A candidate screened below ``lo`` scores strictly below, by
    ``score_quads``, one screened at ``score``, and one above ``hi``
    strictly above; ``p`` is the norm and ``offset`` the mean of the
    query's term offsets from ``score_step``. The bound: a screen score S
    is within B(S) = a*S + offset of its ``score_quads`` score, where
    a = g/(1 - g), g = 2*gamma(w + 6) at p=1 and gamma(w + 14) at p=2.
    gamma(m) = m*u/(1 - m*u) bounds m chained roundings, u = U32, and
    gamma' likewise with u' = 2^-53; w = largest_divisor(2k, SUM_COLS) and
    m = 2k/w. Derivation (Higham 2002, section 4.2):

    Sums. The screen adds each chunk of w columns with one float32 BLAS
    product and a row's m chunk sums with one float64 product. Whatever
    order, blocking or SIMD lanes a product uses, it adds w numbers by
    w - 1 additions, so no term meets more than w - 1 of their roundings;
    its products by the ones vector and by alpha = 1 are exact and
    beta = 0 adds nothing, so a fused multiply-add rounds only its
    addition, as a plain sum does (a wider accumulator rounds less). A
    chunk sum of terms t_j thus errs by at most gamma(w - 1)*sum|t_j|, and
    a float64 sum of n terms by gamma'(n - 1) times the sum of their
    moduli. Let N = 4k + 3m + 4; while N <= 2^28, gamma'(N) < 0.51u.

    Rotation. Against the exact norm S* of d = rot(e) - x, x the float64
    query vector, the float32 rotation (casts of cos/sin and of float64
    entities, then a complex64 multiply: two products and a sum per
    component) errs by gamma(4)*|e_l| per real coordinate, which rotation,
    keeping |e_l|, turns into 2*gamma(4)*(S* + ||x||_p) over the row; the
    cast of x errs by u*|x_j|.

    p=1. max is exact and |b - y| = 2*max(b, y) - b - y, so with b and y
    the float32 rotated row and query vector the screen computes
    S_f = ||b - y||_1 as 2*M - B - Y: M the sum of max(b_j, y_j) by the two
    stages, B and Y the float64 sums of b_j and y_j, combined in float64
    and rounded once to float32. |max(b_j, y_j)| and |b_j| are at most
    |b_j - y_j| + |y_j|, so with T = S_f + ||y||_1 the chunk sums err by
    gamma(w - 1)*T, twice that in 2*M, and the float64 stages (M's second
    stage, B, Y and the two subtractions, with |2M| + |B| + |Y| < 4.4*T)
    by under gamma'(N)*T. T is at most (1 + 11u)*(S* + ||x||_1), so one
    term's screen is within (2*gamma(w - 1) + 10.51u)*(S* + ||x||_1) of S*
    to first order: the rotation 8u, the cast of x u, the final rounding u
    and the float64 stages 0.51u. The mean of two terms adds u, and
    ``score_quads`` gamma(1) (below); 2*gamma(w + 6) leaves 1.49u for the
    products of these terms, under 0.75u while g < 1/16. Both S* and
    ||x||_1 take that coefficient, so in terms of S the offset's ||x||_1
    term is a*||x||_1.

    p=2. The subtraction rounds u*|d_j|, the square u, the two stages and
    the final cast to float32 count as D = w + 1 roundings (the float64
    one as under one) and the square root as one: in all
    gamma(D + 10)*S* + gamma(11)*||x||_2, and g = gamma(D + 13).

    ``score_quads`` (float64) scores ||rot(o) - x'||_p, x' the query vector
    of s by ``_query``; on a subject-side query that swaps candidate and
    anchor and conjugates the difference, which keeps its moduli. With
    cos/sin within 4 ulp, each coordinate of x, of x' and of rot(o) - x'
    errs by under gamma'(12) times the terms it adds up: |re*c| + |im*s| per
    rotated coordinate, and |r_j|. As |c| + |s| <= sqrt(2), a rotated row's
    terms add up to at most 2*||rot(.)||_1, and ||rot(e)||_1 <= ||d||_1 +
    ||rot(a)||_1 + ||r||_1. S* is exact for the rounded x, whose error
    thus counts once more: in all under
    gamma'(12)*(6*||rot(a)||_1 + 4*||r||_1 + 2*||d||_1). The offset's
    2^-44*(||rot(a)||_1 + ||r||_1) covers the first two terms over seven
    times; the last, as ||d||_1 <= sqrt(2k)*S*, with the norm's
    gamma'(2k + 3)*S* < gamma'(N)*S* and a mean of two terms (one rounding
    per precision; halving is exact) stays under gamma(1). At p=2, S* in
    terms of S gives a and the offset's 17u*||x||_2 > gamma(16)*||x||_2;
    at both norms its sqrt(2k)*2^-68 covers underflow four times.

    Inf and NaN. ``np.maximum`` propagates NaN, so a NaN coordinate screens
    as NaN. At p=1 a rotated coordinate of +inf makes M = B = inf and the
    screen NaN, one of -inf leaves M finite and makes the screen +inf, and
    a sum past float32's range screens as +inf; p=2 screens either
    infinity as +inf. No comparison holds for NaN, so it falls inside
    every band and ``score_quads`` rescores it; +inf lies above every
    finite band, and its ``score_quads`` score, inf or NaN, never ranks
    below the target either.

    Valid while N <= 2^28 (at a prime k, where w = 2, up to k = 38,347,921),
    g < 1/16, and scores stay below 2^60, short of float32 overflow; beyond,
    the band is all. S is surely below when S + B(S) < score - B(score),
    surely above when S - B(S) > score + B(score); both thresholds are
    rounded outward to float32, so the float32 comparisons are exact.
    """
    t = float(score)
    a = _screen_slope(k, p)
    m = 2 * k // largest_divisor(2 * k, SUM_COLS)
    # a < 1/15 is g < 1/16
    if not (t + offset < 2.0 ** 60 and a < 1 / 15 and 4 * k + 3 * m + 4 <= 2 ** 28):  # and nan
        return np.float32(-np.inf), np.float32(np.inf)
    lo = (t * (1 - a) - 2 * offset) / (1 + a)
    hi = (t * (1 + a) + 2 * offset) / (1 - a)
    return (np.nextafter(np.float32(lo), np.float32(-np.inf)),
            np.nextafter(np.float32(hi), np.float32(np.inf)))


def _checkpoint_blocks(n_e: int, n_r: int, n_tau: int) -> list[tuple[str, int]]:
    """A checkpoint's float32 blocks in file order, as (name, rows of k). Slot
    r + n_r ends relation r on dual models; single-slot models store their
    one relation block as both begin and end."""
    return [("ent_re", n_e), ("ent_im", n_e), ("rel_re", n_r), ("rel_im", n_r),
            ("rel_re_end", n_r), ("rel_im_end", n_r), ("phase", n_tau)]


def save_checkpoint(params: ModelParams, path, vocab_ref: str = "") -> None:
    """Write the binary checkpoint.

    Layout: magic ``TERO``, then little-endian u32 header (version, n_e, n_r,
    n_tau, k, dual, p), then the float32 little-endian blocks of
    ``_checkpoint_blocks`` (entity re, entity im, begin-relation re/im,
    end-relation re/im, phases), then a u32-length-prefixed UTF-8 vocab
    sidecar reference.

    The bytes go to ``<path>.tmp``, which is synced and then renamed over
    ``path``, so a write that fails partway leaves any previous checkpoint
    at ``path`` intact.
    """
    head = struct.pack("<7I", CHECKPOINT_VERSION, params.n_entities, params.n_relations,
                       params.n_tau, params.k, int(params.dual), params.norm_p)
    n_r = params.n_relations
    end = n_r if params.dual else 0
    arrays = dict(params.arrays(), rel_re=params.rel_re[:n_r], rel_im=params.rel_im[:n_r],
                  rel_re_end=params.rel_re[end:], rel_im_end=params.rel_im[end:])
    ref = vocab_ref.encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(head)
            for name, _ in _checkpoint_blocks(params.n_entities, n_r, params.n_tau):
                fh.write(np.ascontiguousarray(arrays[name], dtype="<f4").tobytes())
            fh.write(struct.pack("<I", len(ref)))
            fh.write(ref)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[ModelParams, str]:
    """Read a checkpoint; returns its params and vocab sidecar reference.

    The file size is checked against the header before any array is read.
    Every block is read by one ``readinto`` into a single float32 array, of
    which the params are views; a single-slot model's stored end blocks stay
    in it unused, and a dual model's begin and end blocks are joined.
    """
    off = 4 + 7 * 4
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(off)
        if head[:4] != CHECKPOINT_MAGIC or len(head) < off:
            raise ValueError(f"{path}: not a TeRo checkpoint")
        version, n_e, n_r, n_tau, k, dual_flag, p = struct.unpack_from("<7I", head, 4)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if dual_flag not in (0, 1) or p not in (1, 2):
            raise ValueError(f"{path}: bad checkpoint header (dual={dual_flag}, p={p})")
        for field, n in (("n_e", n_e), ("n_r", n_r), ("n_tau", n_tau), ("k", k)):
            if n == 0:
                raise ValueError(f"{path}: bad checkpoint header ({field}=0)")
        names, rows = zip(*_checkpoint_blocks(n_e, n_r, n_tau))
        ref_at = off + 4 * k * sum(rows)
        if size < ref_at + 4:
            raise ValueError(f"{path}: truncated checkpoint ({size} bytes, "
                             f"its header needs {ref_at + 4})")
        fh.seek(ref_at)
        (ref_len,) = struct.unpack("<I", fh.read(4))
        if size != ref_at + 4 + ref_len:
            raise ValueError(f"{path}: checkpoint is {size} bytes, its header "
                             f"describes {ref_at + 4 + ref_len}")
        ref = fh.read(ref_len).decode("utf-8")
        fh.seek(off)
        data = np.empty((sum(rows), k), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise ValueError(f"{path}: checkpoint changed while it was read")
    a = dict(zip(names, np.split(data, np.cumsum(rows)[:-1])))
    for name in ("rel_re", "rel_im") if dual_flag else ():
        a[name] = np.concatenate((a[name], a[name + "_end"]))
    params = ModelParams(*(a[name].astype(np.float32, copy=False)
                           for name in ("ent_re", "ent_im", "rel_re", "rel_im", "phase")),
                         n_relations=n_r, dual=bool(dual_flag), norm_p=p)
    return params, ref
