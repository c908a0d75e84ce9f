"""Poissonian coincidence-count simulation and count-level estimation of the
postselected value with propagated error bars.

Counts in the four coincidence channels are independent Poisson draws with
means ``rate * duration * p_channel``.  :func:`draw_counts` gives one count
row per seed of a :func:`derive_seeds` array: the draws that
``np.random.default_rng(seed).poisson`` makes for the four channels, in the
order (mp, mm, pp, pm), bit for bit, or those of its leading channels alone,
the others reading 0.  It makes them on arrays, for every row of a block at
once: numpy's ``SeedSequence`` and PCG64 seeding give each row's 128-bit
state (as two uint64 words), and each draw mirrors numpy's ``random_poisson``
(``numpy/random/src/distributions/distributions.c``): nothing for a zero
mean, the multiplication method below 10, Hörmann's PTRS from 10, each
uniform being ``next_double``, the top 53 bits of a PCG64 step's XSL-RR
output.  numpy's C code may round ``exp``, ``log`` or a fused multiply-add
otherwise than numpy's array operations, so a draw whose decision lies
within ``_GUARD`` of its threshold is made again, from the state it started
at, by a scalar copy of the sampler, whose ``math`` is the C library's, as
numpy's; it also draws a block's last few rows, and leaves a decision within
a few ulps to numpy's own ``Generator.poisson``.  The tests check the draws
against one ``default_rng`` per row, so a change in the installed numpy's
sampler shows there.

:func:`weak_values_from_counts` estimates the rescaled postselected value of
every row.  Its error propagation is first order (delta method) with two
terms, matching the two modeled error sources: Poisson channel noise and
the calibration uncertainty on the strength.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import EmptyChannel, ZeroStrength
from .states import Strength, _Record, as_strength, postselected_channels

__all__ = [
    "COUNT_COLUMNS",
    "MAX_EXPECTED_TOTAL",
    "AcquisitionConfig",
    "draw_counts",
    "postselected_counts",
    "weak_values_from_counts",
    "derive_seeds",
]

# The channels of a count row, in draw order.
COUNT_COLUMNS = ("n_mp", "n_mm", "n_pp", "n_pm")

# Largest mean numpy's Poisson sampler accepts: int64 max - 10 sqrt(int64 max).
MAX_EXPECTED_TOTAL = 9.223372006484771e18

# A channel probability at most this far below zero is a rounding of zero.
_NORM_TOL = 1e-12

# Below this total t, t*t is exact in float64, so t*t*t is the correctly rounded cube.
_FLOAT_CUBE_BOUND = 1 << 26


def nonnegative_integer(name: str, value) -> int:
    """``value`` as an int; raises ValueError unless it is a nonnegative
    integer value (so a fractional count is refused, not truncated, and a
    bool is refused, not read as 0 or 1)."""
    n = int(value)
    if n != value or n < 0 or isinstance(value, bool):
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return n


class AcquisitionConfig(_Record):
    """One acquisition window.

    ``rate`` is the mean *total* coincidence rate before postselection
    (counts per second); the default 2000/s makes the postselected channels
    collect order 10^3 events in the default 5 s window.  Their product, the
    expected total, is at most :data:`MAX_EXPECTED_TOTAL`.
    ``kappa_uncertainty`` is the one-sigma calibration error folded into
    error bars (0 disables the term).
    """

    _fields = ("seed", "rate", "duration", "kappa_uncertainty")

    def __init__(self, seed: int, rate: float = 2000.0, duration: float = 5.0,
                 kappa_uncertainty: float = 0.0) -> None:
        self.__dict__.update(seed=seed, rate=rate, duration=duration,
                             kappa_uncertainty=kappa_uncertainty)
        for name in ("rate", "duration", "kappa_uncertainty"):
            value = getattr(self, name)  # a number, and no bool read as 0 or 1
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            try:  # math.isfinite raises on an integer past the float range
                float(value)
            except OverflowError:
                raise ValueError(f"{name} must be a finite number, got an integer "
                                 f"too large for a float") from None
        if self.rate <= 0.0 or not math.isfinite(self.rate):
            raise ValueError(f"rate must be positive, got {self.rate!r}")
        if self.duration <= 0.0 or not math.isfinite(self.duration):
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if not self.expected_total <= MAX_EXPECTED_TOTAL:
            raise ValueError(f"rate * duration = {self.expected_total!r} exceeds the largest "
                             f"Poisson mean, {MAX_EXPECTED_TOTAL!r}")
        if self.kappa_uncertainty < 0.0 or not math.isfinite(self.kappa_uncertainty):
            raise ValueError(f"kappa_uncertainty must be >= 0, got {self.kappa_uncertainty!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        nonnegative_integer("seed", self.seed)

    @property
    def expected_total(self) -> float:
        return self.rate * self.duration


# numpy's SeedSequence hashes: each of the 16 mixing hashes steps its running
# constant by MULT_A from INIT_A, each output hash by MULT_B from INIT_B.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
# PCG64's multiplier, as its high and low words and whole
_MULT_HI, _MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MULT, _MASK53, _MASK128 = _MULT_HI << 64 | _MULT_LO, (1 << 53) - 1, (1 << 128) - 1

# Rows drawn in one array pass; bounds the memory a large batch takes.
_SEED_BLOCK = 1 << 16

# Live rows at most which a block leaves its array passes for the scalar
# copy (~12 us a row, against ~0.17 ms a pass).  Of 64, 128, 192 and 256, 64
# drew the CLI's 1,800- and 4,000-row batches fastest.
_FEW_ROWS = 64

# A try whose decision (the floor, V <= v_r, the log test or prod > e^-lam)
# lies within this relative distance of its threshold is made by the scalar
# copy: numpy's C code may round exp, log or a fused multiply-add otherwise
# than these array operations.  The copy leaves one within _NEAR (a few
# ulps) to numpy's own sampler, for a numpy built to fuse a multiply-add.
_GUARD, _NEAR = 1e-9, 1e-15

# numpy's random_loggam: its Stirling series coefficients, and log(2 pi)
_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
             -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
             6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
             -1.39243221690590e+00)
_LG2PI = 1.8378770664093453


def _running(init: int, mult: int, n: int) -> np.ndarray:
    """The first ``n`` running constants ``init * mult**i`` of a hash, as
    uint32 (a uint32 product wraps modulo 2**32, as numpy's C code does)."""
    steps = np.full(n, mult, dtype=np.uint32)
    steps[:1] = init
    return np.cumprod(steps, dtype=np.uint32)


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One SeedSequence hash of every uint32 in ``values``, with the running
    constants ``consts`` (one more row than ``values``)."""
    values = (values ^ consts[:-1]) * consts[1:]  # uint32 arrays wrap modulo 2**32
    return values ^ values >> 16


def _generate_state(pool: np.ndarray, n: int) -> np.ndarray:
    """``SeedSequence.generate_state(n, np.uint64)`` of every entropy pool,
    a column of the uint32 array ``pool`` (four rows), as uint64 rows: the
    pool, cycled, hashed with the running constants ``INIT_B * MULT_B**i``,
    two 32-bit words per output word, low word first on any byte order."""
    words = np.tile(pool, (n // 2 + 1, 1))[:2 * n]
    half = _hash(words, _running(_INIT_B, _MULT_B, 2 * n + 1)[:, None]).astype(np.uint64)
    return half[0::2] | half[1::2] << 32


def _mix_entropy(words: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy``: the pool of four uint32 words that each
    column of ``words`` (an entropy's 32-bit words, low first, a row each)
    mixes into, a missing word of the first four hashing as a zero."""
    mix = _running(_INIT_A, _MULT_A, 4 * max(len(words), 4) + 1)[:, None]
    pool = np.zeros((4, words.shape[1]), dtype=np.uint32)
    pool[:len(words)] = words[:4]
    pool = _hash(pool, mix[:5])
    for src in range(4):  # mix each word into the three others, in numpy's order
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(pool[src], mix[k:k + 4])
        pool[dst] = mixed ^ mixed >> 16
    for k, word in zip(range(16, len(mix), 4), words[4:]):  # then each further word into all four
        mixed = 0xCA01F9DD * pool - 0x4973F715 * _hash(word, mix[k:k + 5])
        pool = mixed ^ mixed >> 16
    return pool


def _pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The states of ``np.random.PCG64(seed)`` for every seed of a uint64
    array, as uint64 word arrays ``(state_hi, state_lo, inc_hi, inc_lo)``.

    This runs numpy's seeding on arrays: :func:`_mix_entropy` mixes the
    seed's two 32-bit words into a pool; a seed below 2**32 has one word,
    and numpy hashes a zero for each missing one, so it needs no path of its
    own.  ``generate_state(4, np.uint64)`` then hashes the pool into four
    64-bit words ``w0..w3``, and PCG64's set-seq seeding turns
    ``initstate = w0 << 64 | w1`` and ``initseq = w2 << 64 | w3`` into
    ``inc = initseq << 1 | 1`` and ``state = (inc + initstate) * MULT + inc``
    modulo 2**128.
    """
    w0, w1, w2, w3 = _generate_state(_mix_entropy(np.stack([seeds & _MASK32, seeds >> 32])), 4)
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    lo = w1 + inc_lo
    return (*_step(w0 + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * MULT + inc`` modulo 2**128, of states held
    as (high, low) uint64 word arrays."""
    l0, l1 = lo & _MASK32, lo >> 32  # lo * MULT_LO >> 64 from 32-bit words, none overflowing
    t = l1 * 0x9FCCF645 + (l0 * 0x9FCCF645 >> 32)
    w = (t & _MASK32) + l0 * 0x4385DF64
    carry = l1 * 0x4385DF64 + (t >> 32) + (w >> 32)
    new_lo = lo * _MULT_LO + inc_lo
    return carry + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo), new_lo


def _double(hi, lo):
    """numpy's ``next_double`` of stepped states: the top 53 bits of the
    XSL-RR output ``rotr(hi ^ lo, hi >> 58)``, in [0, 1)."""
    x, rot = hi ^ lo, hi >> 58
    return ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0**-53


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's ``random_loggam``, log Gamma(x), of integer-valued x >= 1."""
    x0 = np.maximum(x, 7.0)  # below 7, the series runs at 7 and steps down
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for c in _LOGGAM_A[8::-1]:
        gl0 = gl0 * x2 + c
    gl = gl0 / x0 + 0.5 * _LG2PI + (x0 - 0.5) * np.log(x0) - x0
    if x.min() >= 7.0:
        return gl
    for j in range(6, 2, -1):  # log(6), log(5), ... down to log(x)
        gl = np.where(x <= j, gl - math.log(j), gl)
    return np.where(x <= 2.0, 0.0, gl)


def _ptrs_try(lam, hi, lo, inc_hi, inc_lo):
    """One try of numpy's ``random_poisson_ptrs`` (Hörmann's transformed
    rejection, for lam >= 10) per lane.  Returns the states after its two
    uniforms, the ``k`` it draws, the mask of the lanes whose try returns
    ``k`` and that of the lanes in doubt."""
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    u = _double(hi, lo) - 0.5
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    v = _double(hi, lo)
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    vr = 0.9277 - 3.6224 / (b - 2)
    us = 0.5 - np.abs(u)
    spread = (2 * a / us + b) * u  # -inf at us = 0, where k < 0 rejects
    x = spread + lam + 0.43
    k = np.floor(x)
    doubt = ((np.abs(x - np.rint(x)) <= _GUARD * (np.abs(spread) + lam))
             | (np.abs(v - vr) <= _GUARD))
    done = (us >= 0.07) & (v <= vr)
    test = np.flatnonzero(~done & (k >= 0) & ((us >= 0.013) | (v <= us)))
    if test.size:
        lam_t, k_t, us_t, b_t = lam[test], k[test], us[test], b[test]
        log_v = np.log(v[test])  # -inf at V = 0 leaves the lane in doubt
        log_invalpha = np.log(1.1239 + 1.1328 / (b_t - 3.4))
        log_hat = np.log(a[test] / (us_t * us_t) + b_t)
        k_loglam = k_t * np.log(lam_t)
        gam = _loggam(k_t + 1)
        lhs = log_v + log_invalpha - log_hat
        rhs = -lam_t + k_loglam - gam
        done[test] = lhs <= rhs
        doubt[test] |= np.abs(lhs - rhs) <= _GUARD * (
            np.abs(log_v) + np.abs(log_invalpha) + np.abs(log_hat)
            + lam_t + np.abs(k_loglam) + np.abs(gam))
    return hi, lo, k, done, doubt


def _mult_try(lam, prod, hi, lo, inc_hi, inc_lo):
    """One uniform of numpy's ``random_poisson_mult`` (for 0 < lam < 10:
    the count of uniforms whose running product ``prod`` stays above
    exp(-lam)) per lane.  Returns the states after the uniform, the new
    products, and the masks of :func:`_ptrs_try`: a lane done draws the
    number of uniforms it took before this one."""
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    prod = prod * _double(hi, lo)
    enlam = np.exp(-lam)
    return hi, lo, prod, prod <= enlam, np.abs(prod - enlam) <= _GUARD * enlam


def _numpy_poisson(lam: float, state: int, inc: int) -> tuple[int, int]:
    """numpy's own ``Generator.poisson(lam)`` from the PCG64 ``state`` and
    ``inc`` (128-bit ints), and the state it leaves; loads ``numpy.random``."""
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return int(np.random.Generator(bitgen).poisson(lam)), bitgen.state["state"]["state"]


def _next_double(state: int, inc: int) -> tuple[int, float]:
    """A PCG64 step of the 128-bit ``state``, and its ``next_double``: the top
    53 bits of the output ``x`` rotated right, read off ``x * (2**64 + 1)``."""
    state = (state * _MULT + inc) & _MASK128
    x = (state >> 64 ^ state) & _MASK64
    return state, (x * (1 << 64 | 1) >> (state >> 122) + 11 & _MASK53) * 2.0**-53


def _scalar_poisson(lam: float, state: int, inc: int) -> tuple[int, int]:
    """numpy's ``random_poisson(lam)`` from the PCG64 ``state`` and ``inc``
    (128-bit ints), and the state it leaves: the tries of :func:`_mult_try`
    and :func:`_ptrs_try` in Python floats, with the C library's ``math``, as
    numpy's C code.  A try within ``_NEAR`` of a threshold goes to numpy."""
    start, k, prod, enlam = state, -1, 1.0, math.exp(-lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a, vr = -0.059 + 0.02483 * b, 0.9277 - 3.6224 / (b - 2)
    while lam > 0.0:  # else lam = 0, which draws 0 and takes no uniform
        state, u = _next_double(state, inc)
        if lam < 10.0:
            prod, k = prod * u, k + 1
            done, doubt = prod <= enlam, abs(prod - enlam) <= _NEAR * enlam
        else:
            state, v = _next_double(state, inc)
            us = 0.5 - abs(u - 0.5)
            if not us:  # numpy's k is -inf cast to int64, negative, so the try rejects
                continue
            spread = (2 * a / us + b) * (u - 0.5)
            x = spread + lam + 0.43
            k, done = math.floor(x), us >= 0.07 and v <= vr
            doubt = abs(x - round(x)) <= _NEAR * (abs(spread) + lam) or abs(v - vr) <= _NEAR
            if not (done or doubt or k < 0 or (us < 0.013 and v > us)):  # the log test
                x0 = max(k + 1.0, 7.0)  # log Gamma(k + 1) as numpy's random_loggam
                gam, x2 = _LOGGAM_A[9], (1.0 / x0) * (1.0 / x0)
                for c in _LOGGAM_A[8::-1]:
                    gam = gam * x2 + c
                gam = gam / x0 + 0.5 * _LG2PI + (x0 - 0.5) * math.log(x0) - x0
                for j in range(6, k, -1):  # log(6), log(5), ... down to log(k + 1)
                    gam -= math.log(j)
                terms = (math.log(v) if v else -math.inf, math.log(1.1239 + 1.1328 / (b - 3.4)),
                         math.log(a / (us * us) + b), lam, k * math.log(lam), gam if k > 1 else 0.0)
                lhs, rhs = terms[0] + terms[1] - terms[2], -lam + terms[4] - terms[5]
                done, doubt = lhs <= rhs, abs(lhs - rhs) <= _NEAR * sum(map(abs, terms))
        if doubt:
            return _numpy_poisson(lam, start, inc)
        if done:
            return k, state
    return 0, state


def _redraw(lanes, lam, hi, lo, inc_hi, inc_lo) -> list[int]:
    """The draws ``Generator.poisson(lam[j])`` of :func:`_scalar_poisson` from
    the state ``(hi[i], lo[i], inc_hi[i], inc_lo[i])`` of each lane ``i =
    lanes[j]``, leaving the state after the draw in ``(hi[i], lo[i])``."""
    words = (a[lanes].tolist() for a in (hi, lo, inc_hi, inc_lo))
    draws = [_scalar_poisson(mean, s_hi << 64 | s_lo, i_hi << 64 | i_lo)
             for mean, s_hi, s_lo, i_hi, i_lo in zip(lam.tolist(), *words)]
    hi[lanes], lo[lanes] = [s >> 64 for _, s in draws], [s & _MASK64 for _, s in draws]
    return [k for k, _ in draws]


def _draw_block(lam, hi, lo, inc_hi, inc_lo, counts) -> None:
    """Draw into ``counts``, zeros of shape ``(n, 4)``, what ``Generator.poisson``
    draws for every row of means ``lam``, channel after channel from the row's
    PCG64 state ``(hi, lo, inc_hi, inc_lo)``, as numpy draws them: nothing for
    lam = 0, :func:`_mult_try` below 10 and :func:`_ptrs_try` from 10.

    Every pass gathers each live row's channel and mean once, and makes one
    try of that channel, stepping ``(hi, lo)`` in place; only the rows below
    10 keep a running product and try count.  A row whose try is in doubt
    draws that channel again with the scalar copy (:func:`_redraw`), from
    the state the channel started at, and goes on from the state it leaves.
    A pass costs about 150 numpy calls whatever its size, so once at most
    ``_FEW_ROWS`` rows are live, the scalar copy draws what they have left,
    a channel at a time.
    """
    n = len(lam)
    nxt = np.full((n, 5), 4, dtype=np.int8)  # each row's first nonzero-mean channel from c on
    for c in range(3, -1, -1):
        nxt[:, c] = np.where(lam[:, c] > 0.0, c, nxt[:, c + 1])
    channel = nxt[:, 0].copy()
    start_hi, start_lo = hi.copy(), lo.copy()  # each row's state when its channel started
    prod, tries = np.ones(n), np.zeros(n, dtype=np.int64)
    live = np.flatnonzero(channel < 4)
    while live.size > _FEW_ROWS:
        live_c = channel[live]
        live_means = lam[live, live_c]
        big = live_means >= 10.0
        for ptrs, pick in ((True, big), (False, ~big)):
            rows = live[pick]
            if not rows.size:
                continue
            c, means = live_c[pick], live_means[pick]
            state = hi[rows], lo[rows], inc_hi[rows], inc_lo[rows]
            if ptrs:
                hi[rows], lo[rows], value, done, doubt = _ptrs_try(means, *state)
            else:
                value = tries[rows]
                hi[rows], lo[rows], running, done, doubt = _mult_try(means, prod[rows], *state)
                restart = done | doubt  # the next channel starts a new product
                prod[rows] = np.where(restart, 1.0, running)
                tries[rows] = np.where(restart, 0, value + 1)
            drawn = done & ~doubt
            counts[rows[drawn], c[drawn]] = value[drawn]
            if doubt.any():
                redo = rows[doubt]
                hi[redo], lo[redo] = start_hi[redo], start_lo[redo]
                counts[redo, c[doubt]] = _redraw(redo, means[doubt], hi, lo, inc_hi, inc_lo)
            end = done | doubt
            rows_end = rows[end]
            channel[rows_end] = nxt[rows_end, c[end] + 1]
            start_hi[rows_end], start_lo[rows_end] = hi[rows_end], lo[rows_end]
        live = live[channel[live] < 4]
    while live.size:  # what is left, a channel of every live row at a time
        c = channel[live]
        counts[live, c] = _redraw(live, lam[live, c], start_hi, start_lo, inc_hi, inc_lo)
        channel[live] = nxt[live, c + 1]
        live = live[channel[live] < 4]


def draw_counts(probs: np.ndarray, seeds: np.ndarray, config: AcquisitionConfig,
                channels=4) -> np.ndarray:
    """Poissonian channel counts ``(n_mp, n_mm, n_pp, n_pm)`` from the seeds
    of the uint64 array ``seeds`` (as :func:`derive_seeds` gives them).

    ``probs`` holds rows of channel probabilities, shape ``(..., 4)``, that
    broadcast against ``seeds``: one row for every seed, one per seed, or,
    with leading axes that ``seeds`` lacks, one set of rows per index of
    those axes, each set drawn from the same seeds.  The counts take the
    broadcast shape; the row of seed ``s`` holds the draws
    ``np.random.default_rng(s)`` makes, channel by channel, with means
    ``config.expected_total`` times its probabilities (``config.seed`` is not
    used).  ``channels``, an int or one per set, is how many leading
    channels each set's rows draw: those draw as in the 4-channel draw, bit
    for bit, and the others read 0 and take no uniform (a zero mean draws
    nothing, as in numpy).  Each block of ``_SEED_BLOCK // sets`` seeds is
    seeded once, and every set's rows of it drawn at once
    (:func:`_draw_block`).
    Raises ValueError unless ``seeds`` is a uint64 array, the rows hold 4
    probabilities, every probability is finite and nonnegative within 1e-12,
    every row sums to 1 within 1e-9 and ``channels`` counts 1 to 4 channels
    per set; a probability that the first tolerance lets below zero draws
    as zero.
    """
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        kind = getattr(seeds, "dtype", type(seeds).__name__)
        raise ValueError(f"seeds must be a uint64 array, as derive_seeds gives, got {kind}")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[-1:] != (4,):
        width = f"rows of {probs.shape[-1]}" if probs.ndim else "a scalar"
        raise ValueError(f"probability rows must hold 4 channels, got {width}")
    rows = probs.reshape(-1, 4)
    bad = ~np.isfinite(rows) | (rows < -_NORM_TOL)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"p{COUNT_COLUMNS[j][1:]} must be a nonnegative probability, "
                         f"got {float(rows[i, j])!r}")
    totals = rows[:, 0] + rows[:, 1] + rows[:, 2] + rows[:, 3]
    off = np.abs(totals - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"channel probabilities must sum to 1, got {float(totals[off][0])!r}")
    sets = probs.shape[:max(0, probs.ndim - 1 - seeds.ndim)]
    width = np.asarray(channels)
    if not (width.dtype.kind in "iu" and width.shape in ((), sets)
            and ((width >= 1) & (width <= 4)).all()):
        raise ValueError(f"channels must count 1 to 4 channels, one count or one per set "
                         f"of {math.prod(sets)}, got {channels!r}")
    if (width < 4).any():  # a zero mean draws 0 and takes no uniform
        keep = np.arange(4) < width.reshape(width.shape + (1,) * (probs.ndim - len(sets)))
        probs = np.where(keep, probs, 0.0)
    try:
        probs = np.broadcast_to(probs, sets + seeds.shape + (4,))
    except ValueError:
        raise ValueError(f"{len(rows)} probability rows for {seeds.size} seeds") from None
    counts = np.zeros(probs.shape, dtype=np.int64)
    lanes = counts.reshape(math.prod(sets), seeds.size, 4)  # per set, a row per seed
    step = max(1, _SEED_BLOCK // max(1, len(lanes)))
    for start in range(0, seeds.size, step):
        block = slice(start, min(start + step, seeds.size))
        states = [np.tile(words, len(lanes)) if len(lanes) > 1 else words  # made once, for
                  for words in _pcg64_states(seeds.reshape(-1)[block])]  # every set's rows
        index = (block,) if seeds.ndim == 1 else np.unravel_index(
            np.arange(block.start, block.stop), seeds.shape)
        means = config.expected_total * np.maximum(
            probs[(..., *index, slice(None))].reshape(-1, 4), 0.0)
        out = lanes[:, block].reshape(-1, 4)  # a copy only where a block splits the sets' rows
        with np.errstate(divide="ignore", invalid="ignore"):
            _draw_block(means, *states, out)
        if not np.may_share_memory(out, counts):
            lanes[:, block] = out.reshape(len(lanes), -1, 4)
    return counts


def derive_seeds(root_seed: int, n: int) -> np.ndarray:
    """Independent per-task integer seeds derived from a root seed via the
    splittable seed-sequence expansion (stable across runs), as a uint64 array.

    They are the words ``np.random.SeedSequence(root_seed).generate_state(n,
    np.uint64)`` gives, bit for bit, and a root that numpy refuses raises as
    it does: numpy mixes the root into its entropy pool, and the pool is
    hashed into the seeds here on arrays (:func:`_generate_state`).
    """
    if not (isinstance(root_seed, (int, np.integer)) and root_seed >= 0):  # numpy refuses it or not
        return _generate_state(np.random.SeedSequence(root_seed).pool[:, None], n)[:, 0]
    root = int(root_seed)
    words = [root >> shift & _MASK32 for shift in range(0, max(root.bit_length(), 1), 32)]
    return _generate_state(_mix_entropy(np.array(words, dtype=np.uint32)[:, None]), n)[:, 0]


def postselected_counts(counts: np.ndarray, postselect_sign: str) -> np.ndarray:
    """The (outcome-0, outcome-1) columns, as int64, of count rows ``(n_mp,
    n_mm, n_pp, n_pm)`` of the requested postselection.  Raises ValueError
    unless ``counts`` holds rows of 4 nonnegative integers (a fraction is not truncated)."""
    rows = ints = np.asarray(counts)
    if rows.ndim != 2 or rows.shape[1] != 4 or rows.dtype.kind not in "iuf":
        raise ValueError(f"counts must be rows of 4 integer counts, got {rows.dtype} "
                         f"of shape {rows.shape}")
    if rows.dtype != np.int64:
        with np.errstate(invalid="ignore"):  # NaN and values past int64 differ from their cast
            ints = rows.astype(np.int64)
        ints[ints != rows] = -1  # refused with the negative counts
    if ints.min(initial=0) < 0:
        raise ValueError(f"counts must be nonnegative integers, got {rows[ints < 0][0].item()!r}")
    return ints[:, postselected_channels(postselect_sign)]


def empty_channel(postselect_sign: str) -> EmptyChannel:
    """The error of a record whose postselected channels hold no count."""
    return EmptyChannel(f"no counts in the {postselect_sign} postselection channels")


def weak_values_from_counts(
    counts: np.ndarray, kappa: "Strength | float", postselect_sign: str,
    kappa_uncertainty: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the rescaled postselected value and its variance from count
    rows ``(n_mp, n_mm, n_pp, n_pm)``, NaN for both where the postselected
    pair ``(n_a, n_b)`` holds no count.

    ``sigma_hat = (n_a - n_b) / (kappa (n_a + n_b))``, with the delta-method
    variance

        4 n_a n_b / (kappa^2 (n_a + n_b)^3)  +  sigma_hat^2 (dk/k)^2,

    the first term from independent Poisson channel noise, the second from
    the strength calibration uncertainty ``dk``.
    """
    k = as_strength(kappa).kappa
    if k == 0.0:
        raise ZeroStrength("count rescaling undefined at kappa = 0")
    pair = postselected_counts(counts, postselect_sign)
    n_a, n_b = pair[:, 0], pair[:, 1]
    total = n_a + n_b
    f = total.astype(np.float64)
    cube = f * f * f
    big = total >= _FLOAT_CUBE_BOUND
    if big.any():  # the exact Python-int power, then rounded
        cube[big] = (total[big].astype(object) ** 3).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where the pair is empty
        sigma_hat = (n_a - n_b) / (k * total)
        var_poisson = 4.0 * n_a * n_b / (k * k * cube)
    return sigma_hat, var_poisson + sigma_hat * sigma_hat * (kappa_uncertainty / k) ** 2
