"""The TPI protocol's decision rules as pure functions.

This module is the *single source of truth* for the reconstructed TPI
hardware semantics (see PAPER.md and :mod:`repro.coherence.tpi`): the
Time-Read freshness test, the R-1 fill rule, the compiler-emitted
W-register update, and the two-phase reset's phase geometry.  Everything
here is a side-effect-free function of plain integers (or, elementwise,
of numpy arrays — every rule is written so broadcasting works), and
everything that *executes* those semantics calls in here:

* :class:`repro.coherence.tpi.TpiScheme` — the per-event reference path;
* :func:`repro.memsys.cache.two_phase_reset` — the hardware sweep;
* :class:`repro.coherence.batch.TpiBatchKernel` — the vectorized fast
  engine (arrays in, arrays out);
* :mod:`repro.analysis.modelcheck` — the bounded-exhaustive model
  checker, which enumerates every reachable protocol state of tiny
  configurations and asserts staleness safety **against these exact
  functions**, not a transcription of them.

Keeping the rules factored here is what makes the model-checking claim
meaningful: a future change to the protocol is automatically the thing
being verified.

Epoch indices are unbounded Python ints throughout (the production
simulator stores full epoch indices and reduces mod ``2^k`` only inside
the comparisons, exactly as the k-bit hardware would observe them).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def word_age(epoch: int, tag, modulus: int):
    """Age of a cached word as the k-bit hardware computes it.

    ``(R - tag) mod 2^k`` — exact (equal to the true age) whenever the
    two-phase reset has kept the word's true age below ``2^k``.
    """
    return (epoch - tag) % modulus


def time_read_window(epoch: int, w_reg, modulus: int):
    """Maximum admissible age for a timestamp Time-Read hit.

    ``min(R - W[a], 2^k - 1)``: a copy validated strictly after the
    array's last possibly-writing epoch postdates every conflicting
    write.  The cap at ``2^k - 1`` keeps the comparison meaningful for
    arrays whose last write is older than the tag space can express
    (including the never-written sentinel, for which every valid word is
    admissible).
    """
    gap = epoch - w_reg
    cap = modulus - 1
    if isinstance(gap, (int, np.integer)):
        return cap if gap > cap else gap
    return np.minimum(gap, cap)


def timestamp_hit(epoch: int, tag, w_reg, modulus: int):
    """Hit test for a timestamp Time-Read on a valid word."""
    return word_age(epoch, tag, modulus) <= time_read_window(
        epoch, w_reg, modulus)


def strict_hit(epoch: int, tag, modulus: int):
    """Hit test for a strict Time-Read: only a word validated this epoch
    (the task's own production) may satisfy it."""
    return word_age(epoch, tag, modulus) == 0


def fill_tag(epoch: int, accessed: bool, stamp_current: bool) -> int:
    """Timetag assigned to one word of an incoming line.

    The paper's fill rule: every word of the fetched line gets ``R - 1``
    (the fetch may race a same-epoch write the hardware cannot order),
    except the *accessed* word of an ordinary read or non-strict
    Time-Read, which the compiler proved free of same-epoch writers and
    which may therefore be endorsed as epoch-R fresh.
    """
    if accessed and stamp_current:
        return epoch
    return epoch - 1


def w_register_update(epoch: int, racy: bool) -> int:
    """Compiler-emitted epoch-epilogue value for ``W[a]``.

    ``R`` for an ordinarily written array; ``R + 1`` for an array with a
    potential cross-iteration write-write conflict (the illegal-DOALL
    guard), so even the writers' own copies are re-fetched afterwards.
    """
    return epoch + (1 if racy else 0)


def phase_of(epoch: int, modulus: int, phase_size: int) -> int:
    """Which tag phase the k-bit counter value of ``epoch`` lies in."""
    return (epoch % modulus) // phase_size


def crossed_phase_bounds(old_epoch: int, new_epoch: int, modulus: int,
                         phase_size: int) -> Optional[Tuple[int, int]]:
    """Tag range the hardware reset sweeps when advancing an epoch.

    ``None`` when no phase boundary is crossed; otherwise the inclusive
    ``(lo, hi)`` k-bit tag interval of the phase being *entered* — the
    values about to be recycled, whose surviving holders would otherwise
    alias a full counter wrap later.
    """
    old_phase = phase_of(old_epoch, modulus, phase_size)
    new_phase = phase_of(new_epoch, modulus, phase_size)
    if old_phase == new_phase:
        return None
    lo = new_phase * phase_size
    return lo, lo + phase_size - 1


def reset_selects(tag, phase_lo: int, phase_hi: int, modulus: int):
    """Whether the two-phase reset invalidates a word with this timetag.

    Elementwise over arrays; the per-word valid bit is the caller's
    concern (an invalid word has nothing to sweep).
    """
    ktag = tag % modulus
    return (ktag >= phase_lo) & (ktag <= phase_hi)
