"""Shared hypothesis strategies: random parallel programs.

``rich_programs()`` generates programs exercising every IR construct the
validator admits: DOALL and serial epochs, inner serial loops, 1-D and 2-D
arrays, private scratch arrays, scalar assignments (including loop-carried
induction), If branches, critical sections, and calls to helper procedures
(both pure-serial and DOALL-containing).  All subscripts are constructed
in-bounds by design so the trace generator's bounds checks never fire.
"""

from hypothesis import strategies as st

from repro.common.config import (WORD_BYTES, CacheConfig, ConsistencyModel,
                                 SchedulePolicy, TpiConfig, WriteBufferKind,
                                 default_machine)
from repro.ir import ProgramBuilder

N1 = 12  # 1-D array extent
N2 = 6  # 2-D array extent (per dim)
I_HI = 5  # max DOALL/serial index


@st.composite
def _sub1(draw, index):
    """In-bounds subscript for a 1-D array, affine in ``index`` in [0, 5]."""
    kind = draw(st.sampled_from(["ident", "shift", "stride", "const", "rev"]))
    if kind == "ident":
        return index
    if kind == "shift":
        return index + draw(st.integers(0, 2))
    if kind == "stride":
        return index * 2 + draw(st.integers(0, 1))
    if kind == "rev":
        return draw(st.integers(N1 - 4, N1 - 1)) - index
    return draw(st.integers(0, N1 - 1))


@st.composite
def _sub2(draw, index, inner):
    """In-bounds subscript pair for the 2-D array."""
    first = draw(st.sampled_from(["ident", "const"]))
    row = index if first == "ident" else draw(st.integers(0, N2 - 1))
    second = draw(st.sampled_from(["inner", "const", "invert"]))
    if second == "inner" and inner is not None:
        col = inner
    elif second == "invert":
        col = (N2 - 1) - index
    else:
        col = draw(st.integers(0, N2 - 1))
    return row, col


@st.composite
def _statement(draw, b, index, inner, allow_critical):
    """Emit one statement (possibly inside a critical section)."""
    reads, writes = [], []
    for arr in ("A", "B"):
        action = draw(st.sampled_from(["read", "write", "skip", "skip"]))
        if action == "skip":
            continue
        ref = b.at(arr, draw(_sub1(index)))
        (reads if action == "read" else writes).append(ref)
    if draw(st.booleans()):
        row, col = draw(_sub2(index, inner))
        ref = b.at("G", row, col)
        (writes if draw(st.booleans()) else reads).append(ref)
    if draw(st.integers(0, 3)) == 0:
        ref = b.at("scratch", draw(st.integers(0, 3)))
        (writes if draw(st.booleans()) else reads).append(ref)
    if not reads and not writes:
        reads.append(b.at("A", draw(st.integers(0, N1 - 1))))
    work = draw(st.integers(1, 4))
    if allow_critical and draw(st.integers(0, 4)) == 0:
        with b.critical("lk"):
            b.stmt(reads=[b.at("T", 0), *reads], writes=[b.at("T", 0)],
                   work=work)
        for ref in writes:
            b.stmt(writes=[ref], work=1)
    else:
        b.stmt(reads=reads, writes=writes, work=work)


@st.composite
def _segment(draw, b, tag, allow_call):
    """One epoch-ish region: a DOALL or serial loop over statements."""
    parallel = draw(st.booleans())
    lo = draw(st.integers(0, 2))
    hi = draw(st.integers(lo, I_HI))
    ctx = b.doall if parallel else b.serial
    with ctx(f"i{tag}", lo, hi) as i:
        use_inner = draw(st.booleans())
        n_stmts = draw(st.integers(1, 2))
        if use_inner:
            with b.serial(f"j{tag}", 0, N2 - 1) as j:
                for _ in range(n_stmts):
                    draw(_statement(b, i, j, allow_critical=parallel))
        else:
            for _ in range(n_stmts):
                draw(_statement(b, i, None, allow_critical=parallel))
    if allow_call and draw(st.integers(0, 2)) == 0:
        b.call(draw(st.sampled_from(["serial_helper", "parallel_helper"])))


@st.composite
def machines(draw):
    """Random machine configurations for differential engine testing.

    Deliberately includes tiny caches (conflict-heavy), single-word lines,
    two- and four-way associativity (the kernels' slot scan and LRU
    stamps, and the per-event path of the kernels that stay
    direct-mapped), sequential consistency, coalescing write buffers,
    every schedule policy, and narrow timetags (frequent resets).
    """
    n_lines = draw(st.sampled_from([8, 32, 256]))
    line_words = draw(st.sampled_from([1, 2, 4]))
    assoc = draw(st.sampled_from([1, 1, 2, 4]))
    cache = CacheConfig(size_bytes=n_lines * line_words * WORD_BYTES,
                        line_words=line_words, associativity=assoc)
    return default_machine().with_(
        n_procs=draw(st.sampled_from([2, 3, 4, 8])),
        cache=cache,
        tpi=TpiConfig(timetag_bits=draw(st.sampled_from([2, 8]))),
        write_buffer=draw(st.sampled_from(list(WriteBufferKind))),
        consistency=draw(st.sampled_from(list(ConsistencyModel))),
        schedule=draw(st.sampled_from(list(SchedulePolicy))),
        record_epochs=True,
    )


@st.composite
def rich_programs(draw):
    b = ProgramBuilder("rich", params={})
    b.array("A", (N1,))
    b.array("B", (N1,))
    b.array("G", (N2, N2))
    b.array("T", (1,))
    b.array("scratch", (4,), private=True)

    with b.procedure("serial_helper"):
        off = b.assign("ser_off", draw(st.integers(0, 3)))
        b.stmt(reads=[b.at("A", off)], writes=[b.at("B", off + 1)], work=2)

    with b.procedure("parallel_helper"):
        with b.doall("ph", 0, N1 - 1) as ph:
            b.stmt(reads=[b.at("B", ph)], writes=[b.at("A", ph)], work=1)

    with b.procedure("main"):
        n_segments = draw(st.integers(2, 4))
        if draw(st.booleans()):
            b.param("T_LOOP", draw(st.integers(2, 3)))
            with b.serial("t", 0, b.p("T_LOOP") - 1):
                # An If around a segment (both arms may contain epochs).
                if draw(st.booleans()):
                    with b.when(b.v("t"), "==", 0):
                        draw(_segment(b, "c", allow_call=False))
                for k in range(n_segments):
                    draw(_segment(b, f"{k}", allow_call=True))
        else:
            for k in range(n_segments):
                draw(_segment(b, f"{k}", allow_call=True))
    return b.build()
