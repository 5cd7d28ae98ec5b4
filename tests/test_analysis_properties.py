"""Property tests: the marking is sound on random rich programs.

Two independent checks over programs from :mod:`tests.strategies`:

* **dynamic** — simulated execution (one generated trace) never reads a
  dynamically stale word at a site the TPI/SC map left ordinary;
* **static** — the staleness oracle's definite verdicts never disagree
  with the production marking (no lint errors), in any interprocedural
  mode.
"""

from hypothesis import HealthCheck, given, settings

from repro.analysis.lint import diff_marking
from repro.analysis.oracle import analyze_staleness
from repro.analysis.sanitizer import replay_stale_reads, unmarked_stale_sites
from repro.common.config import default_machine
from repro.compiler.marking import InterprocMode, MarkingOptions, mark_program
from repro.trace.generate import generate_columnar
from tests.strategies import rich_programs

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


class TestMarkingSoundness:
    @settings(max_examples=30, **SETTINGS)
    @given(rich_programs())
    def test_no_dynamic_stale_read_at_unmarked_site(self, program):
        marking = mark_program(program)
        trace = generate_columnar(program, default_machine(), None)
        for scheme in ("tpi", "sc"):
            findings = replay_stale_reads(trace, marking, scheme)
            violations = unmarked_stale_sites(findings)
            assert violations == {}, (scheme, violations)

    @settings(max_examples=20, **SETTINGS)
    @given(rich_programs())
    def test_oracle_never_outflanks_the_marking(self, program):
        for mode in InterprocMode:
            opts = MarkingOptions(interproc=mode)
            marking = mark_program(program, None, opts)
            oracle = analyze_staleness(program, None, opts)
            for scheme in ("tpi", "sc"):
                errors = [d for d in diff_marking(marking, oracle, scheme,
                                                  mode.value)
                          if d.severity.value == "error"]
                assert errors == [], [d.format() for d in errors]
