"""Compiled rule kernels: codegen shape, caching, fallback, and
bit-identical agreement with the plan interpreter."""

import cProfile
import pstats

import pytest

from repro.datalog import Database, parse, parse_rule
from repro.datalog.terms import Constant, Variable
from repro.engine import (
    EngineOptions,
    compile_rule,
    evaluate,
    kernel_cache_stats,
    kernel_source,
    rule_kernel,
)
from repro.engine.kernel import KernelError


def _compiled(src: str, index: int = 0):
    return compile_rule(parse_rule(src), index)


# -- generated source shape ---------------------------------------------------


class TestKernelSource:
    def test_slot_registers_replace_substitution_dicts(self):
        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        src = kernel_source(cr)
        # every variable is a compile-time register; no dict in sight
        assert "r0 = row0[0]" in src
        assert "dict" not in src
        assert "subst" not in src

    def test_constants_inlined_as_literals(self):
        cr = _compiled("h(Y) :- e(1, Y), f(Y, 'abc').")
        src = kernel_source(cr)
        assert "(1,)" in src  # constant index key for e
        assert "'abc'" in src  # constant key for f

    def test_index_lookup_emitted_directly(self):
        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        src = kernel_source(cr)
        # the index is fetched once, at the step's first probe, and
        # probed with a plain dict lookup afterwards
        assert ".index_for((0,))" in src
        assert ".get((r" in src
        assert "index_probes" in src

    def test_existential_cut_emits_break(self):
        # Y is dead after a(X, Y): the literal is an existence test
        cr = _compiled("h(X) :- p(X), a(X, Y).")
        assert any(p.existential for p in cr.plan)
        assert "break" in kernel_source(cr)

    def test_non_existential_plan_has_no_break(self):
        cr = _compiled("h(X, Y) :- a(X, Y).")
        assert "break" not in kernel_source(cr)

    def test_repeated_free_variable_compiles_to_guard(self):
        cr = _compiled("h(X) :- a(X, X).")
        src = kernel_source(cr)
        assert "if row0[1] != r0: continue" in src

    def test_builtin_and_negation_in_kernel_body(self):
        r = parse_rule("h(X) :- a(X, Y), lt(X, Y), not bad(X).")
        cr = compile_rule(r, 0)
        src = kernel_source(cr)
        assert "_bi_lt(r0, r1)" in src
        assert "nrel0" in src and "in nrel0" in src

    def test_delta_plan_reads_frontier(self):
        cr = _compiled("h(X, Y) :- e(X, Z), t(Z, Y).")
        src = kernel_source(cr, 1)  # delta on t
        assert "delta.all_rows()" in src or "delta.lookup(" in src

    def test_scan_mode_emits_filtered_full_scan(self):
        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        src = kernel_source(cr, use_indexes=False)
        assert ".lookup(" not in src
        assert "scan_fallbacks" in src
        assert "if row1[0] != r1: continue" in src

    def test_provenance_variant_yields_rows_in_body_order(self):
        cr = _compiled("h(X, Y) :- e(X, Z), t(Z, Y).")
        src = kernel_source(cr, 1, record_rows=True)
        # delta plan starts at body literal 1, but rows come back in
        # original body order: (e-row, t-row)
        assert "yield (r2, r1), (row1, row0)" in src


# -- caching and fallback -----------------------------------------------------


class TestKernelCache:
    def test_kernel_memoized_per_rule(self):
        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        k1 = rule_kernel(cr)
        k2 = rule_kernel(cr)
        assert k1 is k2

    def test_structurally_identical_rules_share_one_kernel(self):
        before = kernel_cache_stats()
        a = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        b = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        ka, kb = rule_kernel(a), rule_kernel(b)
        assert ka is kb  # same source => same compiled function
        after = kernel_cache_stats()
        assert after["compiles"] + after["hits"] > before["compiles"] + before["hits"]

    def test_unsupported_constant_falls_back_to_interpreter(self):
        from repro.datalog.ast import Atom, Rule

        weird = Constant((1, 2))  # no inline literal form
        rule = Rule(
            Atom("h", (Variable("X"),)),
            (Atom("p", (Variable("X"), weird)),),
        )
        cr = compile_rule(rule, 0)
        with pytest.raises(KernelError):
            kernel_source(cr)
        assert rule_kernel(cr) is None  # engine falls back per rule

    def test_fallback_rule_still_evaluates_via_interpreter(self):
        from repro.datalog.ast import Atom, Program, Rule

        weird = Constant((1, 2))
        rule = Rule(Atom("h", (Variable("X"),)), (Atom("p", (Variable("X"), weird)),))
        program = Program((rule,), query=Atom("h", (Variable("X"),)))
        db = Database.from_dict({"p": [(7, (1, 2)), (8, (9, 9))]})
        res = evaluate(program, db)
        assert res.answers() == {(7,)}
        assert res.stats.kernel_launches == 0


# -- engine integration -------------------------------------------------------

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
?- tc(X, Y).
"""

EDGES = {"edge": [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)]}


class TestKernelEngine:
    def _pair(self, src, data, **common):
        program = parse(src)
        kern = evaluate(
            program, Database.from_dict(data),
            EngineOptions(record_provenance=True, **common),
        )
        interp = evaluate(
            program, Database.from_dict(data),
            EngineOptions(record_provenance=True, use_kernels=False, **common),
        )
        return kern, interp

    def test_kernel_path_actually_runs(self):
        kern, interp = self._pair(TC, EDGES)
        assert kern.stats.kernel_launches > 0
        assert interp.stats.kernel_launches == 0

    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_bit_identical_with_interpreter(self, use_indexes):
        kern, interp = self._pair(TC, EDGES, use_indexes=use_indexes)
        assert kern.answers() == interp.answers()
        assert kern.provenance == interp.provenance
        assert kern.stats.as_dict(engine_invariant=True) == interp.stats.as_dict(
            engine_invariant=True
        )

    def test_cli_no_kernel_flag(self, tmp_path, capsys):
        from repro.cli import main

        prog = tmp_path / "p.dl"
        facts = tmp_path / "f.dl"
        prog.write_text("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n?- tc(1, Y).\n")
        facts.write_text("e(1, 2).\ne(2, 3).\n")
        assert main(["run", str(prog), str(facts)]) == 0
        with_kernels = capsys.readouterr().out
        assert main(["run", str(prog), str(facts), "--no-kernel"]) == 0
        assert capsys.readouterr().out == with_kernels

    def test_kernel_halves_interpreter_frame_allocations(self):
        """The headline claim: >= 2x fewer Python function/generator
        frames on the join hot path (measured as profiled call count)."""
        program = parse(TC)
        db = Database.from_dict(
            {"edge": [(i, (i * 7 + 1) % 40) for i in range(40)] + [(i, i + 1) for i in range(40)]}
        )

        def calls(options):
            prof = cProfile.Profile()
            prof.enable()
            evaluate(program, db.copy(), options)
            prof.disable()
            return pstats.Stats(prof).total_calls

        kernel_calls = calls(EngineOptions())
        interp_calls = calls(EngineOptions(use_kernels=False))
        assert kernel_calls * 2 <= interp_calls, (kernel_calls, interp_calls)
