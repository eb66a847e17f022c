"""Unit tests for the diagnostics engine (codes, report, renderers)."""

import json

from repro.analysis import CODES, Diagnostic, LintReport, Severity
from repro.datalog import Span


class TestCodeRegistry:
    def test_codes_are_contiguous_and_ordered(self):
        expected = [f"DL{i:03d}" for i in range(1, 25)]
        assert list(CODES) == expected

    def test_names_unique(self):
        names = [info.name for info in CODES.values()]
        assert len(names) == len(set(names))

    def test_every_entry_well_formed(self):
        for code, info in CODES.items():
            assert info.code == code
            assert isinstance(info.severity, Severity)
            assert info.summary
            assert info.name == info.name.lower()
            assert " " not in info.name  # kebab-case labels

    def test_retired_code_stays_registered_but_never_fires(self):
        from repro.analysis import lint_program
        from repro.datalog import parse

        assert [c for c, i in CODES.items() if i.retired] == ["DL016"]
        # the program shape DL016 used to flag: a boolean query over
        # many distinct in-program constants
        rules = "\n".join(f"hit() :- item({i})." for i in range(40))
        report = lint_program(parse(f"{rules}\n?- hit()."))
        assert "DL016" not in report.codes()

    def test_severity_spread(self):
        by = {s: [c for c, i in CODES.items() if i.severity is s] for s in Severity}
        assert "DL001" in by[Severity.ERROR]
        assert "DL006" in by[Severity.WARNING]
        assert "DL010" in by[Severity.INFO]
        # every severity is represented
        assert all(by[s] for s in Severity)


class TestDiagnostic:
    def test_render_with_span_and_hint(self):
        d = Diagnostic(
            "DL001",
            Severity.ERROR,
            "boom",
            span=Span(3, 7),
            hint="do not boom",
        )
        text = d.render("prog.dl")
        assert text.splitlines()[0] == "prog.dl:3:7: error[DL001] unsafe-rule: boom"
        assert text.splitlines()[1] == "  hint: do not boom"

    def test_render_without_span(self):
        d = Diagnostic("DL004", Severity.WARNING, "no query")
        assert d.render("x.dl") == "x.dl: warning[DL004] no-query: no query"

    def test_name_comes_from_registry(self):
        assert Diagnostic("DL013", Severity.INFO, "m").name == "chain-regular"

    def test_to_dict_round_trips_through_json(self):
        d = Diagnostic(
            "DL002",
            Severity.ERROR,
            "m",
            predicate="p",
            rule_index=4,
            span=Span(1, 2),
            hint="h",
        )
        payload = json.loads(json.dumps(d.to_dict()))
        assert payload == {
            "code": "DL002",
            "name": "arity-mismatch",
            "severity": "error",
            "message": "m",
            "predicate": "p",
            "rule_index": 4,
            "span": [1, 2],
            "hint": "h",
        }


def _report(*severities):
    diags = tuple(
        Diagnostic(code, CODES[code].severity, f"m{i}")
        for i, code in enumerate(severities)
    )
    return LintReport(diags)


class TestLintReport:
    def test_orders_errors_first(self):
        report = _report("DL010", "DL006", "DL001", "DL013")
        assert [d.severity for d in report] == [
            Severity.ERROR,
            Severity.WARNING,
            Severity.INFO,
            Severity.INFO,
        ]

    def test_severity_buckets(self):
        report = _report("DL001", "DL006", "DL007", "DL010")
        assert len(report.errors) == 1
        assert len(report.warnings) == 2
        assert len(report.infos) == 1
        assert len(report) == 4

    def test_exit_code_contract(self):
        clean = _report()
        infos = _report("DL010")
        warns = _report("DL006")
        errs = _report("DL001")
        assert clean.exit_code() == 0 and clean.exit_code(strict=True) == 0
        assert infos.exit_code() == 0 and infos.exit_code(strict=True) == 0
        assert warns.exit_code() == 0
        assert warns.exit_code(strict=True) == 2
        assert errs.exit_code() == 2 and errs.exit_code(strict=True) == 2

    def test_summary_is_last_line_of_text(self):
        report = _report("DL001", "DL010")
        assert report.render_text().splitlines()[-1] == (
            "1 error(s), 0 warning(s), 1 info(s)"
        )

    def test_render_json(self):
        report = LintReport(
            (Diagnostic("DL006", Severity.WARNING, "m"),), source="f.dl"
        )
        payload = json.loads(report.render_json())
        assert payload["source"] == "f.dl"
        assert payload["counts"] == {"error": 0, "warning": 1, "info": 0}
        assert payload["diagnostics"][0]["code"] == "DL006"

    def test_codes_set(self):
        assert _report("DL001", "DL001", "DL010").codes() == {"DL001", "DL010"}


class TestDocsTable:
    def test_api_md_table_matches_registry(self):
        """docs/api.md's diagnostic table lists exactly the registered
        codes, with matching names and severities."""
        import pathlib
        import re

        doc = pathlib.Path(__file__).resolve().parents[2] / "docs" / "api.md"
        rows = re.findall(
            r"^\| (DL\d{3}) \| ([a-z-]+) \| (error|warning|info) \|",
            doc.read_text(),
            flags=re.M,
        )
        documented = {code: (name, sev) for code, name, sev in rows}
        assert set(documented) == set(CODES)
        for code, info in CODES.items():
            assert documented[code] == (info.name, str(info.severity)), code
