"""CLI surface: formats, exit codes, determinism."""
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import time
import types
from itertools import chain, permutations, product
from pathlib import Path

import pytest

from statecount import cli, fixtures, janggi, oracle, verify, xiangqi
from statecount.cli import (OPTIONS, PIPELINES, SHARED_TABLES, TABLE_IDS, VARIANTS, _fast_args,
                            main)
from statecount.commands import ORACLES, build_parser
from statecount.janggi import jg_home_count
from statecount.xiangqi import xq_grand_total

from frozen import TRUE_JG_TOTAL, TRUE_XQ_TOTAL

REPO = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCount:
    def test_xiangqi_dec_parses_back_exactly(self, capsys):
        code, out = run_cli(capsys, "count", "--variant", "xiangqi")
        assert code == 0
        assert int(out.strip()) == xq_grand_total() == TRUE_XQ_TOTAL

    def test_janggi_dec(self, capsys):
        code, out = run_cli(capsys, "count", "--variant", "janggi", "--format", "dec")
        assert code == 0
        assert int(out.strip()) == TRUE_JG_TOTAL

    def test_json_record(self, capsys):
        code, out = run_cli(capsys, "count", "--variant", "xiangqi", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["digits"] == 40
        assert int(record["total"]) == TRUE_XQ_TOTAL
        assert len(record["terms"]) == 19 * 13
        assert all(isinstance(t["count"], str) for t in record["terms"])
        assert sum(int(t["count"]) for t in record["terms"]) == TRUE_XQ_TOTAL

    def test_json_janggi_digits(self, capsys):
        code, out = run_cli(capsys, "count", "--variant", "janggi", "--format", "json")
        record = json.loads(out)
        assert record["digits"] == 46
        assert len(record["terms"]) == 15 * 17


class TestTable:
    def test_t1_csv_rows(self, capsys):
        code, out = run_cli(capsys, "table", "--variant", "xiangqi", "--table", "t1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("used_pieces,advisors,elephants,total")
        assert len(lines) == 1 + 9
        assert "5,2,2,1410,70,680,660" in lines

    def test_t6_csv_grid(self, capsys):
        code, out = run_cli(capsys, "table", "--variant", "janggi", "--table", "t6")
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 8
        for line in lines[1:]:
            cells = line.split(",")
            n = int(cells[0])
            assert [int(c) for c in cells[1:]] == [jg_home_count(n, k) for k in range(6)]

    def test_slist_json_annotations(self, capsys):
        code, out = run_cli(
            capsys, "table", "--variant", "janggi", "--table", "slist", "--format", "json"
        )
        rows = json.loads(out)
        assert len(rows) == 17
        by_index = {int(r["sites"]): r for r in rows}
        assert by_index[4]["computed"] == "3864"
        assert by_index[4]["printed"] == "2028"
        assert by_index[4]["status"] == "typo-suspect"
        assert by_index[5]["status"] == "ok"

    def test_xiangqi_slist_is_clean(self, capsys):
        code, out = run_cli(
            capsys, "table", "--variant", "xiangqi", "--table", "slist", "--format", "json"
        )
        rows = json.loads(out)
        assert len(rows) == 13
        assert all(r["status"] == "ok" for r in rows)

    def test_klist_rows(self, capsys):
        _, out = run_cli(capsys, "table", "--variant", "xiangqi", "--table", "klist")
        assert len(out.strip().splitlines()) == 1 + 19
        _, out = run_cli(capsys, "table", "--variant", "janggi", "--table", "klist")
        assert len(out.strip().splitlines()) == 1 + 15

    def test_geometry_json(self, capsys):
        code, out = run_cli(
            capsys, "table", "--variant", "xiangqi", "--table", "geometry", "--format", "json"
        )
        record = json.loads(out)
        assert len(record["zones"]["A"]["elephant_sites"]) == 7
        assert len(record["zones"]["B"]["soldier_own_side_sites"]) == 10

    def test_a_rebound_closed_form_is_seen_by_every_cell(self, capsys, monkeypatch):
        """cli looks each closed form up on its module at call time."""
        monkeypatch.setattr(janggi, "jg_home_count", lambda n, k: 10 * n + k)
        code, out = run_cli(capsys, "table", "--variant", "janggi", "--table", "t6")
        header, *lines = [line.split(",") for line in out.strip().splitlines()]
        reserves = [int(h.removeprefix("reserve_")) for h in header[1:]]
        assert code == 0 and len(lines) == 8
        for n, *cells in lines:
            assert [int(c) for c in cells] == [10 * int(n) + k for k in reserves]

        monkeypatch.setattr(xiangqi, "xq_positions", lambda x: 0)
        assert run_cli(capsys, "count", "--variant", "xiangqi") == (0, "0\n")
        code, out = run_cli(capsys, "table", "--variant", "xiangqi", "--table", "klist")
        counts = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert code == 0 and counts == ["0"] * 19

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "table", "--variant", "xiangqi", "--table", "t5")
        _, second = run_cli(capsys, "table", "--variant", "xiangqi", "--table", "t5")
        assert first == second


class TestVerifyCommand:
    def test_xiangqi_scope_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--scope", "xiangqi")
        assert code == 0
        assert "[geometry] ok" in out
        assert out.strip().splitlines()[-1].startswith("summary:")
        assert "0 mismatch" in out

    def test_combinatorics_scope_flags_typos(self, capsys):
        code, out = run_cli(capsys, "verify", "--scope", "combinatorics")
        assert code == 0
        assert "[paper-typo-confirmed] jg.slist.4" in out
        assert "[match] jg.slist.5" in out


def _indexed(header):
    """The index a grid's value header carries: ``blanks_40`` -> 40."""
    return int(header.rpartition("_")[2])


def _camp_column(header):
    """The fixtures column of a camp table's value header."""
    return fixtures.CAMP_COLUMNS[xiangqi.CampClassRow._fields.index(header)]


# per printed table: the fixtures family whose oracle checks its cells, and the
# family key of the cell in the row with key ``key`` under value header ``header``
PRINTED_FAMILIES = {
    ("xiangqi", "t1"): ("xq.table1", lambda key, header: (*key[1:], _camp_column(header))),
    ("xiangqi", "t2"): ("xq.table2", lambda key, header: (*key, _camp_column(header))),
    ("xiangqi", "t3"): ("xq.table3", lambda key, header: (_indexed(header), *key)),
    ("xiangqi", "t4"): ("xq.table4", lambda key, header: (_indexed(header), *key)),
    ("xiangqi", "t5"): ("xq.table5", lambda key, header: (_indexed(header), *key)),
    ("xiangqi", "klist"): ("xq.klist", lambda key, header: key),
    ("janggi", "t6"): ("jg.table6", lambda key, header: (*key, _indexed(header))),
    ("janggi", "klist"): ("jg.klist", lambda key, header: key),
}


def test_every_printed_cell_matches_its_oracle(capsys):
    """Each cell ``table`` prints from a ``TABLES`` record, also those the paper
    does not print, equals its family's oracle at the matching key; and every
    printed value of those families is such a cell, so verify's rows are a
    subset of what ``table`` prints."""
    cells = 0
    laid_out = [(variant, table) for variant, module in PIPELINES.items()
                for table in module.TABLES]
    assert sorted(laid_out) == sorted(PRINTED_FAMILIES)
    for variant, table in laid_out:
        name, family_key = PRINTED_FAMILIES[variant, table]
        family = fixtures.FAMILIES[name]
        width = len(PIPELINES[variant].TABLES[table][0])
        _, out = run_cli(capsys, "table", "--variant", variant, "--table", table)
        header, *rows = (line.split(",") for line in out.splitlines())
        printed = set()
        for row in rows:
            key = tuple(map(int, row[:width]))
            for column, value in zip(header[width:], row[width:], strict=True):
                cell = family_key(key, column)
                printed.add(cell)
                assert int(value) == family.oracle(*cell), (table, row, column)
                cells += 1
        assert family.values.keys() <= printed, table
    assert cells == 276


def _variant_tables(variant):
    """The tables a variant prints: its ``TABLES`` records in order, then the
    shared ones."""
    return (*PIPELINES[variant].TABLES, *SHARED_TABLES)


def test_every_variant_lists_its_laid_out_tables():
    """The argparse choices name every table a variant prints: its ``TABLES``
    records, and ``slist`` and ``geometry``, which every variant prints."""
    assert SHARED_TABLES == ("slist", "geometry")
    assert tuple(PIPELINES) == VARIANTS
    assert sorted(TABLE_IDS) == sorted(set().union(*map(_variant_tables, PIPELINES)))


def _option_argvs():
    """Every ``count``/``table`` argv of whole option pairs: each subset of
    the command's options, in every order, with every choice."""
    for command, options in OPTIONS.items():
        for size in range(len(options) + 1):
            for names in permutations(options, size):
                for values in product(*(options[name] for name in names)):
                    yield [command, *chain.from_iterable(zip(names, values))]


def _mutations(argv):
    """Forms of a canonical argv that argparse parses and the fast path leaves
    to it."""
    command, option, value, *rest = argv
    yield [command, option[:5], value, *rest]  # abbreviated: --var, --tab, --for
    yield [command, f"{option}={value}", *rest]
    yield [*argv, option, value]  # duplicated
    yield [command, *rest] if option == "--variant" else [command, option, value]  # no --variant
    yield [command, option, "chess", *rest]
    yield [*argv, "-h"]
    yield [*argv, "extra"]
    yield [*argv, "--"]


def _argparse_fields(parser, argv):
    """What argparse parses ``argv`` to, the handler aside; None if it exits."""
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return None
    return {name: value for name, value in vars(args).items() if name != "handler"}


def test_fast_path_parses_as_argparse_does():
    """The fast path takes exactly the canonical ``count``/``table`` argvs, every
    required option given once with a valid choice and the table defined for
    the variant, and parses each as argparse does; it takes no other argv."""
    parser = build_parser(cli)
    canonical, other = [], []
    for argv in _option_argvs():
        given = dict(zip(argv[1::2], argv[2::2]))
        required = {name for name in OPTIONS[argv[0]] if name != "--format"}
        if required <= given.keys() and (
                argv[0] == "count" or given["--table"] in _variant_tables(given["--variant"])):
            canonical.append(argv)
        else:
            other.append(argv)
    other += [mutated for argv in canonical for mutated in _mutations(argv)]
    assert (len(canonical), len(other)) == (178, 1569)
    for argv in canonical:
        fast = _fast_args(argv)
        assert fast is not None, argv
        expected = _argparse_fields(parser, argv)
        assert expected == {name: value for name, value in vars(fast).items()
                            if name != "handler"}, argv
    assert [argv for argv in other if _fast_args(argv) is not None] == []


def test_no_argv_parses_the_process_arguments(capsys, monkeypatch):
    """``main()`` reads the process's own argv past the program name, and a
    canonical argv there needs no argparse parser."""
    def no_parser(*_):
        raise AssertionError("the fast path declined a canonical argv")

    monkeypatch.setattr(sys, "argv", ["statecount", "count", "--variant", "janggi"])
    monkeypatch.setattr(cli, "commands", types.SimpleNamespace(build_parser=no_parser))
    assert main() == 0
    assert capsys.readouterr().out == f"{janggi.jg_grand_total()}\n"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("count", "--variant", "chess"),
        ("table", "--variant", "janggi", "--table", "t1"),
        ("table", "--variant", "xiangqi", "--table", "t6"),
        ("verify", "--scope", "entirety"),
        ("oracle", "--target", "enum_pair_fill", "8", "12"),
        ("oracle", "--target", "enum_everything"),
        ("oracle", "--target", "enum_positions_small", "chess", "3"),
        ("oracle", "--target", "enum_camp_xq", "-1", "0"),
        ("oracle", "--target", "enum_soldiers_xq", "5", "2"),
        ("oracle", "--target", "enum_camp_xq", "3", "0"),
        ("oracle", "--target", "enum_side_xq", "35", "-3"),
        ("oracle", "--target", "enum_home_jg", "3", "-2"),
        ("oracle", "--target", "enum_pair_fill", "-1", "3"),
        ("oracle", "--target", "enum_pair_fill", "3", "-1"),
        ("oracle", "--target", "enum_soldiers_xq", "0", "7"),
        (),
        ("count",),
        ("oracle",),
    ])
    def test_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("table", "--variant", "xiangqi", "--table", "t6"),
        ("oracle", "--target", "enum_soldiers_xq", "0", "-1"),
    ], ids=["table", "oracle"])
    def test_usage_error_prints_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(list(argv))
        err = capsys.readouterr().err
        assert err.startswith(f"usage: statecount {argv[0]} ")
        assert f"\nstatecount {argv[0]}: error: " in err

    def test_domain_error_names_target_and_parameter(self, capsys):
        with pytest.raises(SystemExit):
            main(["oracle", "--target", "enum_soldiers_xq", "0", "-1"])
        assert "oracle enum_soldiers_xq: soldiers must be in 0..5" in capsys.readouterr().err


def _domain_cases():
    """Per ORACLES row: the first in-domain argument tuple (exit 0), each
    range parameter just outside its range, each variant parameter set to
    chess, and one argument too few and too many (exit 2)."""
    for target, (domains, _) in ORACLES.items():
        first = [str(domain[0]) for domain in domains]
        cases = [(first, 0), (first[:-1], 2), (first + first[:1], 2)]
        for i, domain in enumerate(domains):
            outside = ((domain.start - 1, domain.stop) if isinstance(domain, range)
                       else ("chess",))
            cases += [(first[:i] + [str(value)] + first[i + 1:], 2) for value in outside]
        for params, code in cases:
            yield pytest.param(target, params, code, id=" ".join([target, *params]))


@pytest.mark.parametrize("target,params,code", _domain_cases())
def test_oracle_domains(capsys, target, params, code):
    """Every exit is 0 or a usage error naming the target, never a traceback."""
    argv = ["oracle", "--target", target, *params]
    if code == 0:
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"oracle {target}" in capsys.readouterr().err


def _called_oracles(code: types.CodeType) -> set[str]:
    """Oracle functions a fixtures callable names, in its own body, in the
    generators nested in it, or in the fixtures helpers it calls."""
    called = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            called |= _called_oracles(const)
    for name in code.co_names:
        if inspect.isfunction(getattr(fixtures, name, None)):
            called |= _called_oracles(getattr(fixtures, name).__code__)
        elif getattr(getattr(oracle, name, None), "__module__", None) == oracle.__name__:
            called.add(name)
    return called


class TestOracleCommand:
    def test_camp_with_class_breakdown(self, capsys):
        code, out = run_cli(capsys, "oracle", "--target", "enum_camp_xq", "2", "2")
        assert code == 0
        assert "total=1410" in out
        assert "two_shared=70" in out
        assert "wall_time_s=" in out

    def test_wall_time_is_the_oracle_call(self, capsys):
        started = time.perf_counter()
        code, out = run_cli(capsys, "oracle", "--target", "enum_camp_xq", "2", "2")
        elapsed = time.perf_counter() - started
        assert code == 0
        wall_time = float(out.rsplit("wall_time_s=", 1)[1])
        assert 0 <= wall_time <= elapsed + 0.0005

    def test_positions_small(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--target", "enum_positions_small", "xiangqi", "2"
        )
        assert code == 0
        assert "2:81" in out
        domains, _ = ORACLES["enum_positions_small"]
        assert domains[1] == range(2, oracle.POSITIONS_MAX_LIGHT_PIECES + 1)

    def test_pair_fill(self, capsys):
        code, out = run_cli(capsys, "oracle", "--target", "enum_pair_fill", "4", "8")
        assert code == 0
        assert out.splitlines()[0] == "2520"

    @pytest.mark.parametrize("argv,expected", [
        (("scan_total", "xiangqi"), str(TRUE_XQ_TOTAL)),
        (("count_pair_fill", "8", "4"), "3864"),
        (("scan_positions", "janggi"), "2:81"),
    ], ids=["scan_total", "count_pair_fill", "scan_positions"])
    def test_verify_oracles(self, capsys, argv, expected):
        code, out = run_cli(capsys, "oracle", "--target", *argv)
        assert code == 0
        assert expected in out.splitlines()[0].split()

    def test_every_verify_oracle_is_a_target(self):
        called = set().union(*(_called_oracles(fam.oracle.__code__)
                               for fam in fixtures.FAMILIES.values()))
        # the walk reaches generator bodies (table 2) and helpers (pair fill)
        assert {"enum_camp_xq", "enum_pair_fill", "count_pair_fill", "scan_total"} <= called
        assert called <= set(ORACLES)


def _python(*argv: str) -> subprocess.Popen:
    """A fresh interpreter that imports ``statecount`` from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.Popen([sys.executable, *argv], cwd=REPO, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv", [
    ("table", "--variant", "xiangqi", "--table", "geometry"),
    ("count", "--variant", "janggi", "--format", "json"),
], ids=["fits-the-buffer", "overflows-the-buffer"])
def test_closed_stdout_is_not_an_error(argv):
    """A reader that stops early (``| head -1``) gets no traceback and the
    command's own status, whether the write fails at exit or mid-output."""
    proc = _python("-m", "statecount.cli", *argv)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err
    assert proc.returncode == 0


def test_closed_stdout_keeps_a_mismatch_status(monkeypatch):
    """A verify run that found a mismatch exits 1 even when no one reads it."""
    row = verify.ReportRow("xq.total", 1, 2, 3, verify.MISMATCH)
    monkeypatch.setattr(verify, "run_verify", lambda scope: verify.VerifyResult([], [row], {}))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["verify"]) == 1


def test_import_loads_every_module_without_record_machinery():
    """``import statecount.cli`` puts every module in ``sys.modules``, which
    the bench tracer relies on, and runs only ``geometry``: every other module
    is deferred and registered ahead of it, so the tracer's walk over
    ``sys.modules`` runs each deferred body before it patches anything.  The
    import loads neither ``dataclasses`` nor ``inspect``, nor ``argparse`` with
    the ``gettext`` and ``locale`` it loads.  A ``geometry`` table runs no
    further module, because the fast path tests the shared tables before a
    variant's ``TABLES``.  ``count`` and every table of one variant but
    ``slist`` then run that variant's closed forms alone, never the other
    variant's, ``oracle``, ``fixtures`` or ``verify``.  ``slist`` adds
    ``fixtures`` alone; no ``count`` or ``table`` call, ``slist`` included,
    runs ``commands`` or loads ``argparse``: each of these would cost every
    such process start-up."""
    script = textwrap.dedent("""\
        import json, sys, types
        before = set(sys.modules)
        import statecount.cli as cli
        loaded = [name for name in sys.modules if name not in before]
        def ran():
            return sorted(name for name in loaded if name.startswith("statecount.")
                          and type(sys.modules[name]) is types.ModuleType)
        record = {"loaded": loaded, "imported": ran()}
        variant = sys.argv[1]
        cli.main(["table", "--variant", variant, "--table", "geometry"])
        record["geometry"] = ran()
        for slist in (False, True):
            for fmt in cli.OPTIONS["count"]["--format"] * (not slist):
                cli.main(["count", "--variant", variant, "--format", fmt])
            for table in (*cli.PIPELINES[variant].TABLES, *cli.SHARED_TABLES):
                for fmt in cli.OPTIONS["table"]["--format"] * ((table == "slist") == slist):
                    cli.main(["table", "--variant", variant, "--table", table,
                              "--format", fmt])
            record["slist" if slist else "called"] = ran()
        record["after"] = sorted(set(sys.modules) - before)
        print(json.dumps(record))""")
    modules = {f"statecount.{path.stem}" for path in (REPO / "src/statecount").glob("*.py")
               if path.stem != "__init__"}
    assert len(modules) == 9
    for variant in PIPELINES:
        proc = _python("-c", script, variant)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        record = json.loads(out.splitlines()[-1])
        assert modules <= set(record["loaded"])
        assert record["imported"] == record["geometry"] == ["statecount.cli",
                                                            "statecount.geometry"]
        order = [name for name in record["loaded"] if name in modules]
        assert set(order[:order.index("statecount.geometry")]) == modules - set(
            record["imported"])
        assert not {"dataclasses", "inspect", "argparse", "gettext", "locale"} & set(
            record["loaded"])
        assert record["called"] == sorted({"statecount.cli", "statecount.geometry",
                                           "statecount.combinatorics", f"statecount.{variant}"})
        assert record["slist"] == sorted({*record["called"], "statecount.fixtures"})
        assert not {"argparse", "gettext", "locale"} & set(record["after"])


def test_argparse_path_runs_no_second_copy_of_cli():
    """Under ``python -m statecount.cli`` the module runs as ``__main__``.  The
    argparse path (``commands``) is handed that module rather than importing
    it, so ``verify`` leaves no ``statecount.cli``, which would be a second
    copy of it, with its own deferred modules and options."""
    proc = _python("-c", textwrap.dedent("""\
        import runpy, sys, types
        sys.argv = ["statecount", "verify", "--scope", "janggi"]
        try:
            runpy.run_module("statecount.cli", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            commands = sys.modules["statecount.commands"]
            print(stop.code, type(commands) is types.ModuleType, "statecount.cli" in sys.modules)"""))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.splitlines()[-1] == "0 True False"


def test_dec_and_csv_output_do_not_load_json():
    """``json`` is imported only by the JSON branches of ``count`` and
    ``table``; a fresh interpreter that has not loaded it yet prints a dec
    total and a csv table without it."""
    proc = _python("-c", textwrap.dedent("""\
        import sys
        before = "json" in sys.modules
        import statecount.cli as cli
        cli.main(["count", "--variant", "xiangqi"])
        cli.main(["table", "--variant", "janggi", "--table", "t6"])
        print(before, "json" in sys.modules)"""))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    before, after = out.splitlines()[-1].split()
    assert before == "True" or after == "False"


@pytest.mark.parametrize("code,expected", [
    ("import statecount.cli; import statecount.oracle; "
     "print(statecount.oracle.PAIR_FILL_MAX_SEQUENCES)", "20000000"),
    ("import statecount.oracle as o; import statecount.cli as c; print(c.oracle is o)",
     "True"),
], ids=["binds-the-package-attribute", "keeps-an-imported-module"])
def test_deferred_module_behaves_like_an_import(code, expected):
    """A deferred module is reachable as ``statecount.<name>``, and one that is
    already imported stays the only copy, so caches and patches are shared."""
    proc = _python("-c", code)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.strip() == expected


@pytest.mark.parametrize("argv", [
    ("table", "--variant", "janggi", "--table", "slist"),
    ("oracle", "--target", "enum_camp_xq", "2", "2"),
    ("verify", "--scope", "janggi"),
], ids=["slist", "oracle", "verify"])
def test_deferred_handlers_print_what_an_eager_import_prints(capsys, argv):
    """In a fresh process the handlers that use a deferred module run its body
    on first touch and print what they print here, where it was imported."""
    proc = _python("-m", "statecount.cli", *argv)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    _, expected = run_cli(capsys, *argv)
    timed = "wall_time_s="
    assert ([line for line in out.splitlines() if not line.startswith(timed)]
            == [line for line in expected.splitlines() if not line.startswith(timed)])


@pytest.mark.parametrize("demo", ["01_xiangqi_pipeline.py", "02_janggi_pipeline.py",
                                  "03_oracle_audit.py", "04_discrepancy_report.py"])
def test_demo_runs(demo):
    """The demos read record attributes that no other test reads.  Demo 04
    repeats the full verify of the ``full_verify`` fixture in a fresh
    process, which adds about 2 s to the suite on a 2-core host."""
    proc = _python(str(REPO / "demos" / demo))
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err
    assert proc.returncode == 0


@pytest.mark.parametrize("table", ["SPAN_FUNCTIONS", "COUNT_FUNCTIONS"])
def test_traced_functions_exist(table):
    """The benchmark tracer patches ``statecount.<module>.<name>`` for every
    name in these tables and raises on a missing one, so a renamed function
    breaks every traced run.  The tables are read from the tracer's source,
    which this test does not import."""
    tree = ast.parse((REPO / "benchmarks" / "tracer.py").read_text())
    traced, = (ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(target, "id", None) for target in node.targets] == [table])
    missing = [f"{module}.{name}" for module, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"statecount.{module}"), name, None))]
    assert traced and not missing
