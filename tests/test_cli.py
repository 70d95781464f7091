"""CLI surface: formats, exit codes, determinism."""
import inspect
import json
import os
import subprocess
import sys
import textwrap
import types
from itertools import chain, permutations, product
from pathlib import Path

import pytest

from statecount import fixtures, oracle, verify
from statecount.cli import (GRIDS, OPTIONS, ORACLES, TABLES_BY_VARIANT, _fast_args,
                            build_parser, main)
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


# the fixtures family each grid prints, and whether its key is (column, row)
GRID_FAMILIES = {"t3": ("xq.table3", True), "t4": ("xq.table4", True),
                 "t5": ("xq.table5", True), "t6": ("jg.table6", False)}


def test_every_printed_grid_cell_matches_its_oracle(capsys):
    """Each cell ``table`` prints for t3-t6, also those the paper does not
    print, equals its family's oracle at the matching key."""
    cells = 0
    for table, (name, column_first) in GRID_FAMILIES.items():
        family = fixtures.FAMILIES[name]
        prefix = GRIDS[table][3]
        _, out = run_cli(capsys, "table", "--variant", family.scope, "--table", table)
        header, *rows = (line.split(",") for line in out.splitlines())
        columns = [int(cell.removeprefix(prefix)) for cell in header[1:]]
        for row, *printed in rows:
            for column, value in zip(columns, printed):
                key = (column, int(row)) if column_first else (int(row), column)
                assert int(value) == family.oracle(*key), (table, row, column)
                cells += 1
    assert cells == 186


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
    parser = build_parser()
    canonical, other = [], []
    for argv in _option_argvs():
        given = dict(zip(argv[1::2], argv[2::2]))
        required = {name for name in OPTIONS[argv[0]] if name != "--format"}
        if required <= given.keys() and (
                argv[0] == "count" or given["--table"] in TABLES_BY_VARIANT[given["--variant"]]):
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
    the bench tracer relies on, and loads neither ``dataclasses`` nor
    ``inspect``, nor ``argparse`` with the ``gettext`` and ``locale`` it loads.
    ``count`` and every table but ``slist`` then run without running the bodies
    of the deferred ``oracle``, ``fixtures`` and ``verify``, and no ``count``
    or ``table`` call loads ``argparse``: each of these would cost every such
    process start-up."""
    proc = _python("-c", textwrap.dedent("""\
        import json, sys, types
        before = set(sys.modules)
        import statecount.cli as cli
        loaded = sorted(set(sys.modules) - before)
        for slist in (False, True):
            for variant, tables in cli.TABLES_BY_VARIANT.items():
                for fmt in cli.OPTIONS["count"]["--format"] * (not slist):
                    cli.main(["count", "--variant", variant, "--format", fmt])
                for table in tables:
                    for fmt in cli.OPTIONS["table"]["--format"] * ((table == "slist") == slist):
                        cli.main(["table", "--variant", variant, "--table", table,
                                  "--format", fmt])
            if not slist:
                ran = [name for name in ("oracle", "fixtures", "verify")
                       if type(sys.modules[f"statecount.{name}"]) is types.ModuleType]
        called = sorted(set(sys.modules) - before)
        print(json.dumps({"loaded": loaded, "ran": ran, "called": called}))"""))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    record = json.loads(out.splitlines()[-1])
    loaded = set(record["loaded"])
    modules = {f"statecount.{path.stem}" for path in (REPO / "src/statecount").glob("*.py")
               if path.stem != "__init__"}
    assert len(modules) == 8
    assert modules <= loaded
    assert not {"dataclasses", "inspect", "argparse", "gettext", "locale"} & loaded
    assert record["ran"] == []
    assert not {"argparse", "gettext", "locale"} & set(record["called"])


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
                                  "03_oracle_audit.py"])
def test_demo_runs(demo):
    """The demos read record attributes that no other test reads.  Demo 04 is
    left out: it repeats the full verify the ``full_verify`` fixture runs."""
    proc = _python(str(REPO / "demos" / demo))
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err
    assert proc.returncode == 0
