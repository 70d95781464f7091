"""CLI surface: formats, exit codes, determinism."""
import json

import pytest

from statecount.cli import main
from statecount.janggi import jg_home_count
from statecount.xiangqi import xq_grand_total

from frozen import TRUE_JG_TOTAL, TRUE_XQ_TOTAL


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
    ])
    def test_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2


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

    def test_pair_fill(self, capsys):
        code, out = run_cli(capsys, "oracle", "--target", "enum_pair_fill", "4", "8")
        assert code == 0
        assert out.splitlines()[0] == "2520"
