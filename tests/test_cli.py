"""Command-line surface: schemas, determinism, exit codes, output modes."""

import csv
import hashlib
import io
import json
import math
import tracemalloc

import pytest

from alphatail import SpecParseError, catalog, cli, format_spec, make_distribution, parse_spec, tn
from alphatail.cli import MAX_SCHEDULE_POINTS, _parse_schedule, main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTn:
    def test_schedule_and_schema(self, run):
        code, out, _ = run("tn", "--dist", "geometric:a=2",
                           "--schedule", "16:1048576:x4", "--eps", "1e-9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,t_n,trunc_error"
        assert len(lines) == 10  # header + 9 schedule points
        ns = [int(r["n"]) for r in rows_of(out)]
        assert ns == [16 * 4 ** j for j in range(9)]

    def test_json_wraps_same_fields(self, run):
        code, out, _ = run("tn", "--dist", "geometric:a=2",
                           "--schedule", "16:256:x4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        # the CSV fields plus the number of summed terms
        assert set(doc["records"][0]) == {"n", "t_n", "trunc_error", "terms_used"}
        _, csv_out, _ = run("tn", "--dist", "geometric:a=2", "--schedule", "16:256:x4")
        csv_rows = rows_of(csv_out)
        assert [int(r["n"]) for r in csv_rows] == [r["n"] for r in doc["records"]]
        assert [float(r["t_n"]) for r in csv_rows] == [r["t_n"] for r in doc["records"]]
        assert all(isinstance(r["terms_used"], int) and r["terms_used"] > 0 for r in doc["records"])

    def test_json_schedule_is_pinned(self, run):
        # the output of one tn call per point, before the points of a
        # schedule were evaluated together; again once the first block of
        # the series grid held 64 values, which moved some values by 1 ulp
        # and no trunc_error or terms_used; again once power was normalized
        # with the second-order mass bracket, whose normalizer is 3 ulps
        # nearer 1/zeta(1.5): 28 of the 29 values and 12 widths moved in
        # their last digits, no terms_used
        code, out, _ = run("tn", "--dist", "power:lambda=1.5",
                           "--schedule", "1000:100000000:x3/2", "--format", "json")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "e446d71dad70fec4885f66657718f2d7046161d2d533c7000a6f4f2adefcb3e9")

    def test_values_are_finite(self, run):
        _, out, _ = run("tn", "--dist", "power:lambda=2", "--schedule", "16:4096:x4")
        for r in rows_of(out):
            assert math.isfinite(float(r["t_n"]))
            assert math.isfinite(float(r["trunc_error"]))

    def test_bad_schedule_exit_2(self, run):
        for schedule in ("16-32", "16:64:xfour"):
            code, _, err = run("tn", "--dist", "geometric:a=2", "--schedule", schedule)
            assert code == 2
            assert err.strip()

    def test_bad_dist_exit_2(self, run):
        code, _, _ = run("tn", "--dist", "power:lambda=0.5")
        assert code == 2

    @pytest.mark.parametrize("spec_text", [
        "geometric:a=2,lambda=3", "power:lambda=2,k0=5", "finite:p=0.5;0.5,a=3",
        "diffusion:stages=3,base=(geometric:a=2)",
    ])
    def test_parameter_the_family_does_not_take_exit_2(self, run, spec_text):
        code, out, err = run("tn", "--dist", spec_text)
        assert (code, out) == (2, "")
        assert "unknown parameter" in err

    def test_schedule_past_float_range(self, run):
        code, out, _ = run("tn", "--dist", "diffusion:stages=1",
                           "--schedule", f"16:{10 ** 309}:x4")
        assert code == 0
        ns = [int(r["n"]) for r in rows_of(out)]
        assert ns == [16 * 4 ** j for j in range(len(ns))]
        assert ns[-1] <= 10 ** 309 < 4 * ns[-1]

    def test_schedule_steps_in_exact_integers(self):
        # past 2^53 a float product would round 16 * 3^37 to a neighbour
        assert _parse_schedule(f"16:{16 * 3 ** 37}:x3") == [16 * 3 ** j for j in range(38)]
        assert _parse_schedule("10:40:x1.1") == [10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                                                 20, 22, 24, 26, 28, 30, 33, 36, 39]

    def test_schedule_point_cap(self, run):
        assert len(_parse_schedule("1:10000:x1.0000001")) == MAX_SCHEDULE_POINTS
        with pytest.raises(SpecParseError):
            _parse_schedule("1:10001:x1.0000001")
        # refused at point 10,001, not after building all 999,985
        tracemalloc.start()
        try:
            code, out, err = run("tn", "--dist", "geometric:a=2",
                                 "--schedule", "16:1000000:x1.0000001")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == "" and "10000 points" in err
        assert peak < 2 ** 20


class TestClassify:
    def test_csv_format_refused(self, run):
        # classify writes JSON only, so --format csv is refused, not ignored
        code, out, err = run("classify", "--dist", "geometric:a=2", "--format", "csv")
        assert code == 2
        assert out == "" and "invalid choice" in err
        code, out, _ = run("classify", "--dist", "geometric:a=2", "--format", "json")
        assert code == 0 and json.loads(out)["domain"]

    def test_analytic_json(self, run):
        code, out, _ = run("classify", "--dist", "power:lambda=2", "--mode", "analytic")
        assert code == 0
        doc = json.loads(out)
        assert doc["domain"] == "Domain2"
        assert doc["method"] == "Analytic"
        assert doc["citation"]

    def test_numeric_small_schedule(self, run):
        code, out, _ = run("classify", "--dist", "finite:p=0.5;0.5",
                           "--mode", "numeric", "--schedule", "16:1048576:x4")
        assert code == 0
        doc = json.loads(out)
        assert doc["domain"] == "Domain0"
        assert doc["evidence"]

    def test_non_finite_diagnostics_exit_3(self, run):
        # JSON has no infinity: a non-finite diagnostic is a computation error
        code, out, err = run("classify", "--dist", "diffusion:stages=1", "--mode", "numeric",
                             "--schedule", f"16:{10 ** 400}:x1e40")
        assert code == 3
        assert out == "" and "max_upper" in err


class TestEstimate:
    def test_deterministic_rows(self, run):
        args = ("estimate", "--dist", "geometric:a=2", "--n", "200",
                "--v", "1:199", "--seed", "7")
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "v,Z_1v,t_hat"
        assert len(lines) == 200

    def test_negative_seed_exit_2(self, run):
        code, out, err = run("estimate", "--dist", "geometric:a=2",
                             "--n", "10", "--v", "1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_single_v(self, run):
        code, out, _ = run("estimate", "--dist", "finite:p=0.5;0.5",
                           "--n", "10", "--v", "3", "--seed", "1")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 1 and rows[0]["v"] == "3"

    @pytest.mark.parametrize("v", ["abc", "5:3", "1:x", "1:2:3", ":4", "4:", "0", "1:100"])
    def test_bad_v_exit_2(self, run, v):
        code, out, err = run("estimate", "--dist", "geometric:a=2", "--n", "100", "--v", v)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_v_range_checked_before_it_is_built(self, run):
        # two million orders against n = 100 are refused without a list of them
        tracemalloc.start()
        try:
            code, out, err = run("estimate", "--dist", "geometric:a=2", "--n", "100",
                                 "--v", "1:2000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert peak < 4 << 20


class TestDominates:
    def test_schema_and_verdict(self, run):
        code, out, err = run("dominates", "--q", "geometric:a=2",
                             "--p", "congregated:base=(geometric:a=2)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,count_in_interval"
        assert len(lines) == 51
        assert "not_dominated_at_depth" in err

    def test_json_has_verdict(self, run):
        code, out, _ = run("dominates", "--q", "geometric:a=2",
                           "--p", "geometric:a=3", "--format", "json")
        doc = json.loads(out)
        assert doc["verdict"] == "dominated_within"
        assert {"k", "count_in_interval"} == set(doc["records"][0])

    def test_growth_threshold_one_exits_2(self, run):
        code, out, err = run("dominates", "--q", "geometric:a=2", "--p", "geometric:a=2",
                             "--growth-threshold", "1")
        assert (code, out) == (2, "")
        assert "growth_threshold must be at least 2" in err

    def test_depth_past_the_cap_exits_2(self, run):
        # depth 10^9 asked for about 30 GB and was killed; it is refused
        # before the scan allocates anything
        tracemalloc.start()
        try:
            code, out, err = run("dominates", "--q", "geometric:a=2", "--p", "geometric:a=2",
                                 "--depth", "1000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "depth must be at most 1048576" in err
        assert peak < 4 << 20

    def test_finite_p_exit_3(self, run):
        code, _, err = run("dominates", "--q", "geometric:a=2", "--p", "finite:p=0.5;0.5")
        assert code == 3
        assert err.strip()


class TestOscillate:
    def test_schema(self, run):
        code, out, _ = run("oscillate", "--grid", "17")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 17
        assert set(rows[0]) == {"c", "t_of_c"}
        cs = [float(r["c"]) for r in rows]
        assert cs[0] == 1.0 and cs[-1] == pytest.approx(math.e)

    def test_extreme_c_stays_near_one(self, run):
        # the sums stopped short of j = |ln c| and printed 4.2e-14 and 4.2e-13
        code, out, _ = run("oscillate", "--cmin", "1e-100", "--cmax", "1e-99", "--grid", "2",
                           "--format", "json")
        assert code == 0
        assert all(abs(r["t_of_c"] - 1.0) < 1e-3 for r in json.loads(out)["records"])

    def test_default_grid_is_pinned(self, run):
        # every c in [1, e] is summed directly, as before the reduction
        code, out, _ = run("oscillate")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "d3100bb6719837cd228ac988bb74a413f7fbe1aed7815d4f182050251026cbed")

    def test_grid_cap(self, run, monkeypatch):
        # refused before any point is computed, as a schedule is
        def unreachable(c):
            raise AssertionError("oscillation_t was called")

        monkeypatch.setattr(cli, "oscillation_t", unreachable)
        code, out, err = run("oscillate", "--grid", str(MAX_SCHEDULE_POINTS + 1))
        assert (code, out) == (2, "")
        assert f"grid <= {MAX_SCHEDULE_POINTS}" in err


class TestZoo:
    def test_round_trip(self, run):
        code, out, _ = run("zoo")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(catalog())
        for line, spec in zip(lines, catalog()):
            assert parse_spec(line) == spec
            assert format_spec(parse_spec(line)) == line


class TestDomainT:
    def test_default_stages_are_the_familys(self, run):
        code, out, _ = run("domain-t")
        assert code == 0
        assert len(rows_of(out)) == make_distribution(parse_spec("diffusion:")).spec.params["stages"] == 8

    def test_run_table(self, run):
        code, out, _ = run("domain-t", "--stages", "6")
        assert code == 0
        rows = rows_of(out)
        assert [r["i"] for r in rows] == [str(i) for i in range(1, 7)]
        assert set(rows[0]) == {"i", "d_i", "run_exp", "n_i", "t_n_i", "m_i", "t_m_i"}
        # probe indices are exact integers (n_i = 2^run_exp, m_i = 2^back - 1)
        for r in rows:
            assert int(r["n_i"]) == 1 << int(r["run_exp"])
        # growing vs bounded subsequences visible in the table
        tn_vals = [float(r["t_n_i"]) for r in rows]
        tm_vals = [float(r["t_m_i"]) for r in rows]
        assert all(b > a for a, b in zip(tn_vals, tn_vals[1:]))
        assert max(tm_vals) < 4.0

    def test_run_table_equals_single_evaluations(self, run):
        code, out, _ = run("domain-t", "--stages", "8", "--format", "json")
        assert code == 0
        dist = make_distribution(parse_spec("diffusion:stages=8"))
        for r in json.loads(out)["records"]:
            assert r["t_n_i"] == tn(dist, r["n_i"]).value
            assert r["t_m_i"] == tn(dist, r["m_i"]).value

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fourteen_stages(self, run, fmt):
        # n_14 = 2^65651 has 19,763 decimal digits, past what Python prints
        code, out, err = run("domain-t", "--stages", "14", "--format", fmt)
        assert code == 0 and err == ""
        records = rows_of(out) if fmt == "csv" else json.loads(out)["records"]
        dist = make_distribution(parse_spec("diffusion:stages=14"))
        assert len(records) == len(dist.runs) == 14
        for r, want in zip(records, dist.runs):
            for key, n in (("n_i", want.n_probe), ("m_i", want.m_probe)):
                assert probe_index(r[key]) == n
                assert isinstance(r[key], str) == (fmt == "csv" or not decimal_printable(n))
            if fmt == "json":
                assert r["t_n_i"] == tn(dist, want.n_probe).value
                assert r["t_m_i"] == tn(dist, want.m_probe).value
        assert records[-1]["n_i"] == "2^65651" and records[-1]["m_i"] == "2^49265-1"

    def test_classify_fourteen_stages(self, run):
        # the last growing probe is n_12 = 2^16470; the last two stages carry none
        code, out, err = run("classify", "--dist", "diffusion:stages=14", "--mode", "numeric")
        assert code == 0 and err == ""
        assert json.loads(out)["diagnostics"]["probe_growing"][-1][0] == "2^16470"


def decimal_printable(n: int) -> bool:
    try:
        str(n)
    except ValueError:
        return False
    return True


def probe_index(text) -> int:
    """A probe index as written: an int, its decimal digits, 2^e or 2^e-1."""
    if isinstance(text, int):
        return text
    if text.startswith("2^"):
        e, minus, one = text[2:].partition("-")
        assert minus == "" or one == "1"
        return (1 << int(e)) - (1 if minus else 0)
    return int(text)


class TestOutputPlumbing:
    def test_out_file_and_env_dir(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("ALPHATAIL_OUT_DIR", str(tmp_path))
        code, out, _ = run("tn", "--dist", "geometric:a=2",
                           "--schedule", "16:64:x2", "--out", "result.csv")
        assert code == 0 and out == ""
        text = (tmp_path / "result.csv").read_text()
        assert text.splitlines()[0] == "n,t_n,trunc_error"
        assert text.endswith("\n")

    def test_absolute_out_ignores_env(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("ALPHATAIL_OUT_DIR", "/nonexistent-dir")
        target = tmp_path / "direct.csv"
        code, _, _ = run("oscillate", "--grid", "3", "--out", str(target))
        assert code == 0
        assert target.exists()

    def test_unknown_command_exit_2(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_non_finite_records_rejected(self):
        from alphatail import AlphatailError
        from alphatail.cli import _printable
        with pytest.raises(AlphatailError):
            _printable([{"x": float("nan")}])
        with pytest.raises(AlphatailError):
            _printable([{"x": float("inf")}])
        with pytest.raises(AlphatailError):
            _printable({"records": [], "d": {"ev": [(16, 1.0), (64, float("inf"))]}})
        assert _printable([{"x": 1.0, "s": "ok"}]) == [{"x": 1.0, "s": "ok"}]

    def test_ints_too_long_for_decimal_are_exact_text(self):
        from alphatail.cli import _printable
        big = 1 << 20000
        doc = {"records": [{"n": big, "m": big - 1, "k": big + 1, "small": 1 << 100}],
               "ev": [(big, 1.0)]}
        assert _printable(doc) == {
            "records": [{"n": "2^20000", "m": "2^20000-1", "k": hex(big + 1), "small": 1 << 100}],
            "ev": [["2^20000", 1.0]],
        }

    def test_sample_size_cap_exit_3(self, run):
        tracemalloc.start()
        try:
            code, out, err = run("estimate", "--dist", "geometric:a=2",
                                 "--n", "10000000000000", "--seed", "1", "--v", "1:2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert peak < 1 << 20

    def test_computation_error_exit_3(self, run):
        # sampling past a shallow constructed prefix is a computation error
        code, _, err = run("estimate", "--dist", "pairavg:base=(geometric:a=2),depth=2",
                           "--n", "500", "--v", "1", "--seed", "0")
        assert code == 3
        assert err.strip()
