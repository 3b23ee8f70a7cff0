import numpy as np
import pytest

import covfn.sampling
from covfn.cli import (
    load_config,
    load_data_csv,
    run_cli,
    table_to_csv,
    table_to_json,
)
from covfn.errors import IoError, ParseError, RaggedRows, UsageError
from covfn.experiments import ResultTable
from covfn.sampling import _parse_csv_lines


class TestLoadDataCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,0\n0,1\n")
        x = load_data_csv(str(p))
        np.testing.assert_array_equal(x.rows, [[1.0, 0.0], [0.0, 1.0]])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("x1,x2\n1,2\n")
        x = load_data_csv(str(p), has_header=True)
        np.testing.assert_array_equal(x.rows, [[1.0, 2.0]])

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(RaggedRows) as err:
            load_data_csv(str(p))
        assert err.value.line == 2

    def test_parse_error_location(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError) as err:
            load_data_csv(str(p))
        assert (err.value.line, err.value.column) == (2, 2)

    def test_missing_file(self):
        with pytest.raises(IoError):
            load_data_csv("/nonexistent/file.csv")

    @pytest.mark.filterwarnings("error")  # loadtxt's "no data" warning too
    @pytest.mark.parametrize("text, has_header", [
        ("1,2\n3,4\n", False),
        ("1,2\n\n3,4\n", False),
        ("1,2\n   \n3,4\n", False),
        ("1_0,2\n3,4\n", False),
        ("1,2\n3\n", False),
        ("1,2\n3,4,5\n", False),
        ("\ufeff1,2\n3,4\n", False),
        ("x1,x2\n1,2\n", True),
        ("\ufeffx1,x2\n\n1,2\n", True),
        ("x1,x2\n", True),
        ("", False),
        (" 1 , 2\n3,\t4\n", False),
        ("1,nan\n", False),
        ("1,1e400\n", False),
        ("1,2\n3,oops\n", False),
        ("4.9e-324,1e-320\n-0.0,1\n", False),
    ])
    def test_matches_the_cell_loop(self, tmp_path, text, has_header):
        # the C fast path and the cell loop give the same bits or the same
        # error, with its line and column
        p = tmp_path / "x.csv"
        p.write_text(text, encoding="utf-8")
        lines = text.lstrip("\ufeff").splitlines()
        try:
            want = _parse_csv_lines(lines, int(has_header))
        except (ParseError, RaggedRows) as exc:
            with pytest.raises(type(exc)) as err:
                load_data_csv(str(p), has_header)
            assert str(err.value) == str(exc)
            return
        got = load_data_csv(str(p), has_header).rows
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_well_formed_file_skips_the_cell_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((300, 5)) * 10.0 ** rng.uniform(-300, 300, (300, 5))
        p = tmp_path / "x.csv"
        p.write_text("\n".join(",".join(repr(float(v)) for v in row)
                               for row in x) + "\n")
        monkeypatch.setattr(covfn.sampling, "_parse_csv_lines", None)
        assert load_data_csv(str(p)).rows.tobytes() == x.tobytes()


class TestSerialization:
    def _table(self):
        return ResultTable(
            columns=("a", "b"),
            rows=((1, 0.05), (2, 1.0 / 3.0)),
            meta={"tool": "covfn", "version": "0.1.0", "seed": 5,
                  "config": {"x": 1}},
        )

    def test_csv_layout(self):
        text = table_to_csv(self._table())
        lines = text.splitlines()
        assert lines[0].startswith("# covfn ") and lines[0].endswith("seed=5")
        assert lines[-3] == "a,b"
        assert lines[-2] == "1,0.050000000000000003"

    def test_json_matches_csv_numbers(self):
        text = table_to_json(self._table())
        assert "0.050000000000000003" in text
        assert "0.33333333333333331" in text

    def test_round_trip_17_digits(self):
        import json
        text = table_to_json(self._table())
        obj = json.loads(text)
        assert obj["rows"][1][1] == 1.0 / 3.0


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# a comment\nexperiment=opnorm\nd=5,20\nn=100\nseed=3\n")
        cfg = load_config(str(p))
        assert cfg.experiment == "opnorm"
        assert cfg.d == (5, 20)
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("experiment=opnorm\nbogus=1\n")
        with pytest.raises(UsageError):
            load_config(str(p))

    def test_overrides_win(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("experiment=opnorm\nseed=3\n")
        cfg = load_config(str(p), {"seed": "9"})
        assert cfg.seed == 9


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((40, 3))
    p = tmp_path / "data.csv"
    p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    return str(p)


class TestRunCli:
    def test_estimate_identity_rank1(self, data_csv, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run_cli(["estimate", "--data", data_csv, "--fn", "identity",
                        "--B", "rank1:0", "--seed", "7",
                        "--out", str(out)])
        assert code == 0
        x = load_data_csv(data_csv)
        expected = float(x.rows[:, 0] @ x.rows[:, 0] / x.n)
        import json
        obj = json.loads(out.read_text())
        got = obj["rows"][0][obj["columns"].index("functional_value")]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_domain_error_exit_code(self, tmp_path):
        # 2 observations in dimension 3: singular covariance, log undefined
        p = tmp_path / "singular.csv"
        p.write_text("1,0,0\n0,1,0\n")
        code = run_cli(["estimate", "--data", str(p), "--fn", "log"])
        assert code == 2

    def test_usage_error_exit_code(self):
        assert run_cli(["estimate"]) == 1
        assert run_cli(["bogus-subcommand"]) == 1
        assert run_cli(["estimate", "--data", "x.csv", "--unknown-flag"]) == 1

    def test_byte_identical_reruns(self, data_csv, tmp_path):
        args = ["estimate", "--data", data_csv, "--fn", "square",
                "--B", "identity", "--k", "1", "--chains", "50",
                "--seed", "11", "--format", "csv"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, data_csv, tmp_path):
        base = ["estimate", "--data", data_csv, "--fn", "square",
                "--B", "identity", "--k", "1", "--chains", "50",
                "--format", "csv"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(base + ["--seed", "1", "--out", str(out1)]) == 0
        assert run_cli(base + ["--seed", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_simulate_csv(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("experiment=opnorm\nd=4\nn=50\nM=10\nsigma=identity\nseed=2\n")
        out = tmp_path / "table.csv"
        assert run_cli(["simulate", "--config", str(cfg),
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# covfn ")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx].split(",")[0] == "d"

    def test_simulate_set_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("experiment=opnorm\nd=4\nn=50\nM=5\nseed=2\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["simulate", "--config", str(cfg), "--out", str(out1)])
        run_cli(["simulate", "--config", str(cfg), "--set", "seed=3",
                 "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_b_from_file_normalized(self, data_csv, tmp_path):
        bfile = tmp_path / "B.csv"
        bfile.write_text("2,0,0\n0,2,0\n0,0,2\n")
        out = tmp_path / "rep.json"
        assert run_cli(["estimate", "--data", data_csv, "--fn", "identity",
                        "--B", f"file:{bfile}", "--out", str(out)]) == 0
        import json
        obj = json.loads(out.read_text())
        factor = obj["rows"][0][obj["columns"].index("b_normalization")]
        assert factor == pytest.approx(1.0 / 6.0)


@pytest.mark.parametrize("extra, code", [
    (["--k", "-1"], 1),
    (["--k", "1", "--chains", "0"], 1),
    (["--k", "2", "--chains", "-5"], 1),
    (["--k", "0", "--chains", "0"], 0),  # --chains is ignored for k=0
    (["--fn", "smoothstep:1,2,-1"], 2),
    (["--B", "rank1vec:1,a,2"], 1),
    (["--k", "63"], 1),  # chain weights overflow 64 bits past k = 62
    (["--alpha", "2"], 1),
    (["--alpha", "0"], 1),
    (["--alpha", "1"], 1),
    (["--alpha", "nan"], 1),
    (["--k", "1", "--alpha", "-0.5"], 1),
    (["--data", "/nonexistent/data.csv", "--alpha", "1.5"], 1),  # checked first
])
def test_estimate_argument_exit_codes(data_csv, tmp_path, extra, code):
    argv = ["estimate", "--data", data_csv, "--out", str(tmp_path / "rep.json")]
    assert run_cli(argv + extra) == code


@pytest.mark.parametrize("k", ["0", "1"])
def test_all_zero_data_has_zero_identity_functional(tmp_path, k):
    p = tmp_path / "zeros.csv"
    p.write_text("0,0,0\n" * 10)
    out = tmp_path / "rep.json"
    assert run_cli(["estimate", "--data", str(p), "--fn", "identity",
                    "--k", k, "--chains", "20", "--out", str(out)]) == 0
    import json
    obj = json.loads(out.read_text())
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert row["functional_value"] == 0.0 and row["sigma_hat"] == 0.0


def test_b_file_of_identity_matches_identity_spec(data_csv, tmp_path):
    bfile = tmp_path / "I.csv"
    bfile.write_text("1,0,0\n0,1,0\n0,0,1\n")
    base = ["estimate", "--data", data_csv, "--fn", "log", "--k", "1",
            "--chains", "20", "--seed", "3", "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(base + ["--B", "identity", "--out", str(out1)]) == 0
    assert run_cli(base + ["--B", f"file:{bfile}", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


_COVERAGE_CFG = ("experiment=coverage\nd=3\nn=60\nk=1\nfn=square\nM=3\nN=5\n"
                 "sigma=linspace:1,2\nseed=4\n")


@pytest.mark.parametrize("line", [
    "sigma=linspace:1",
    "B=rank1vec:1,a,2",
    "experiment=bias_scaling\nd=3,4",
    "experiment=quadform\nd=3,4",
    "k=-1",
    "k=63",
    "n=0",
    "d=0\nB=identity",
    "alpha=1.5",
    "alpha=0",
    "alpha=nan",
    "experiment=opnorm\nalpha=-1",
])
def test_simulate_bad_config_is_usage_error(tmp_path, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_COVERAGE_CFG + line + "\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")]) == 1


def test_simulate_b_from_file(tmp_path):
    bfile = tmp_path / "I.csv"
    bfile.write_text("1,0,0\n0,1,0\n0,0,1\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_COVERAGE_CFG)
    rows = []
    for b in ("identity", f"file:{bfile}"):
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--set", f"B={b}",
                        "--out", str(out)]) == 0
        rows.append([l for l in out.read_text().splitlines()
                     if not l.startswith("#")])
    assert rows[0] == rows[1] and len(rows[0]) == 2


@pytest.mark.parametrize("k", ["0", "1"])
def test_overflowing_function_is_a_data_error(tmp_path, capsys, k):
    # exp of eigenvalues of order 1e6 is beyond floating point
    p = tmp_path / "big.csv"
    p.write_text("1000,0\n0,2000\n-1000,10\n")
    assert run_cli(["estimate", "--data", str(p), "--fn", "exp", "--k", k,
                    "--chains", "20", "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NumericOverflow:") and "'exp'" in err


def test_overflowing_data_is_a_data_error(tmp_path, capsys):
    p = tmp_path / "huge.csv"
    p.write_text("1e200,1\n2,3\n1,1\n")
    assert run_cli(["estimate", "--data", str(p),
                    "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NumericOverflow:") and "overflow" in err
    assert "Traceback" not in err


def test_data_whose_second_moments_overflow_gives_finite_output(tmp_path, capsys):
    # sigma_hat and mc_stderr are near 1e200; their squared terms are not
    # representable, so they are taken over scaled entries
    p = tmp_path / "big.csv"
    p.write_text("1e50,0\n0,2e50\n-1e50,1e49\n")
    out = tmp_path / "rep.json"
    assert run_cli(["estimate", "--data", str(p), "--fn", "square", "--k", "1",
                    "--chains", "20", "--out", str(out)]) == 0
    import json
    obj = json.loads(out.read_text())
    row = dict(zip(obj["columns"], obj["rows"][0]))
    for key in ("functional_value", "mc_stderr", "sigma_hat", "ci_lo", "ci_hi"):
        assert isinstance(row[key], float) and np.isfinite(row[key]), key
    assert row["sigma_hat"] > 1e199
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_sigma_hat_beyond_floating_point_is_a_data_error(tmp_path, capsys):
    # exp at eigenvalues near 705 is finite, but sigma_f, about
    # sqrt(2) * 705 * exp(705), is not
    p = tmp_path / "big.csv"
    p.write_text("37.55,0\n0,37.55\n")
    assert run_cli(["estimate", "--data", str(p), "--fn", "exp",
                    "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NumericOverflow: sigma_f of 'exp'")


def test_byte_order_mark_csv_gives_identical_output(data_csv, tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "data.csv").read_bytes())
    base = ["estimate", "--fn", "log", "--k", "1", "--chains", "20",
            "--seed", "3", "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(base + ["--data", data_csv, "--out", str(out1)]) == 0
    assert run_cli(base + ["--data", str(bom), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_config_with_byte_order_mark_runs(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("\ufeff" + _COVERAGE_CFG, encoding="utf-8")
    out = tmp_path / "t.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-2].startswith("d,n,k,M,coverage")


@pytest.mark.parametrize("k, kind, chains", [("0", "plugin", 0),
                                             ("1", "bias_reduced", 20)])
def test_estimator_kind_follows_k(data_csv, tmp_path, k, kind, chains):
    out = tmp_path / "rep.json"
    assert run_cli(["estimate", "--data", data_csv, "--k", k, "--chains", "20",
                    "--out", str(out)]) == 0
    import json
    obj = json.loads(out.read_text())
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert (row["estimator_kind"], row["chains"]) == (kind, chains)
    assert obj["meta"]["config"]["estimator"] == kind
    assert "failed_chains" not in row


def test_chain_leaving_the_domain_is_a_data_error(tmp_path, capsys):
    p = tmp_path / "near_singular.csv"
    p.write_text("1.4142135623730951,0\n0,0.0014142135623730952\n")
    assert run_cli(["estimate", "--data", str(p), "--fn", "log", "--k", "1",
                    "--chains", "200", "--seed", "2",
                    "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError:") and "of 200 chains" in err
