import json

import numpy as np
import pytest

import covfn.estimators
import covfn.sampling
from covfn.cli import (
    load_config,
    load_data_csv,
    run_cli,
    table_to_csv,
    table_to_json,
)
from covfn.errors import IoError, NumericOverflow, ParseError, RaggedRows, UsageError
from covfn.estimators import bias_reduced_estimate
from covfn.experiments import (
    CONFIG_KEYS,
    EXPERIMENTS,
    ExperimentConfig,
    ResultTable,
)
from covfn.functions import get_function
from covfn.sampling import RngStream, _parse_csv_lines


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

    def test_json_strings_escape_control_characters_only(self):
        table = self._table()
        table.meta["note"] = 'tab\there "quoted" \\ sigma \u03c3'
        text = table_to_json(table)
        assert '"tab\\there \\"quoted\\" \\\\ sigma \u03c3"' in text
        import json
        assert json.loads(text)["meta"]["note"] == table.meta["note"]

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

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_as_dict_round_trips_through_a_file(self, tmp_path, experiment):
        cfg = ExperimentConfig(experiment, d=(3,), n=(50, 60), k=(1, 2),
                               fn="log", b="identity", sigma="linspace:1,2",
                               m=7, nchains=9, alpha=0.1, seed=5)
        default = ExperimentConfig(experiment)
        assert all(getattr(cfg, name) != getattr(default, name)
                   for name in CONFIG_KEYS.values() if name != "experiment")
        p = tmp_path / "cfg.txt"
        p.write_text("".join(
            f"{key}={','.join(map(str, v)) if isinstance(v, list) else v}\n"
            for key, v in cfg.as_dict().items()))
        assert load_config(str(p)) == cfg
        p.write_text(f"experiment={experiment}\n")
        assert load_config(str(p)) == default


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
    (["--k", "63"], 1),  # above MAX_K = 62
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


def test_simulate_with_a_rotated_sigma_from_file(tmp_path):
    # the rotated Sigma and B give the diagonal case's <f(Sigma), B> and
    # oracle bias; only the data drawn through the non-diagonal root differ
    q = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))[0]
    files = {}
    for name, diag in (("sigma", [1.0, 2.0, 3.0]), ("B", [1.0, 0.0, 0.0])):
        files[name] = tmp_path / f"{name}.csv"
        np.savetxt(files[name], q @ np.diag(diag) @ q.T, delimiter=",",
                   fmt="%.17g")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("experiment=bias_scaling\nd=3\nn=20,40\nk=0,1,2\n"
                   "fn=square\nM=3\nN=5\nseed=2\n")

    def run(sigma, b, name):
        out = tmp_path / name
        assert run_cli(["simulate", "--config", str(cfg), "--set", f"sigma={sigma}",
                        "--set", f"B={b}", "--out", str(out)]) == 0
        return out.read_bytes()

    rotated = run(f"file:{files['sigma']}", f"file:{files['B']}", "r1.csv")
    assert run(f"file:{files['sigma']}", f"file:{files['B']}", "r2.csv") == rotated
    diagonal = run("diag:1,2,3", "rank1:0", "d.csv")
    oracles = []
    for text in (rotated, diagonal):
        lines = [l for l in text.decode().splitlines() if not l.startswith("#")]
        col = lines[0].split(",").index("bias_oracle")
        oracles.append([float(l.split(",")[col]) for l in lines[1:]])
    assert len(oracles[0]) == 6
    np.testing.assert_allclose(oracles[0], oracles[1], rtol=1e-12, atol=0)


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


@pytest.mark.parametrize("command", ["estimate", "opnorm", "coverage"])
def test_overflowing_eigenvalue_is_a_data_error(tmp_path, capsys, command):
    # every entry is finite, but an eigenvalue (near 3.4e308 and 2e308)
    # is not
    if command == "estimate":
        p = tmp_path / "one.csv"
        p.write_text("1.3e154,1.3e154\n")
        argv = ["estimate", "--data", str(p), "--fn", "square", "--k", "0"]
    else:
        sig = tmp_path / "sigma.csv"
        sig.write_text("1e308,1e308\n1e308,1e308\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"experiment={command}\nd=2\nn=20\nk=1\n"
                       f"sigma=file:{sig}\nM=2\nN=5\n")
        argv = ["simulate", "--config", str(cfg)]
    assert run_cli(argv + ["--out", str(tmp_path / "t.out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: NumericOverflow:"), err
    if command == "estimate":
        assert err[0].startswith("error: NumericOverflow: sample covariance:")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["estimate", "coverage", "bias_scaling"])
def test_overflowing_matrix_is_a_data_error(tmp_path, capsys, command, fmt):
    # near 1e154 the sample covariance is finite but chain states overflow;
    # exp at Sigma's eigenvalue 800 overflows computing the true <f(Sigma), B>
    if command == "estimate":
        rows = 1e154 * np.random.default_rng(7).standard_normal((5, 3))
        p = tmp_path / "huge.csv"
        p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
        argv = ["estimate", "--data", str(p), "--k", "3", "--chains", "200"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"experiment={command}\nd=2\nn=20\nk=1\nfn=exp\n"
                       "sigma=diag:800,1\nM=2\nN=5\n")
        argv = ["simulate", "--config", str(cfg)]
    assert run_cli(argv + ["--format", fmt,
                           "--out", str(tmp_path / "t.out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NumericOverflow:")
    assert "RuntimeWarning" not in err and "Traceback" not in err


@pytest.mark.parametrize("chains", ["1", "20"])
def test_overflowing_chain_combination_is_one_error_line(tmp_path, capsys, chains):
    # square of eigenvalues near 1.12e154 is finite, and so is each chain's
    # combination 2 <f(S_1), B> - <f(S_0), B>, which is summed at a power
    # of two where 2 <f(S_1), B> alone is not; sigma_f is not finite
    z = np.random.default_rng(0).standard_normal((5000, 2))
    rows = z / np.sqrt(np.mean(z**2, axis=0)) * np.sqrt([1.12e154, 1e150])
    p = tmp_path / "big.csv"
    p.write_text("".join(f"{a!r},{b!r}\n" for a, b in rows.tolist()))
    assert run_cli(["estimate", "--data", str(p), "--fn", "square",
                    "--B", "rank1:0", "--k", "1", "--chains", chains,
                    "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: NumericOverflow:"), err


def test_chain_combination_beyond_floating_point_is_summed_scaled(tmp_path,
                                                                 capsys):
    # every chain of identity gives <S_0, B> = tr(S_0) / 3, near 3.5e306,
    # but 4 <S_1, B> - 6 <S_2, B> + 4 <S_3, B> ... is summed past 2^1023
    # term by term; such a row is summed at a power of two and scaled back
    rows = 3e153 * np.random.default_rng(7).standard_normal((5, 3))
    p = tmp_path / "huge.csv"
    p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    out = tmp_path / "rep.json"
    assert run_cli(["estimate", "--data", str(p), "--fn", "identity",
                    "--B", "identity", "--k", "3", "--chains", "200",
                    "--seed", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    obj = json.loads(out.read_text())
    value = dict(zip(obj["columns"], obj["rows"][0]))["functional_value"]
    s0 = covfn.sampling.sample_covariance(load_data_csv(str(p))).entries
    assert value == pytest.approx(np.trace(s0) / 3, rel=1e-12)


def test_estimate_wide_shape_needs_no_more_chains(tmp_path, capsys):
    # log, rank1:0, k = 3 and N = 200 on 200 draws of N(0, diag(2, 1, ...,
    # 1)) in d = 50: with each step's linear term taken at its own state,
    # the Monte Carlo stderr is within 10% of the sampling stderr (it was
    # 0.0103 against 0.0981 with every step's term taken at the start)
    x = np.random.default_rng(3).standard_normal((200, 50))
    x[:, 0] *= np.sqrt(2.0)
    p = tmp_path / "wide.csv"
    np.savetxt(p, x, fmt="%.17g", delimiter=",")
    assert run_cli(["estimate", "--data", str(p), "--fn", "log", "--B",
                    "rank1:0", "--k", "3", "--chains", "200", "--seed", "3",
                    "--out", str(tmp_path / "rep.json")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed, fn, err", [
    # sigma_hat is exactly 0 on smoothstep's plateau: no number of chains
    # can bring the Monte Carlo stderr under 10% of 0, so there is no advice
    (3, "smoothstep:0.5,2,0.5", "warning: the sampling stderr is 0, so the "
     "Monte Carlo stderr 0.0459 is the estimate's only error\n"),
    # sigma_hat at the rounding level: the count shows it is out of reach
    (26, "smoothstep:0.5,2,0.5", "warning: Monte Carlo stderr 0.0534 exceeds "
     "10% of the sampling stderr 3.72e-18; by the 1/sqrt(N) law that takes "
     "--chains 4.12e+36\n"),
    # 5 chains give 0.143; 105 would give about 0.0313 by the 1/sqrt(N) law
    (3, "log --B rank1:0 --k 3 --chains 5", "warning: Monte Carlo stderr "
     "0.143 exceeds 10% of the sampling stderr 0.313; by the 1/sqrt(N) law "
     "that takes --chains 105\n"),
])
def test_the_chains_warning_names_the_count_the_target_takes(
        tmp_path, capsys, seed, fn, err):
    p = tmp_path / "x.csv"
    np.savetxt(p, np.random.default_rng(seed).standard_normal((20, 2)),
               delimiter=",")
    assert run_cli(["estimate", "--data", str(p), "--B", "identity", "--k",
                    "2", "--chains", "200", "--fn", *fn.split(),
                    "--out", str(tmp_path / "rep.json")]) == 0
    assert capsys.readouterr().err == err


def test_overflow_errors_name_their_stage(tmp_path, capsys):
    # the sample covariance, a chain state and f at the true Sigma each
    # overflow here; the one SymMat check reports each under its stage
    big = tmp_path / "big.csv"
    big.write_text("1e200,1\n2,3\n1,1\n")
    rows = 1e154 * np.random.default_rng(7).standard_normal((5, 3))
    huge = tmp_path / "huge.csv"
    huge.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("experiment=coverage\nd=2\nn=20\nk=1\nfn=exp\n"
                   "sigma=diag:800,1\nM=2\nN=5\n")
    out = ["--out", str(tmp_path / "t.out")]
    errs = []
    for argv, stage in ((["estimate", "--data", str(big)], "sample covariance"),
                        (["estimate", "--data", str(huge), "--k", "3",
                          "--chains", "200"], "chain state"),
                        (["simulate", "--config", str(cfg)], "f at the true Sigma")):
        assert run_cli(argv + out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: NumericOverflow: {stage}:"), err
        errs.append(err)
    assert len(set(errs)) == 3


_HUGE_SIGMA = {"diag": "1.5e308,0\n0,1.5e308\n",
               "full": "1e308,1e308\n1e308,1e308\n"}


@pytest.mark.parametrize("command, sigma, line", [
    ("opnorm", "diag", "sample covariance: a matrix overflows"),
    ("opnorm", "full", "true Sigma: an eigenvalue overflows"),
    ("coverage", "full", "true Sigma: an eigenvalue overflows"),
    ("coverage", "rank1vec:1e200,1", "true Sigma: a matrix overflows"),
    ("quadform", "full", "true Sigma: an eigenvalue overflows"),
])
def test_simulate_set_up_overflow_names_its_stage(tmp_path, capsys, command,
                                                  sigma, line):
    if sigma in _HUGE_SIGMA:
        (tmp_path / "sigma.csv").write_text(_HUGE_SIGMA[sigma])
        sigma = f"file:{tmp_path / 'sigma.csv'}"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"experiment={command}\nd=2\nn=20\nk=1\nsigma={sigma}\n"
                   "M=2\nN=5\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.out")]) == 2
    assert capsys.readouterr().err == (
        f"error: NumericOverflow: {line} floating point; rescale the data\n")


def test_opnorm_of_a_sigma_whose_trace_overflows_matches_the_identity(tmp_path):
    # eff_rank and ratio are scale-free: at Sigma = 1e308 I they must read
    # as at Sigma = I, not inf and 0
    (tmp_path / "sigma.csv").write_text("1e308,0\n0,1e308\n")
    rows = []
    for sigma in (f"file:{tmp_path / 'sigma.csv'}", "identity"):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"experiment=opnorm\nd=2\nn=1\nM=1\nseed=0\nsigma={sigma}\n")
        out = tmp_path / "t.json"
        assert run_cli(["simulate", "--config", str(cfg), "--format", "json",
                        "--out", str(out)]) == 0
        rows.append(json.loads(out.read_text())["rows"][0])
    (*_, err, r_eff, ratio), (*_, err_id, r_eff_id, ratio_id) = rows
    assert err == pytest.approx(1e308 * err_id, rel=1e-12)
    assert r_eff == r_eff_id == 2
    assert ratio == pytest.approx(ratio_id, rel=1e-12) and ratio > 0


def test_opnorm_error_beyond_floating_point_is_a_data_error(tmp_path, capsys):
    # at seed 29 the sample covariance is finite, but its distance to
    # Sigma = 1e308 I has an eigenvalue beyond floating point
    (tmp_path / "sigma.csv").write_text("1e308,0,0\n0,1e308,0\n0,0,1e308\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("experiment=opnorm\nd=3\nn=1\nM=1\nseed=29\n"
                   f"sigma=file:{tmp_path / 'sigma.csv'}\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.out")]) == 2
    assert capsys.readouterr().err == (
        "error: NumericOverflow: operator-norm error: an eigenvalue overflows "
        "floating point; rescale the data\n")


def test_quadform_weights_beyond_floating_point_are_a_data_error(tmp_path,
                                                                 capsys):
    # Sigma^{1/2} B Sigma^{1/2} has the entry 1e100 * 1e200 * 1e100
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("experiment=quadform\nd=2\nM=1\nsigma=diag:1e200,1\n"
                   "B=diag:1e200,1\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.out")]) == 2
    assert capsys.readouterr().err == (
        "error: NumericOverflow: quadratic-form weights: a matrix overflows "
        "floating point; rescale the data\n")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_overflowing_chain_state_is_one_line_in_any_number_of_blocks(
        tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(covfn.sampling, "_WORKERS", workers)
    monkeypatch.setattr(covfn.sampling, "BLOCK_WORK", 1)  # 200 chains, d = 3
    rows = 1e154 * np.random.default_rng(7).standard_normal((5, 3))
    p = tmp_path / "huge.csv"
    p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    assert run_cli(["estimate", "--data", str(p), "--k", "3", "--chains", "200",
                    "--out", str(tmp_path / "t.out")]) == 2
    assert capsys.readouterr().err == (
        "error: NumericOverflow: chain state: a matrix overflows floating point; "
        "rescale the data\n")


def test_library_callers_see_numpys_warning_then_the_stage(tmp_path):
    # only run_cli silences numpy's overflow warnings; the library raises
    # the same one NumericOverflow after numpy has warned
    p = tmp_path / "big.csv"
    p.write_text("1e200,1\n2,3\n1,1\n")
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericOverflow, match="^sample covariance:"):
            bias_reduced_estimate(load_data_csv(str(p)), get_function("identity"),
                                  np.eye(2) / 2, 0, 1, RngStream(0))


@pytest.mark.parametrize("command", ["estimate", "bias_scaling"])
@pytest.mark.parametrize("b", ["rank1vec:1e154,1e154", "file", "rank1vec:1e200,1"])
def test_b_whose_nuclear_norm_overflows_is_a_data_error(tmp_path, capsys,
                                                       command, b):
    # every entry of B is finite but its nuclear norm, or the outer product
    # itself, is not; scaling by 1/inf used to turn B into the zero matrix
    if b == "file":
        bfile = tmp_path / "b.csv"
        bfile.write_text("1e308,1e308\n1e308,1e308\n")
        b = f"file:{bfile}"
    if command == "estimate":
        p = tmp_path / "x.csv"
        p.write_text("1,2\n3,4.5\n-1,0.5\n")
        argv = ["estimate", "--data", str(p), "--B", b]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"experiment=bias_scaling\nd=2\nn=20\nk=1\nB={b}\n"
                       "M=2\nN=5\n")
        argv = ["simulate", "--config", str(cfg)]
    assert run_cli(argv + ["--out", str(tmp_path / "t.out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NumericOverflow:")
    assert "RuntimeWarning" not in err and "Traceback" not in err


def test_cli_imports_no_scipy():
    import os
    import subprocess
    import sys

    import covfn

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(covfn.__file__)))
    code = ("import sys, covfn.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_starts_no_thread_pool():
    # concurrent.futures imports logging, which setup time would pay for;
    # the chain step's pool is made on first use
    import os
    import subprocess
    import sys

    import covfn

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(covfn.__file__)))
    code = ("import sys, threading, covfn.cli; "
            "print('concurrent.futures' in sys.modules, threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "1"]


def test_bias_scaling_has_an_oracle_past_order_20(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("experiment=bias_scaling\nd=2\nn=20\nk=21\nfn=square\n"
                   "M=2\nN=5\n")
    out = tmp_path / "t.json"
    assert run_cli(["simulate", "--config", str(cfg), "--format", "json",
                    "--out", str(out)]) == 0
    import json
    obj = json.loads(out.read_text())
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert row["k"] == 21
    assert isinstance(row["bias_oracle"], float) and np.isfinite(row["bias_oracle"])


def test_json_output_with_a_control_character_parses(tmp_path):
    # float("\t0.5") parses, so the spec is valid; the tab must be escaped
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_COVERAGE_CFG + "fn=power:\t0.5\n")
    out = tmp_path / "t.json"
    assert run_cli(["simulate", "--config", str(cfg), "--format", "json",
                    "--out", str(out)]) == 0
    import json
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["meta"]["config"]["fn"] == "power:\t0.5"


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


@pytest.mark.parametrize("k", [0, 1, 2])
def test_smoothstep_at_a_tiny_scale_is_zero(tmp_path, capsys, k):
    # S near 1e-300: every eigenvalue lies where smoothstep and its
    # derivative are exactly 0, so sigma_f, each linear term and the estimate
    # are 0, not 0/0
    rows = 1e-150 * np.random.default_rng(5).standard_normal((30, 3))
    p = tmp_path / "tiny.csv"
    p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    out = tmp_path / "rep.json"
    assert run_cli(["estimate", "--data", str(p), "--fn", "smoothstep:0.5,2,0.5",
                    "--k", str(k), "--chains", "20", "--out", str(out)]) == 0
    import json
    obj = json.loads(out.read_text())
    row = dict(zip(obj["columns"], obj["rows"][0]))
    for key in ("functional_value", "mc_stderr", "sigma_hat", "ci_lo", "ci_hi"):
        assert row[key] == 0.0, key
    assert capsys.readouterr().err == ""


def test_linear_term_beyond_floating_point_still_gives_a_finite_estimate(
        tmp_path, capsys):
    # cube at eigenvalues near 4.1e102 with B = I/4: <f(S_i), B>, about
    # 6.9e307, and sigma_f are finite, but <S_0, D_0> = 3 <f(S_0), B> is not;
    # the linear term is taken with D_0 scaled by a power of two
    z = np.random.default_rng(0).standard_normal((5000, 4))
    rows = z / np.sqrt(np.mean(z**2, axis=0)) * np.sqrt(4.1e102)
    p = tmp_path / "big.csv"
    p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    out = tmp_path / "rep.json"
    assert run_cli(["estimate", "--data", str(p), "--fn", "power:3", "--k", "1",
                    "--chains", "20", "--out", str(out)]) == 0
    import json
    obj = json.loads(out.read_text())
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert 6e307 < row["functional_value"] < 8e307
    assert row["mc_stderr"] > 0 and np.isfinite(row["mc_stderr"])
    # sigma_hat is near 1.5e308, so z * sigma_hat alone would overflow
    assert np.isfinite(row["ci_lo"]) and np.isfinite(row["ci_hi"])
    assert capsys.readouterr().err == ""


def test_linear_term_beyond_floating_point_still_gives_a_finite_cube(
        tmp_path, capsys):
    # the data above, with cube: every <f(S_i), B> and <S_i, D_0> is taken
    # from the state, scaled by a power of two, and agrees with power:3,
    # which reads them off eigenpairs
    z = np.random.default_rng(0).standard_normal((5000, 4))
    rows = z / np.sqrt(np.mean(z**2, axis=0)) * np.sqrt(4.1e102)
    p = tmp_path / "big.csv"
    p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    import json
    got = {}
    for fn in ("cube", "power:3"):
        out = tmp_path / f"{fn}.json"
        assert run_cli(["estimate", "--data", str(p), "--fn", fn, "--k", "1",
                        "--chains", "20", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        got[fn] = dict(zip(obj["columns"], obj["rows"][0]))
    assert capsys.readouterr().err == ""
    cube = got["cube"]
    assert 6e307 < cube["functional_value"] < 8e307
    assert np.isfinite(cube["ci_lo"]) and np.isfinite(cube["ci_hi"])
    # the two paths round each chain's terms differently, so their
    # mc_stderr, now near 5e-6 of the value, agree to rounding of the value
    for key in ("functional_value", "mc_stderr"):
        assert cube[key] == pytest.approx(
            got["power:3"][key], rel=1e-12,
            abs=1e-15 * cube["functional_value"]), key


@pytest.mark.parametrize("k, stage", [("0", "sigma_f of 'power'"),
                                      ("1", "linear term:")])
def test_derivative_beyond_floating_point_is_a_data_error(tmp_path, capsys,
                                                         k, stage):
    # power:-1 at eigenvalues near 1e-160 is finite, but its derivative,
    # about -1e320, and so D_0 and sigma_f are not
    rows = 1e-80 * np.random.default_rng(3).standard_normal((200, 2))
    p = tmp_path / "tiny.csv"
    p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    assert run_cli(["estimate", "--data", str(p), "--fn", "power:-1", "--k", k,
                    "--chains", "20", "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: NumericOverflow: {stage}"), err


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
    p.write_text("1.4142135623730951,0\n0,0.00014142135623730952\n")
    assert run_cli(["estimate", "--data", str(p), "--fn", "log", "--k", "1",
                    "--chains", "200", "--seed", "2",
                    "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError: 1 of 200 chains left"), err


@pytest.mark.parametrize("k", [0, 2])
def test_singular_sample_covariance_fails_before_any_chain_is_drawn(
        tmp_path, capsys, monkeypatch, k):
    def no_chains(*args):
        raise AssertionError("chains drawn")

    monkeypatch.setattr(covfn.estimators, "chain_states", no_chains)
    p = tmp_path / "singular.csv"
    p.write_text("1,2\n2,4\n")
    assert run_cli(["estimate", "--data", str(p), "--fn", "log", "--k", str(k),
                    "--out", str(tmp_path / "rep.json")]) == 2
    assert capsys.readouterr().err == (
        "error: DomainError: 1 of 2 eigenvalues of the sample covariance left "
        "the domain (0.0, inf) of 'log'\n")


@pytest.mark.parametrize("command, flag", [("estimate", "--data"),
                                           ("simulate", "--config")])
@pytest.mark.parametrize("failure", ["missing_out_dir", "non_utf8_input"])
def test_io_failure_is_a_data_error(data_csv, tmp_path, capsys, command, flag,
                                    failure):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_COVERAGE_CFG)
    inp = data_csv if command == "estimate" else str(cfg)
    out = tmp_path / "t.out"
    if failure == "missing_out_dir":
        out = tmp_path / "missing" / "t.out"
    else:
        inp = tmp_path / "bad.txt"
        inp.write_bytes(b"experiment=coverage\n1,2\xff\n")
    assert run_cli([command, flag, str(inp), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: IoError: cannot ")


@pytest.mark.parametrize("sigma", ["diag:1,1,0", "diag:0,0,0"])
def test_coverage_with_zero_sigma_f_is_a_data_error(tmp_path, capsys, sigma):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_COVERAGE_CFG + f"B=rank1:2\nsigma={sigma}\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ZeroMatrix: sigma_f(Sigma; B) is 0")
