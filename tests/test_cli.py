"""Command-line interface: output formats, exit codes, determinism."""

import csv
import hashlib
import io
import json

import pytest

import mlmc_euler as me
from mlmc_euler import cli
from mlmc_euler.paths import EulerDivergedError

BS_CALL_100 = 10.986396449700798
# sha256 of the stdout of `estimate --n 64 --seed 0`
ESTIMATE_N64_SEED0_SHA256 = "dec761fcecaeb20e71f13bbc204417ae0c23ff58eb1611d301c4b7b4af98f441"
# sha256 of the stdout of each replicated experiment at `--seed 0 --threads 2`;
# they pin the replication keys and streams
REPLICATED_VERIFY_SHA256 = {
    "verify clt --n 16 --replications 20": (
        "ad33343d5bc64cba7735ed5847eaa06082ab63973679bc9e90b2a536b20ad12c"
    ),
    "verify coverage --n 16 --replications 20": (
        "e5c7c22900836d368c6f859f62972ee43d044d5332002af406a3d6dc20bd51b3"
    ),
    "verify berry-esseen --n-list 16,32": (
        "88bb8a7a9a3bc094fd98bba2580eecd3299a544bb51fbc33d940e574fcc2f7e4"
    ),
}

# sha256 of the stdout of `limit-var` with these flags, at any --threads;
# 64 grid steps are one step block, 130 are blocks of 64, 64 and 2 steps
LIMIT_VAR_SHA256 = {
    "--samples 2000 --grid-steps 64 --seed 1": (
        "4d2413a0a44897b78eec0d429346f8fb5290acf91e48cb4584a04308093ba896"
    ),
    "--samples 2000 --grid-steps 130 --seed 1": (
        "830b845b6a6ee7705da5b978a22db884761b70cb28a8abaa060b917d25c8eeff"
    ),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- plan


def test_plan_prints_table_and_json(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "16", "--m", "2", "--alpha", "1")
    assert code == 0
    assert "level  samples  fine_steps  coarse_steps" in out
    assert "total cost (Euler sub-steps): 7922" in out
    payload = json.loads(out[out.index("{") :])
    assert payload["sample_sizes"] == [1778, 512, 256, 128, 64]
    assert payload["total_cost"] == 7922
    assert payload["allocator"] == "bak"


def test_plan_giles_allocator(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--n", "16", "--allocator", "giles", "--c2", "1"
    )
    assert code == 0
    payload = json.loads(out[out.index("{") :])
    assert payload["sample_sizes"] == [2560, 1280, 640, 320, 160]
    assert payload["total_cost"] == 17920


def test_plan_records_only_its_allocators_parameters(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "16", "--allocator", "giles", "--c2", "7")
    assert code == 0
    payload = json.loads(out[out.index("{") :])
    assert payload["c2"] == 7.0
    assert "beta0" not in payload and "weights" not in payload
    code, out, _ = run_cli(capsys, "plan", "--n", "16")
    payload = json.loads(out[out.index("{") :])
    assert payload["beta0"] == 1.9 and payload["weights"] == [1.0] * 4
    assert "c2" not in payload


def test_plan_rejects_non_power_with_exit_2(capsys):
    code, out, err = run_cli(capsys, "plan", "--n", "15")
    assert code == 2
    assert out == ""
    assert "power of m" in err


# ------------------------------------------------------------- estimate


def test_estimate_zero_vol_is_exact_json(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--vol", "0", "--mu", "0", "--n", "16", "--seed", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == 1.0
    assert payload["standard_error"] == 0.0
    assert payload["confidence_interval"] == [1.0, 1.0]
    assert payload["total_cost"] == 7922
    assert len(payload["levels"]) == 5


def test_estimate_call_interval_brackets_analytic_price(capsys):
    code, out, _ = run_cli(
        capsys,
        *(
            "estimate --x0 100 --mu 0.05 --vol 0.2 "
            "--payoff call --strike 100 --n 64 --m 4 --seed 0"
        ).split(),
    )
    assert code == 0
    payload = json.loads(out)
    lo, hi = payload["confidence_interval"]
    assert lo < BS_CALL_100 < hi


def test_estimate_csv_emits_level_table(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--vol", "0.2", "--mu", "0.05", "--n", "8", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["level", "count", "mean", "variance", "third_abs_moment", "cost"]
    assert len(rows) == 5  # header + levels 0..3
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]


def test_estimate_stdout_bytes_are_pinned(capsys):
    # every simulated number, its layout in memory and the output format
    # feed these bytes; a change to any of them must re-pin on purpose
    code, out, _ = run_cli(capsys, "estimate", "--n", "64", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ESTIMATE_N64_SEED0_SHA256


def test_estimate_call_requires_strike(capsys):
    code, _, err = run_cli(capsys, "estimate", "--payoff", "call", "--n", "8")
    assert code == 2
    assert "strike" in err


def test_estimate_strike_requires_call_payoff(capsys):
    code, out, err = run_cli(capsys, "estimate", "--n", "4", "--strike", "1")
    assert code == 2
    assert out == ""
    assert "--strike" in err


def test_estimate_rejects_unknown_ci_method(capsys):
    code, _, _ = run_cli(capsys, "estimate", "--n", "8", "--ci-method", "bayes")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "estimate --n 512 --confidence 1.5",
        "verify coverage --n 16 --replications 20 --confidence 1.5",
    ],
)
def test_bad_confidence_exits_2_before_any_path_is_drawn(capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before checking --confidence")

    monkeypatch.setattr(me.estimator, "_run_tasks", no_run)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "confidence" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        ("limit-var --samples 10 --grid-steps 4 --vol nan", "vol"),
        ("limit-var --samples 10 --grid-steps 4 --mu inf", "mu"),
        ("estimate --n 4 --vol nan", "vol"),
        ("estimate --n 4 --x0 inf", "x0"),
        ("estimate --n 4 --T inf", "horizon"),
    ],
)
def test_non_finite_model_flags_exit_2_naming_the_parameter(capsys, argv, name):
    # a NaN or inf parameter would reach the simulation: limit-var would
    # print "variance": NaN, which is not JSON, and estimate would exit 3
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "%s must be finite" % name in err


def test_estimate_divergence_maps_to_exit_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise EulerDivergedError(step_index=5, path_index=3, level=2)

    monkeypatch.setattr(cli, "estimate", explode)
    code, out, err = run_cli(capsys, "estimate", "--n", "8", "--vol", "0.2")
    assert code == 3
    assert out == ""
    assert "step 5" in err and "path 3" in err and "level 2" in err


@pytest.mark.filterwarnings("ignore:overflow")
def test_estimate_real_divergence_exits_3(capsys):
    # drift large enough that the squared state leaves the float range
    code, out, err = run_cli(capsys, "estimate", "--mu", "1e308", "--n", "16")
    assert code == 3
    assert out == ""
    assert "diverged" in err


def test_truth_flag_required_when_no_closed_form(capsys):
    # exp(mu T) overflows, so no analytic reference exists for the truth
    for command in (
        ("verify", "clt", "--n", "16", "--replications", "5"),
        ("verify", "coverage", "--n", "16", "--replications", "5"),
        ("benchmark", "--n-list", "4", "--replications", "2"),
    ):
        code, out, err = run_cli(capsys, *command, "--mu", "1e308")
        assert code == 2, command
        assert out == ""
        assert "--truth" in err


def test_estimate_out_file_gets_the_payload(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "estimate", "--vol", "0", "--mu", "0", "--n", "4", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["estimate"] == 1.0


# ------------------------------------------------------------ limit-var


def test_limit_var_reports_variance_and_se(capsys):
    code, out, _ = run_cli(
        capsys,
        *"limit-var --mu 0.05 --vol 0.2 --samples 400 --grid-steps 32 --seed 1".split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"grid_steps", "samples", "seed", "standard_error", "variance"}
    assert payload["variance"] > 0.0
    assert payload["samples"] == 400


@pytest.mark.parametrize("threads", ["1", "8"])
@pytest.mark.parametrize("flags", sorted(LIMIT_VAR_SHA256))
def test_limit_var_stdout_is_pinned(capsys, flags, threads):
    code, out, _ = run_cli(capsys, "limit-var", *flags.split(), "--threads", threads)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LIMIT_VAR_SHA256[flags]


def test_limit_var_zero_vol_call_at_strike_is_exit_3_or_2(capsys):
    # the kink sits on an atom of the terminal law; the guard reports it
    code, _, err = run_cli(
        capsys,
        *"limit-var --mu 0 --vol 0 --payoff call --strike 1 --samples 64 --grid-steps 8".split(),
    )
    assert code == 2
    assert "kink" in err or "mass" in err


# --------------------------------------------------------------- verify


def test_verify_bracket_time_mode_exact(capsys):
    code, out, _ = run_cli(capsys, "verify", "bracket", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == payload["target"] == 0.0625


def test_verify_bracket_brownian_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        *"verify bracket --mode brownian --n 64 --samples 5000".split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == pytest.approx(payload["target"], rel=0.08)


# sha256 of the stdout of `verify bracket --mode brownian --n 16 --m 2 --t 1
# --samples 5000`, which pins the bracket check's stream and its arithmetic
BRACKET_BROWNIAN_N16_SHA256 = "6c48cf917e68ccdf0569a819ecf3734c176c7610f0e81020436dcca0feb36edc"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_bracket_brownian_mode_is_pinned(capsys, threads):
    code, out, _ = run_cli(
        capsys,
        *"verify bracket --mode brownian --n 16 --m 2 --t 1 --samples 5000 --threads".split(),
        threads,
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BRACKET_BROWNIAN_N16_SHA256


@pytest.mark.parametrize("mode", ["time", "brownian"])
@pytest.mark.parametrize("flags", ["--m 1", "--T -1", "--t 5", "--t -1"])
def test_verify_bracket_out_of_range_input_is_usage_error(capsys, mode, flags):
    code, out, err = run_cli(capsys, "verify", "bracket", "--mode", mode, *flags.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_clt_writes_csv_artifact(capsys, tmp_path):
    target = tmp_path / "errors.csv"
    code, out, _ = run_cli(
        capsys,
        *(
            "verify clt --n 4 --replications 12 --vol 0.2 "
            "--mu 0.05 --out " + str(target)
        ).split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["replications"] == 12
    assert 0.0 <= payload["ks_statistic"] <= 1.0
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[0] == ["replication", "standardized_error"]
    assert len(rows) == 13


def test_verify_clt_rejects_bad_sigma2_as_usage_error(capsys):
    code, out, err = run_cli(
        capsys, *"verify clt --n 4 --replications 500 --sigma2 -1".split()
    )
    assert code == 2
    assert out == ""
    assert "--sigma2" in err


def test_verify_unknown_experiment_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "nope")
    assert code == 2


def test_verify_coverage_small_run(capsys):
    code, out, _ = run_cli(
        capsys,
        *(
            "verify coverage --n 4 --replications 12 "
            "--vol 0.2 --mu 0.05 --confidence 0.9"
        ).split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["coverage"]["clt"] <= 1.0
    assert payload["coverage"]["chebyshev"] >= payload["coverage"]["clt"]


def test_verify_berry_esseen_reports_slope(capsys):
    code, out, _ = run_cli(
        capsys,
        *(
            "verify berry-esseen --n-list 16,32,64 --vol 0.2 --mu 0.05"
        ).split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "berry-esseen"
    assert [row["n"] for row in payload["rows"]] == [16, 32, 64]
    assert all(row["bound"] > 0.0 for row in payload["rows"])
    assert payload["slope_vs_loglog_n"] < 0.0


def test_verify_berry_esseen_rejects_weights(capsys):
    code, out, err = run_cli(
        capsys,
        *"verify berry-esseen --n-list 16,32 --weights 1,1,1,1".split(),
    )
    assert code == 2
    assert out == ""
    assert "--weights" in err


def test_verify_two_level_law_small(capsys):
    code, out, _ = run_cli(
        capsys,
        *(
            "verify two-level-law --level 4 --samples 4000 "
            "--grid-steps 64 --vol 0.2 --mu 0.05"
        ).split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["ks_distance"] < 0.1
    assert payload["error_variance"] == pytest.approx(
        payload["limit_variance"], rel=0.25
    )


@pytest.mark.parametrize("command", sorted(REPLICATED_VERIFY_SHA256))
def test_replicated_verify_stdout_bytes_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split(), "--seed", "0", "--threads", "2")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == REPLICATED_VERIFY_SHA256[command]


# ------------------------------------------------------------ benchmark


def test_benchmark_costs_match_library_accounting(capsys):
    code, out, _ = run_cli(
        capsys,
        *(
            "benchmark --n-list 4,8 --replications 3 --vol 0.2 --mu 0.05 "
            "--truth 1.0512710963760241"
        ).split(),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["method"] for r in rows} == {"crude-mc", "mlmc"}
    for row in rows:
        n = int(row["n"])
        assert float(row["achieved_rmse"]) > 0.0
        assert float(row["wall_time_seconds"]) >= 0.0
        assert float(row["target_rmse"]) == 1.0 / n
        if row["method"] == "mlmc":
            assert int(row["cost_units"]) == me.complexity(me.plan_bak(n, 2, 1.0))
        else:
            assert int(row["cost_units"]) == n**2 * n


def test_benchmark_mlmc_rows_are_pinned(capsys):
    # the wall time is not deterministic; the rest of each row is
    code, out, _ = run_cli(
        capsys, *"benchmark --n-list 16,32 --replications 3 --methods mlmc --format json".split()
    )
    assert code == 0
    rows = [(r["n"], r["achieved_rmse"], r["cost_units"]) for r in json.loads(out)]
    assert rows == [(16, 0.0584661755051104, 7922), (32, 0.027832278289258952, 49263)]


def test_benchmark_rejects_weights(capsys):
    code, out, err = run_cli(
        capsys, *"benchmark --n-list 4,8 --replications 2 --weights 1,1".split()
    )
    assert code == 2
    assert out == ""
    assert "--weights" in err


def test_benchmark_requires_n_list(capsys):
    code, _, _ = run_cli(capsys, "benchmark")
    assert code == 2


# ---------------------------------------------------------------- flags


@pytest.mark.parametrize(
    "command, flag",
    [
        ("plan --n 16 --seed 1", "--seed"),
        ("plan --n 16 --threads 2", "--threads"),
        ("plan --n 16 --format csv", "--format"),
        ("plan --n 16 --c2 7", "--c2"),
        ("plan --n 16 --allocator giles --beta0 0.5", "--beta0"),
        ("plan --n 16 --allocator giles --weights 1,2,3,4", "--weights"),
        ("verify clt --replication 1", "--replication"),
        ("verify clt --format csv", "--format"),
        ("verify bracket --n 8 --vol 3", "--vol"),
        ("verify bracket --n 8 --replications 7", "--replications"),
        ("verify bracket --n 8 --allocator giles", "--allocator"),
        ("verify bracket --n 8 --samples 9", "--samples"),
        ("verify bracket --n 8 --seed 4", "--seed"),
        ("verify bracket --n 8 --threads 2", "--threads"),
        ("verify two-level-law --n 64", "--n"),
        ("verify two-level-law --alpha 0.3", "--alpha"),
        ("verify two-level-law --confidence 0.5", "--confidence"),
        ("verify two-level-law --truth 9", "--truth"),
        ("verify berry-esseen --n-list 16,32 --replications 2", "--replications"),
        ("benchmark --n-list 16 --replication 3", "--replication"),
        ("limit-var --verbose", "--verbose"),
        ("estimate --n 16 --deterministic-reduction", "--deterministic-reduction"),
        ("estimate --n 16 --model gbm", "--model"),
        ("estimate --n 16 --conf 0.5", "--conf"),
    ],
)
def test_flag_the_command_does_not_read_is_usage_error(capsys, command, flag):
    # unread flags and abbreviations of read ones are rejected before any work
    code, out, err = run_cli(capsys, *command.split())
    assert code == 2
    assert out == ""
    assert flag in err


# ---------------------------------------------------------- determinism


def test_stdout_is_byte_identical_across_threads(capsys):
    argv = "estimate --vol 0.2 --mu 0.05 --n 16 --seed 3".split()
    outputs = []
    for threads in ("1", "2", "8"):
        code, out, _ = run_cli(capsys, *argv, "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_seed_outside_64_bits_is_usage_error(capsys):
    argv = "estimate --vol 0.2 --mu 0.05 --n 4 --threads 1 --seed".split()
    for seed in ("-1", str(2**64)):
        code, out, err = run_cli(capsys, *argv, seed)
        assert code == 2
        assert out == ""
        assert "--seed" in err
    outputs = []
    for seed in ("0", str(2**64 - 1)):
        code, out, _ = run_cli(capsys, *argv, seed)
        assert code == 0
        outputs.append(out)
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("estimate --n 4 --replication -1", "--replication"),
        ("estimate --n 4 --bias-pilot -3", "--bias-pilot"),
        ("limit-var --samples 100 --grid-steps 8 --replication -1", "--replication"),
        ("limit-var --samples 100 --grid-steps 0", "--grid-steps"),
        ("limit-var --samples 1 --grid-steps 8", "--samples"),
        ("verify two-level-law --samples 1 --level 2 --grid-steps 4", "--samples"),
        ("verify two-level-law --samples 100 --level 0 --grid-steps 4", "--level"),
        ("verify bracket --mode brownian --samples 0", "--samples"),
        ("verify bracket --n 0", "--n"),
        ("verify bracket --mode brownian --n 0", "--n"),
        ("verify clt --n 4 --replications 1", "--replications"),
        ("verify coverage --n 4 --replications 0", "--replications"),
        ("benchmark --n-list 4 --replications 0 --truth 1", "--replications"),
    ],
)
def test_out_of_range_integer_flag_is_usage_error_naming_it(capsys, command, flag):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 2
    assert out == ""
    assert flag in err


def test_repeated_run_is_byte_identical(capsys):
    argv = "limit-var --vol 0.2 --mu 0.05 --samples 300 --grid-steps 16".split()
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
