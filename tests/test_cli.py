"""Command-line interface: flags, output formats, exit codes."""

import itertools
import json

import pytest

from fecpart.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_table1_point(capsys):
    code, out, err = run(capsys, "plan", "--k", "40", "--pe", "0.09",
                         "--plr-target", "1e-5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 55
    assert payload["k"] == 40
    assert payload["p"] == 15
    assert payload["plr"] <= 1e-5
    assert payload["ri"] == pytest.approx(15 / 40)


def test_plan_zero_channel(capsys):
    code, out, _ = run(capsys, "plan", "--k", "40", "--pe", "0",
                       "--plr-target", "1e-5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 41
    assert payload["plr"] == 0.0


def test_plan_partitioned(capsys):
    code, out, _ = run(capsys, "plan", "--k", "40", "--pe", "0.01", "--partition")
    assert code == 0
    payload = json.loads(out)
    part = payload["partition"]
    assert part["excess"] == 0
    assert part["k1"] == part["k2"] == 20
    assert part["p1"] + part["p2"] == payload["p"]
    assert part["plr_part"] - payload["plr"] <= 0.001


def test_plan_unreachable_target_is_domain_error(capsys):
    code, out, err = run(capsys, "plan", "--k", "200", "--pe", "0.3",
                         "--plr-target", "1e-9")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_plan_k_without_room_for_parity_is_domain_error(capsys):
    code, out, err = run(capsys, "plan", "--k", "255", "--pe", "0.1")
    assert code == 1
    assert out == ""
    assert "k=255 is outside 1..254" in err and "GF(256) limit" in err


def test_plan_prints_the_witness(capsys):
    code, out, _ = run(capsys, "plan", "--k", "40", "--pe", "0.09",
                       "--plr-target", "1e-5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_scanned"] == 15  # n = 41 .. 55
    assert payload["witness_plr"] > 1e-5 >= payload["plr"]
    code, out, _ = run(capsys, "plan", "--k", "40", "--pe", "0")
    payload = json.loads(out)
    assert (payload["witness_plr"], payload["n_scanned"]) == (None, 1)


def test_plan_missing_flags_is_usage_error(capsys):
    assert main(["plan", "--pe", "0.1"]) == 2


def test_analyze_plain(capsys):
    code, out, _ = run(capsys, "analyze", "--n", "44", "--k", "40", "--pe", "0.01")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "analytic"
    assert payload["plr"] <= 1e-5


def test_analyze_zero_channel(capsys):
    code, out, _ = run(capsys, "analyze", "--n", "44", "--k", "40", "--pe", "0")
    assert code == 0
    assert json.loads(out)["plr"] == 0.0


def test_analyze_matches_brute_force(capsys):
    from fecpart.codec import CodeSpec
    from fecpart.lossmodel import BecChannel, brute_force_plr

    code, out, _ = run(capsys, "analyze", "--n", "6", "--k", "4", "--pe", "0.1")
    assert code == 0
    got = json.loads(out)["plr"]
    oracle = brute_force_plr(CodeSpec(6, 4), BecChannel(0.1)).plr
    assert got == pytest.approx(oracle, rel=1e-5)  # CLI prints 6 significant digits


def test_analyze_partitioned(capsys):
    code, out, _ = run(capsys, "analyze", "--n", "48", "--k", "40", "--pe", "0.05",
                       "--partition", "--n1", "24", "--k1", "20",
                       "--n2", "24", "--k2", "20")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"plr", "method", "plr1", "plr2"}
    assert payload["plr1"] == payload["plr2"]


def test_analyze_inconsistent_partition_dimensions(capsys):
    code, out, err = run(capsys, "analyze", "--n", "48", "--k", "40", "--pe", "0.05",
                         "--partition", "--n1", "25", "--k1", "21",
                         "--n2", "23", "--k2", "19")
    assert code == 1
    assert out == ""


def test_analyze_halves_with_less_parity_is_domain_error(capsys):
    code, out, err = run(capsys, "analyze", "--n", "48", "--k", "40", "--pe", "0.05",
                         "--partition", "--n1", "23", "--k1", "20",
                         "--n2", "24", "--k2", "20")
    assert code == 1
    assert out == ""
    assert "halves carry less parity" in err


CODE_ARGV = ("--n", "48", "--k", "40", "--pe", "0.05", "--partition",
             "--n1", "24", "--k1", "20", "--n2", "24", "--k2", "20")
CODE_FLAGS = {"n": 48, "k": 40, "pe": 0.05, "partition": True,
              "n1": 24, "k1": 20, "n2": 24, "k2": 20}


@pytest.mark.parametrize("argv, extra", [
    (("analyze", *CODE_ARGV), {}),
    (("simulate", *CODE_ARGV, "--trials", "100", "--seed", "3"), {"trials": 100, "seed": 3}),
])
def test_code_flags_parse_alike_for_analyze_and_simulate(argv, extra):
    args = vars(build_parser().parse_args(argv))
    func = args.pop("func")
    assert func.__name__ == f"cmd_{argv[0]}"
    assert args == {"command": argv[0], **CODE_FLAGS, **extra}
    assert all(type(args[name]) is type(value) for name, value in CODE_FLAGS.items())


@pytest.mark.parametrize("command", [("analyze",), ("simulate", "--trials", "5")])
@pytest.mark.parametrize("missing", ["--n", "--k", "--pe"])
def test_code_flags_required_alike(command, missing):
    flags = {"--n": "44", "--k": "40", "--pe": "0.01"}
    del flags[missing]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command, *itertools.chain(*flags.items())])
    assert exc.value.code == 2


def test_analyze_partition_missing_dims_is_usage_error(capsys):
    code, out, err = run(capsys, "analyze", "--n", "48", "--k", "40", "--pe", "0.05",
                         "--partition", "--n1", "24", "--k1", "20")
    assert code == 2


def test_simulate_zero_channel(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "6", "--k", "4", "--pe", "0",
                       "--trials", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["plr"] == 0.0
    assert payload["method"] == "monte_carlo"
    assert payload["trials"] == 1000
    assert payload["patterns_verified"] == payload["patterns_total"] == 0


def test_simulate_reports_patterns_verified(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "44", "--k", "40", "--pe", "0.1",
                       "--trials", "2000", "--seed", "4")
    assert code == 0
    from fecpart.codec import CodeSpec
    from fecpart.lossmodel import BecChannel, monte_carlo_plr

    report = monte_carlo_plr(CodeSpec(44, 40), BecChannel(0.1), 2000, 4)
    payload = json.loads(out)
    assert payload["patterns_verified"] == report.patterns_verified > 0
    assert payload["patterns_total"] == report.patterns_total > report.patterns_verified


def test_simulate_deterministic_per_seed(capsys):
    args = ("simulate", "--n", "6", "--k", "4", "--pe", "0.1",
            "--trials", "20000", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_simulate_consistent_with_analytic(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "8", "--k", "5", "--pe", "0.2",
                       "--trials", "100000", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    from fecpart.codec import CodeSpec
    from fecpart.lossmodel import BecChannel, analytic_plr

    exact = analytic_plr(CodeSpec(8, 5), BecChannel(0.2)).plr
    assert abs(payload["plr"] - exact) <= 3 * payload["ci95"]


def test_simulate_rejects_zero_trials(capsys):
    code, out, err = run(capsys, "simulate", "--n", "6", "--k", "4", "--pe", "0.1",
                         "--trials", "0")
    assert code == 2


def test_reproduce_table1_exact(capsys):
    code, out, _ = run(capsys, "reproduce", "table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,0.01,0.03,0.05,0.07,0.09,0.1"
    assert lines[1] == "40,44,48,50,53,55,56"
    assert lines[2] == "80,86,91,95,98,102,104"


def test_reproduce_fig2_shape_and_majority_zero(capsys):
    code, out, _ = run(capsys, "reproduce", "fig2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pe,k,excess"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 101
    pes = [float(r[0]) for r in rows]
    ks = [int(r[1]) for r in rows]
    assert pes == sorted(pes)
    for pe in (0.01, 0.05, 0.1):
        chunk = [k for p, k in zip(pes, ks) if p == pe]
        assert chunk == list(range(10, 111))
    zeros = sum(1 for r in rows if int(r[2]) == 0)
    assert zeros > len(rows) / 2


def test_bench_csv_grid(capsys):
    code, out, err = run(capsys, "bench", "--k-range", "10:30:10",
                         "--parity", "4", "--packet-size", "64",
                         "--iterations", "10", "--phase", "encode",
                         "--mode", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,mode,phase,median_ms,mad_ms,iterations,packet_size,parity"
    assert len(lines) == 1 + 6  # 3 k values x 2 modes
    assert out.strip().count("plain,encode") == 3
    assert out.strip().count("partitioned,encode") == 3


def test_bench_malformed_range(capsys):
    code, out, err = run(capsys, "bench", "--k-range", "30:10:10",
                         "--iterations", "10")
    assert code == 2
    assert out == ""
    code, out, err = run(capsys, "bench", "--k-range", "banana",
                         "--iterations", "10")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_stdout_is_pure_json(capsys):
    code, out, err = run(capsys, "plan", "--k", "20", "--pe", "0.05")
    assert code == 0
    json.loads(out)  # a strict parser accepts the whole stream
    assert out.count("\n") == 1
