import math

import pytest

from isingpulse.cli import (
    CSV_HEADER,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return fh.read()


def test_run_reference_point(tmp_path, capsys):
    out = tmp_path / "run.txt"
    code = run_cli(
        "run", "--L", "6", "--J", "1", "--a", "100", "--omega", "0.118",
        "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    assert "pulses = 10" in text
    f = float(next(l for l in text.splitlines() if l.startswith("f_exact")).split("=")[1])
    assert 0.0 < f < 1.0
    assert "f_pert" not in text


def test_run_both_propagators(tmp_path):
    out = tmp_path / "run.txt"
    code = run_cli(
        "run", "--L", "4", "--J", "1", "--a", "100", "--omega", "0.118",
        "--propagator", "both", "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    assert "f_exact =" in text
    assert "f_pert =" in text


def test_run_too_short_chain_is_usage_error(capsys):
    assert run_cli("run", "--L", "2") == EXIT_USAGE


def test_run_dressed_perturbative_order(tmp_path):
    out = tmp_path / "r.txt"
    code = run_cli(
        "run", "--L", "4", "--J", "1", "--a", "100", "--omega", "0.118",
        "--propagator", "pert", "--order", "block+pt1", "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    assert "f_pert =" in text
    assert "f_exact" not in text


def test_run_strict_validation_gate(tmp_path):
    # Omega equal to a is far outside the selective regime.
    code = run_cli(
        "run", "--L", "6", "--J", "1", "--a", "100", "--omega", "100",
        "--strict", "--out", str(tmp_path / "x.txt"),
    )
    assert code == EXIT_VALIDATION


def test_run_state_dump(tmp_path):
    dump = tmp_path / "state.txt"
    code = run_cli(
        "run", "--L", "3", "--J", "1", "--a", "100", "--omega", "0.2",
        "--dump-state", str(dump), "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_OK
    lines = read(dump).strip().splitlines()
    assert len(lines) == 1 + 8
    probs = [float(l.split()[4]) for l in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_sweep_csv_schema_and_determinism(tmp_path):
    args = (
        "sweep", "--param", "J", "--from", "0.5", "--to", "2.0", "--steps", "4",
        "--L", "4", "--a", "100", "--omega", "0.118", "--propagator", "both",
    )
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run_cli(*args, "--out", str(out1)) == EXIT_OK
    assert run_cli(*args, "--out", str(out2)) == EXIT_OK
    b1, b2 = read(out1), read(out2)
    assert b1 == b2  # byte-stable
    lines = b1.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    row = lines[1].split(",")
    assert row[0] == "J"
    assert float(row[1]) == 0.5
    f_exact, f_pert = float(row[2]), float(row[3])
    assert 0 < f_exact <= 1 and 0 < f_pert <= 1
    assert float(row[4]) == pytest.approx(1.0 - f_exact, abs=1e-15)
    assert row[5] == "ok"
    # block-level agreement between the two columns at a clean point
    assert abs(f_exact - f_pert) < 10 * 4 * (0.118**2 / 4e4) + 0.05 * (1 - f_exact)


def test_sweep_single_point_matches_run(tmp_path):
    s = tmp_path / "s.csv"
    r = tmp_path / "r.txt"
    assert run_cli(
        "sweep", "--param", "J", "--values", "1.0", "--L", "4", "--a", "100",
        "--omega", "0.118", "--out", str(s),
    ) == EXIT_OK
    assert run_cli(
        "run", "--L", "4", "--J", "1.0", "--a", "100", "--omega", "0.118",
        "--out", str(r),
    ) == EXIT_OK
    f_sweep = float(read(s).strip().splitlines()[1].split(",")[2])
    f_run = float(
        next(l for l in read(r).splitlines() if l.startswith("f_exact")).split("=")[1]
    )
    assert f_sweep == f_run


def test_sweep_records_per_point_failures(tmp_path):
    # L beyond the dense cap: those rows carry the error, the sweep finishes.
    out = tmp_path / "s.csv"
    assert run_cli(
        "sweep", "--param", "L", "--values", "4,15", "--J", "1", "--a", "100",
        "--omega", "0.118", "--out", str(out),
    ) == EXIT_OK
    lines = read(out).strip().splitlines()
    assert lines[1].split(",")[5] == "ok"
    assert lines[2].split(",")[5] == "CapacityError"
    assert lines[2].split(",")[2] == ""


def test_sweep_flags_fake_window_and_cycle_points(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(
        "sweep", "--param", "J", "--values", "24.9,37.5", "--L", "4", "--a",
        "100", "--omega", "0.118", "--out", str(out),
    ) == EXIT_OK
    lines = read(out).strip().splitlines()
    assert "fake-window" in lines[1].split(",")[6]
    assert lines[2].split(",")[6] == ""
    out2 = tmp_path / "s2.csv"
    om2 = 2 * 1.0 / math.sqrt(15.0)  # full-cycle drive for J=1, k=2
    assert run_cli(
        "sweep", "--param", "omega", "--values", f"{om2:.6f}", "--L", "4",
        "--J", "1", "--a", "100", "--out", str(out2),
    ) == EXIT_OK
    assert "two-pi-k" in read(out2).strip().splitlines()[1].split(",")[6]


def test_sweep_requires_increasing_values():
    assert run_cli(
        "sweep", "--param", "J", "--values", "2.0,1.0", "--L", "4"
    ) == EXIT_USAGE
    assert run_cli("sweep", "--param", "J", "--L", "4") == EXIT_USAGE


def test_sweep_parallel_matches_serial(tmp_path):
    args = (
        "sweep", "--param", "J", "--from", "0.5", "--to", "1.5", "--steps", "3",
        "--L", "4", "--a", "100", "--omega", "0.118",
    )
    s1, s2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run_cli(*args, "--workers", "1", "--out", str(s1)) == EXIT_OK
    assert run_cli(*args, "--workers", "2", "--out", str(s2)) == EXIT_OK
    assert read(s1) == read(s2)


def test_slope_command(tmp_path):
    out = tmp_path / "slope.txt"
    code = run_cli(
        "slope", "--J", "5.01", "--a", "100", "--omega", "0.118",
        "--from", "4", "--to", "7", "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    slope = float(next(l for l in text.splitlines()
                       if l.startswith("fitted_slope")).split("=")[1])
    m_th = float(next(l for l in text.splitlines()
                      if l.startswith("m_th")).split("=")[1])
    assert m_th == pytest.approx(-(0.118**2) / (4 * 5.01**2))
    assert slope < 0
    assert run_cli("slope", "--from", "4", "--to", "5") == EXIT_USAGE


def test_chaos_command(tmp_path):
    out = tmp_path / "chaos.txt"
    code = run_cli(
        "chaos", "--L", "6", "--J", "1", "--a", "100", "--omega", "0.118",
        "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    assert "m_f = 6" in text
    cr = float(next(l for l in text.splitlines()
                    if l.startswith("omega_cr_approx")).split("=")[1])
    assert cr == pytest.approx(100.0 + 1.0 / 6.0)
    assert "no chaos" in text


def test_validate_command(tmp_path):
    assert run_cli(
        "validate", "--L", "6", "--J", "1", "--a", "100", "--omega", "0.118",
        "--out", str(tmp_path / "v.txt"),
    ) == EXIT_OK
    assert "verdict: ok" in read(tmp_path / "v.txt")
    assert run_cli(
        "validate", "--L", "6", "--J", "1", "--a", "100", "--omega", "100",
        "--strict", "--out", str(tmp_path / "v2.txt"),
    ) == EXIT_VALIDATION


def test_protocol_dump_command(tmp_path):
    out = tmp_path / "prot.txt"
    assert run_cli(
        "protocol-dump", "--L", "5", "--J", "1", "--a", "100",
        "--omega", "0.118", "--out", str(out),
    ) == EXIT_OK
    lines = read(out).strip().splitlines()
    assert len(lines) == 1 + 8  # header + 2L-2 pulses


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 4\nJ = 2.0\na = 100\nomega = 0.118  # drive\n")
    out1 = tmp_path / "o1.txt"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == EXIT_OK
    assert "L = 4" in read(out1)
    assert "J = 2" in read(out1)
    out2 = tmp_path / "o2.txt"
    assert run_cli(
        "run", "--config", str(cfg), "--J", "3.0", "--out", str(out2)
    ) == EXIT_OK
    assert "J = 3" in read(out2)  # flag beats config


def test_config_file_bad_key(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nonsense = 1\n")
    assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE
    cfg2 = tmp_path / "cfg2.txt"
    cfg2.write_text("J\n")
    assert run_cli("run", "--config", str(cfg2)) == EXIT_USAGE


def test_unknown_arguments_are_usage_errors():
    assert run_cli("run", "--nonsense", "1") == EXIT_USAGE
    assert run_cli("sweep", "--param", "phi") == EXIT_USAGE


@pytest.mark.parametrize(
    "config, argv, code, check",
    [
        # A flag given with its default value still beats the config file;
        # check reads the output file.
        pytest.param("L = 8\n", ["protocol-dump", "--L", "6"], EXIT_OK,
                     lambda out: len(out.splitlines()) == 1 + 10,
                     id="flag-at-default-beats-config"),
        pytest.param("propagator = both\n",
                     ["run", "--L", "4", "--propagator", "exact"], EXIT_OK,
                     lambda out: "f_exact" in out and "f_pert" not in out,
                     id="choice-at-default-beats-config"),
        pytest.param("omega = 0.2\n", ["chaos", "--omega", "0.118"], EXIT_OK,
                     lambda out: f"omega = {0.118:.17g}\n" in out,
                     id="float-at-default-beats-config"),
        # Config values pass the flags' choices and type checks, and the
        # message names the file; check reads stderr.
        pytest.param("propagator = bogus\n", ["run", "--L", "4"], EXIT_USAGE,
                     lambda err: "cfg.txt: argument --propagator: invalid choice" in err,
                     id="config-choice-checked"),
        # Chain lengths are integers: no silent truncation, flag or config.
        pytest.param("", ["slope", "--from", "4.7", "--to", "6"], EXIT_USAGE,
                     lambda err: "error: argument --from: invalid int value" in err,
                     id="slope-flag-lengths-are-integers"),
        pytest.param("from = 4.7\n", ["slope", "--to", "6"], EXIT_USAGE,
                     lambda err: "cfg.txt: argument --from: invalid int value" in err,
                     id="slope-config-lengths-are-integers"),
    ],
)
def test_command_line_wins_and_config_is_checked(
    tmp_path, capsys, config, argv, code, check
):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == code
    assert check(read(out) if code == EXIT_OK else capsys.readouterr().err)


def test_large_chains_fail_per_point_not_at_compile(tmp_path):
    # Compiling the walk needs no 2^L array: L = 21 reaches the state-vector
    # cap and records it in its row, and L = 200 still compiles and dumps.
    out = tmp_path / "s.csv"
    assert run_cli(
        "sweep", "--param", "L", "--values", "4,21", "--J", "1", "--a", "100",
        "--omega", "0.118", "--propagator", "pert", "--out", str(out),
    ) == EXIT_OK
    rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
    assert [r[5] for r in rows] == ["ok", "CapacityError"]
    dump = tmp_path / "prot.txt"
    assert run_cli(
        "protocol-dump", "--L", "200", "--J", "1", "--a", "100",
        "--omega", "0.118", "--out", str(dump),
    ) == EXIT_OK
    assert len(read(dump).strip().splitlines()) == 1 + 2 * 200 - 2
