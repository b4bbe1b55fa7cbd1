import csv
import json
from collections import Counter

import pytest

from su2quant.cli import DEFAULTS, SCHEMA, ConfigError, gate_calibration, load_config, main
from su2quant.sde import DEFAULT_N_BLOCKS


def test_print_defaults(capsys):
    assert main(["--print-defaults"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == DEFAULTS


def test_load_config_defaults_and_override(tmp_path):
    cfg = load_config(None, None)
    assert cfg == DEFAULTS
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"t": 0.3, "n_paths": 500}))
    cfg = load_config(str(p), 99)
    assert cfg["t"] == 0.3
    assert cfg["n_paths"] == 500
    assert cfg["master_seed"] == 99
    assert cfg["n_steps"] == DEFAULTS["n_steps"]


def test_load_config_diagnostics(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"n_pathz": 10}))
    with pytest.raises(ConfigError, match="n_pathz"):
        load_config(str(p), None)
    p.write_text(json.dumps({"n_paths": "many"}))
    with pytest.raises(ConfigError, match="n_paths"):
        load_config(str(p), None)
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(str(p), None)
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p), None)


@pytest.mark.parametrize(
    "user, field",
    [
        ({"n_steps": 0}, "n_steps"),
        ({"n_paths": -5}, "n_paths"),
        ({"n_paths": True}, "n_paths"),
        ({"euclid_degree_max": False}, "euclid_degree_max"),
        ({"quadrature": {"n_r": 8, "n_rho": 4}}, "quadrature.n_rho"),
        ({"n_paths": 10, "n_steps": 20}, "n_paths"),
        ({"t": -1.0}, "'t'"),
        ({"t": 0}, "'t'"),
        ({"t_values": [-0.5]}, "t_values"),
        ({"t_values": []}, "t_values"),
        ({"t_values": [0.5, True]}, "t_values"),
        ({"t_values": [0.5, "1"]}, "t_values"),
        ({"spins": [0.3]}, "spins"),
        ({"spins": [13]}, "spins"),
        ({"spins": [-0.5]}, "spins"),
        ({"spins": []}, "spins"),
        ({"spins": [0.5, True]}, "spins"),
        ({"master_seed": -1}, "master_seed"),
        ({"radial_cutoff": -5}, "radial_cutoff"),
        ({"radial_cutoff": 0}, "radial_cutoff"),
        ({"quadrature": {"n_theta": 20}}, "quadrature.n_theta"),
    ],
)
def test_bad_values_exit_2_naming_the_field(tmp_path, capsys, user, field):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(user))
    code = main(["toeplitz-diff", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    code = main(["sde-check", "--seed", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_spins_up_to_the_cap_load(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"spins": [0, 1.5, 12], "radial_cutoff": 4}))
    cfg = load_config(str(p), 0)
    assert cfg["spins"] == [0, 1.5, 12] and cfg["radial_cutoff"] == 4
    assert cfg["master_seed"] == 0


def test_field_s_is_unknown(tmp_path, capsys):
    # no subcommand reads a variance s, so a config that sets one is an error
    assert "s" not in DEFAULTS
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"s": -3}))
    code = main(["sde-check", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert "config field 's': unknown field" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_quadrature_merged_over_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"quadrature": {"n_r": 8}, "t_values": [0.5]}))
    assert load_config(str(p), None)["quadrature"] == {**DEFAULTS["quadrature"], "n_r": 8}
    code = main(["transform-check", "--config", str(p), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert code == (0 if report["passed"] else 1)
    assert len(report["checks"]) == 3


def test_inner_products_read_no_fiber_node(tmp_path, monkeypatch):
    # the CLI's inner products are radial sums: no Wigner table, no fiber node
    def refuse(*args):
        raise AssertionError("the radial route read a fiber node")

    monkeypatch.setattr("su2quant.hl2.wigner_matrix", refuse)
    monkeypatch.setattr("su2quant.hl2.fiber_nodes", refuse)
    assert all(c["passed"] for c in gate_calibration(DEFAULTS["t_values"], {}))
    assert main(["transform-check", "--out", str(tmp_path)]) == 0


def test_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"bogus": 1}))
    code = main(["calibrate", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_error_inside_a_command_exits_3(tmp_path, capsys):
    # t = 200 passes config validation, but the calibration's bracket for
    # beta then holds no sign change and the root-finder raises
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"t_values": [200.0]}))
    code = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False and report["checks"] == []
    assert report["error"]["type"] == "ValueError"
    assert "different signs" in report["error"]["message"]
    assert "Traceback" in capsys.readouterr().err


def test_calibrate_run_and_report(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"t_values": [0.5]}))
    code = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == SCHEMA
    assert report["subcommand"] == "calibrate"
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(report["checks"])
    assert all(line.startswith("[PASS]") for line in lines)


def test_sde_check_report_and_blocks(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_paths": 4000, "n_steps": 60, "master_seed": 2026}))
    code = main(["sde-check", "--config", str(cfg), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert code == (0 if report["passed"] else 1)
    assert (tmp_path / "blocks.csv").read_text().startswith("check,block,real,imag")
    names = [c["name"] for c in report["checks"]]
    assert any("pathwise" in n for n in names)
    with open(tmp_path / "blocks.csv", newline="") as fh:
        labels = Counter(row[0] for row in list(csv.reader(fh))[1:])
    assert len(labels) == 2 and set(labels.values()) == {DEFAULT_N_BLOCKS}


def test_report_independent_of_workers(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_paths": 4000, "n_steps": 50}))
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    main(["sde-check", "--config", str(cfg), "--out", str(out1), "--workers", "1"])
    main(["sde-check", "--config", str(cfg), "--out", str(out2), "--workers", "3"])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "blocks.csv").read_bytes() == (out2 / "blocks.csv").read_bytes()


def test_toeplitz_mult_report_independent_of_workers(tmp_path):
    # both times come from one shared draw, walked in slabs that threads take
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_paths": 2000, "n_steps": 20}))
    outs = [tmp_path / f"w{w}" for w in (1, 2, 3)]
    for w, out in zip((1, 2, 3), outs):
        main(["toeplitz-mult", "--config", str(cfg), "--out", str(out), "--workers", str(w)])
    for name in ("report.json", "blocks.csv"):
        assert len({(out / name).read_bytes() for out in outs}) == 1


def test_euclid_subcommand(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_paths": 20000, "euclid_degree_max": 3}))
    code = main(["euclid-baseline", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["checks"]) == 4


def test_failed_gate_exits_1(tmp_path):
    # the Monte Carlo gates are per-check 3-stderr tests, so correct code
    # fails some of them at some master seeds; 92 is one
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_paths": 20000}))
    code = main(["euclid-baseline", "--config", str(cfg), "--out", str(tmp_path), "--seed", "92"])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert "error" not in report and report["passed"] is False
    assert len(report["checks"]) == 7
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == [f"flat Toeplitz identity, symbol x^{d}" for d in (1, 3, 4, 6)]
