import json

import pytest

from su2quant.cli import DEFAULTS, SCHEMA, ConfigError, load_config, main


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
    assert cfg["s"] == DEFAULTS["s"]


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
    ],
)
def test_bad_values_exit_2_naming_the_field(tmp_path, capsys, user, field):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(user))
    code = main(["toeplitz-diff", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_quadrature_merged_over_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"quadrature": {"n_r": 8}, "t_values": [0.5]}))
    assert load_config(str(p), None)["quadrature"] == {**DEFAULTS["quadrature"], "n_r": 8}
    code = main(["transform-check", "--config", str(p), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert code == (0 if report["passed"] else 1)
    assert len(report["checks"]) == 3


def test_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"bogus": 1}))
    code = main(["calibrate", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


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


def test_report_independent_of_workers(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_paths": 4000, "n_steps": 50}))
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    main(["sde-check", "--config", str(cfg), "--out", str(out1), "--workers", "1"])
    main(["sde-check", "--config", str(cfg), "--out", str(out2), "--workers", "3"])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "blocks.csv").read_bytes() == (out2 / "blocks.csv").read_bytes()


def test_euclid_subcommand(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_paths": 20000, "euclid_degree_max": 3}))
    code = main(["euclid-baseline", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["checks"]) == 4
