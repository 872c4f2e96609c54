import argparse
import json
import re
from pathlib import Path

import pytest

from nbzeta import ContourSpec, build_bouquet, complete_graph, serialize_graph
from nbzeta import census as census_module
from nbzeta.cli import build_parser, main


def _write_graph(tmp_path, g, name="g.nbg"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return path


def test_cli_census(tmp_path, capsys):
    out = tmp_path / "census.csv"
    rc = main([
        "census", "--model", "perm", "--n", "12", "--d", "4",
        "--samples", "5", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 5
    lines = out.read_text().splitlines()
    assert lines[0] == "sample,seed,count,lambda1,lambda2"
    assert len(lines) == 6
    assert json.loads((tmp_path / "census.csv.json").read_text())["failures"] == 0


def test_cli_census_all_failed(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("forced failure")

    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    monkeypatch.setattr(census_module, "_one_sample", fail)
    rc = main(["census", "--model", "perm", "--n", "12", "--samples", "3"])
    assert rc != 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out, parse_constant=reject)
    assert summary["mean"] is None and summary["failures"] == 3
    assert summary["failure_reasons"] == {"RuntimeError('forced failure')": 3}
    assert "failed" in captured.err and "forced failure" in captured.err


def test_cli_census_rejects_n0(capsys):
    rc = main(["census", "--model", "perm", "--n", "0", "--samples", "3"])
    assert rc == 2
    assert "n must be >= 1" in capsys.readouterr().err


def test_cli_census_cover(tmp_path, capsys):
    base = _write_graph(tmp_path, build_bouquet(2, 0), "base.nbg")
    rc = main([
        "census", "--model", "cover", "--base", str(base), "--n", "8",
        "--samples", "4", "--seed", "1",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 4


def test_cli_census_rejects_irregular_base(tmp_path, capsys):
    base = tmp_path / "path3.nbg"
    base.write_text("nbgraph v1\n3 4\n0 1 1\n1 0 0\n1 2 3\n2 1 2\n")
    rc = main([
        "census", "--model", "cover", "--base", str(base), "--n", "8",
        "--samples", "4",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not regular" in captured.err


def test_cli_census_rejects_cover_degree_mismatch(tmp_path, capsys):
    # K4 is 3-regular; --d defaults to 4
    base = _write_graph(tmp_path, complete_graph(4), "k4.nbg")
    rc = main([
        "census", "--model", "cover", "--base", str(base), "--n", "8",
        "--samples", "4",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "3-regular" in captured.err
    rc = main([
        "census", "--model", "cover", "--base", str(base), "--n", "8",
        "--d", "3", "--samples", "4",
    ])
    assert rc == 0


def test_cli_zeta(tmp_path, capsys):
    path = _write_graph(tmp_path, complete_graph(4))
    rc = main([
        "zeta", "--graph", str(path), "--check-ihara", "--series-K", "3",
        "--contour", "0.2,0.05,+,512",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ihara_identity"] is True
    assert out["series"] == ["12", "0", "0", "3"]
    assert out["contour"]["exact"] == 0
    assert abs(out["contour"]["numeric_real"]) < 1e-6
    # charpoly coefficients are exact decimal strings
    assert out["char_poly_u"][0] == "1"


@pytest.mark.parametrize("contour", [
    "0.1,0.1", "0.2,0.05,+,512,1", "0.2,0.05,+,abc", "0.2,abc,+,512",
    "0.2,0.05,x,512", "0.2,0.05,,512", "0,0.05,+,512", "0.2,0.05,-,0",
    "0.2,inf,+,512", "nan,0.05,+,512",
])
def test_cli_zeta_rejects_bad_contour(tmp_path, capsys, contour):
    path = _write_graph(tmp_path, complete_graph(4))
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--graph", str(path), "--contour", contour])
    assert exc.value.code == 2
    assert "argument --contour" in capsys.readouterr().err


@pytest.mark.parametrize("sign, expected", [
    ("+", 1), ("+1", 1), ("plus", 1), ("-", -1), ("-1", -1), (" minus ", -1),
])
def test_cli_zeta_contour_signs(sign, expected):
    args = build_parser().parse_args(
        ["zeta", "--graph", "g.nbg", "--contour", f"0.2,0.05,{sign},512"]
    )
    assert args.contour == ContourSpec(0.2, 0.05, expected, 512)


def test_cli_spectrum(tmp_path, capsys):
    path = _write_graph(tmp_path, complete_graph(4))
    rc = main(["spectrum", "--graph", str(path), "--hashimoto", "--classify"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["adjacency"] == pytest.approx([3, -1, -1, -1])
    assert len(out["hashimoto"]) == 12
    assert out["non_ramanujan"]["is_ramanujan"] is True


def test_cli_spectrum_classify_rejects_degree_zero(tmp_path, capsys):
    path = tmp_path / "empty.nbg"
    path.write_text("nbgraph v1\n3 0\n")
    rc = main(["spectrum", "--graph", str(path), "--classify"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "d >= 1" in captured.err


def test_cli_traces_exact(capsys):
    rc = main(["traces", "--n", "2", "--d", "4", "--k", "1", "--exact"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["exact_mean"] == "4"


@pytest.mark.parametrize("model", [["--model", "cycle"], ["--model", "match"]])
def test_cli_traces_exact_rejects_other_models(capsys, model):
    rc = main(["traces", *model, "--n", "3", "--d", "4", "--k", "2", "--exact"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "perm" in captured.err


@pytest.mark.parametrize("model, k", [("perm", 2), ("cycle", 2), ("match", 4)],
                         ids=["perm", "cycle", "match"])
def test_cli_traces_monte_carlo(model, k, capsys):
    rc = main([
        "traces", "--model", model, "--n", "6", "--d", "4", "--k", str(k),
        "--samples", "50", "--seed", "9",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["model"] == model
    assert out["samples"] == 50 and out["mean"] > 0


def test_cli_section8(capsys):
    rc = main(["section8", "--preset", "G4_100", "--samples", "40", "--seed", "2"])
    assert rc == 0
    assert "G4_100" in capsys.readouterr().out


def test_cli_section8_rejects_zero_samples(monkeypatch, capsys):
    real = census_module.run_census

    def spy(config, *args, **kwargs):
        assert config.samples == 0, f"ran {config.samples} samples"
        return real(config, *args, **kwargs)

    monkeypatch.setattr(census_module, "run_census", spy)
    assert main(["section8", "--preset", "G4_100", "--samples", "0"]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


def test_cli_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.nbg"
    bad.write_text("not a graph\n")
    rc = main(["spectrum", "--graph", str(bad)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["traces", "--n", "3", "--k", "-1"], "--k"),
    (["traces", "--n", "3", "--k", "two"], "--k"),
    (["zeta", "--graph", "g.nbg", "--series-K", "-1"], "--series-K"),
    (["zeta", "--graph", "g.nbg", "--series-K", "1.5"], "--series-K"),
])
def test_cli_rejects_negative_counts(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err


def test_cli_census_out_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc = main(["census", "--model", "perm", "--n", "12", "--samples", "2",
               "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.parent.exists()


def test_cli_spectrum_missing_graph_file(tmp_path, capsys):
    rc = main(["spectrum", "--graph", str(tmp_path / "missing.nbg")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "missing.nbg" in err


def test_readme_cli_flags_exist():
    # every --flag in README's CLI section is an option of some subcommand
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", text, re.S | re.M).group(1)
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        flag for p in subparsers.choices.values() for flag in p._option_string_actions
    }
    assert flags and flags <= options, sorted(flags - options)
