"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import _format_arg, main
from repro.convert import scipy_available
from repro.io import write_matrix_market

# With scipy importable its registered converter wins the bulk COO->CSR
# edge; the no-scipy leg keeps the generated vector kernel.
EXT = "external" if scipy_available() else "vector"


@pytest.fixture()
def mtx(tmp_path):
    path = tmp_path / "m.mtx"
    cells = [(0, 0), (1, 2), (3, 1), (3, 3)]
    write_matrix_market(path, (4, 4), cells, [1.0, 2.0, 3.0, 4.0])
    return str(path)


def test_resolve_builtin_formats():
    assert _format_arg("csr").name == "CSR"
    assert _format_arg("DIA").name == "DIA"
    assert _format_arg("BCSR2x3").params == {"M": 2, "N": 3}
    assert _format_arg("BCSR").params == {"M": 4, "N": 4}
    assert _format_arg("HICOO8").params == {"B": 8}
    with pytest.raises(SystemExit):
        _format_arg("NOPE")


def test_formats_command(capsys):
    main(["formats"])
    out = capsys.readouterr().out
    assert "CSR" in out and "DIA" in out and "remap" in out


def test_codegen_command(capsys):
    main(["codegen", "CSR", "ELL"])
    out = capsys.readouterr().out
    assert "def convert_CSR_to_ELL" in out


def test_convert_command(mtx, capsys):
    main(["convert", mtx, "--to", "CSR"])
    out = capsys.readouterr().out
    assert "COO -> CSR" in out and "4 nonzeros" in out


def test_convert_show_code(mtx, capsys):
    main(["convert", mtx, "--to", "DIA", "--show-code"])
    out = capsys.readouterr().out
    assert "def convert_COO_to_DIA" in out


def test_convert_from_format(mtx, capsys):
    main(["convert", mtx, "--from", "CSR", "--to", "CSC"])
    out = capsys.readouterr().out
    assert "CSR -> CSC" in out


def test_convert_route_direct_option(mtx, capsys):
    main(["convert", mtx, "--from", "CSR", "--to", "CSC", "--route", "direct"])
    out = capsys.readouterr().out
    assert "CSR -> CSC" in out and "routed:" not in out


def test_convert_parallel_option(mtx, capsys):
    main(["convert", mtx, "--to", "CSR", "--parallel", "2"])
    out = capsys.readouterr().out
    assert "chunked executor" in out
    main(["convert", mtx, "--to", "CSR", "--parallel", "off"])
    out = capsys.readouterr().out
    assert "chunked executor" not in out
    with pytest.raises(SystemExit):
        main(["convert", mtx, "--to", "CSR", "--parallel", "zero"])
    with pytest.raises(SystemExit):
        main(["convert", mtx, "--to", "CSR", "--parallel", "0"])


def test_convert_parallel_show_code(mtx, capsys):
    main(["convert", mtx, "--to", "CSR", "--parallel", "2", "--show-code"])
    out = capsys.readouterr().out
    assert "__chunked" in out and "chunked_yield_positions" in out


def test_codegen_chunked_backend(capsys):
    main(["codegen", "COO", "CSR", "--backend", "chunked"])
    out = capsys.readouterr().out
    assert "def convert_COO_to_CSR__chunked" in out
    with pytest.raises(SystemExit):
        main(["codegen", "CSR", "HASH", "--backend", "chunked"])


def test_route_command(capsys):
    main(["route", "HASH", "CSR"])
    out = capsys.readouterr().out
    assert "HASH -> COO -> CSR" in out
    assert "bridge" in out and EXT in out


def test_route_command_explain(capsys):
    main(["route", "HASH", "CSR", "--explain"])
    out = capsys.readouterr().out
    assert "route HASH -> CSR" in out
    assert "bulk extraction" in out
    assert "direct scalar" in out
    # the competitor table lists every priced implementation per hop
    assert "competitors for COO -> CSR:" in out
    assert "generated-" in out
    if EXT == "external":
        assert "scipy-coo-csr" in out


def test_route_command_direct_pair(capsys):
    main(["route", "COO", "CSR", "--explain"])
    out = capsys.readouterr().out
    assert "1 hop" in out and "direct conversion is the estimated optimum" in out


def test_route_command_small_nnz_stays_direct(capsys):
    main(["route", "HASH", "CSR", "--nnz", "10"])
    out = capsys.readouterr().out
    assert out.strip().startswith("HASH -> CSR")


def test_stats_command(mtx, capsys):
    main(["stats", mtx])
    out = capsys.readouterr().out
    assert "nonzero diagonals" in out and "max nnz per row" in out


def test_verify_command(capsys):
    main(["verify", "COO", "CSR", "--trials", "5", "--max-dim", "5"])
    out = capsys.readouterr().out
    assert "OK on" in out


def test_plan_command(capsys):
    main(["plan", "HASH", "CSR"])
    out = capsys.readouterr().out
    assert "plan HASH -> CSR" in out
    assert "bulk extraction" in out
    assert "seeded cost" in out or "measured cost" in out


def test_plan_command_json_save_load(tmp_path, capsys):
    path = str(tmp_path / "plan.json")
    main(["plan", "HASH", "CSR", "--json", "--save", path])
    out = capsys.readouterr().out
    assert '"repro-conversion-plan"' in out and f"wrote {path}" in out
    main(["plan", "--load", path])
    out = capsys.readouterr().out
    assert "plan HASH -> CSR" in out and "2 hops" in out


def test_plan_command_show_code(capsys):
    main(["plan", "COO", "CSR", "--backend", "vector", "--show-code"])
    out = capsys.readouterr().out
    assert "def convert_COO_to_CSR" in out
    main(["plan", "COO", "CSR", "--show-code"])
    out = capsys.readouterr().out
    # the auto plan may pick a registered converter (no generated code)
    assert "def convert_COO_to_CSR" in out or "registered converter" in out


def test_convert_explicit_route_auto_with_backend_conflicts(mtx):
    with pytest.raises(SystemExit, match="conflicts with route='auto'"):
        main(["convert", mtx, "--to", "CSR", "--route", "auto",
              "--backend", "scalar"])


def test_plan_command_requires_pair_or_load():
    with pytest.raises(SystemExit):
        main(["plan"])
    with pytest.raises(SystemExit):
        main(["plan", "--load", "/no/such/plan.json"])


def test_convert_cache_dir_warm_start(mtx, tmp_path, capsys):
    cache = str(tmp_path / "kernels")
    main(["convert", mtx, "--to", "CSR", "--cache-dir", cache])
    cold = capsys.readouterr().out
    assert "0 disk hit(s)" in cold
    main(["convert", mtx, "--to", "CSR", "--cache-dir", cache])
    warm = capsys.readouterr().out
    assert "0 compile(s)" in warm and "1 disk hit(s)" in warm


def test_plan_load_rejects_conflicting_arguments(tmp_path, capsys):
    path = str(tmp_path / "plan.json")
    main(["plan", "COO", "CSR", "--save", path])
    capsys.readouterr()
    with pytest.raises(SystemExit, match="cannot be combined"):
        main(["plan", "HASH", "CSR", "--load", path])
    with pytest.raises(SystemExit, match="cannot be combined"):
        main(["plan", "--load", path, "--nnz", "5000000"])
    with pytest.raises(SystemExit, match="cannot be combined"):
        main(["plan", "--load", path, "--backend", "vector"])


def test_top_level_exports():
    import repro

    assert {"StreamResult", "convert_file", "load_result"} <= set(repro.__all__)
    assert all(hasattr(repro, name) for name in repro.__all__)
