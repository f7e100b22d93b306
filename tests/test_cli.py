"""Tests for the command-line interface (python -m repro)."""

import random

import pytest

from repro.__main__ import _format_arg, main
from repro.convert import scipy_available
from repro.io import write_matrix_market
from repro.ir.native import detect_toolchain

from .support import count_feature_samples, sorted_only_converter

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


def _bulk_coo_mtx(path, swap):
    """A 12k-entry sorted COO file, optionally with two entries swapped."""
    rng = random.Random(0)
    cells = sorted(
        {(rng.randrange(200), rng.randrange(200)) for _ in range(30_000)}
    )[:12_000]
    if swap:
        cells[10], cells[5000] = cells[5000], cells[10]
    write_matrix_market(path, (200, 200), cells, [1.0] * len(cells))
    return str(path)


def test_convert_reports_the_hop_that_ran(tmp_path, capsys):
    """One out-of-order row fails a filtered converter's sortedness
    predicate, so the engine runs the next implementation: scipy's
    unfiltered delegate, or the generated vector kernel without scipy.
    The verb must report that hop and that source: it used to route a
    second time *without* the tensor's features and print the filtered
    converter."""
    unsorted = _bulk_coo_mtx(tmp_path / "unsorted.mtx", swap=True)
    ordered = _bulk_coo_mtx(tmp_path / "sorted.mtx", swap=False)
    with sorted_only_converter() as calls:
        main(["convert", unsorted, "--to", "CSR", "--show-code"])
        out = capsys.readouterr().out
        assert calls == []
        assert "routed:" not in out and "sorted-only" not in out
        if EXT == "external":
            assert "direct: COO -> CSR [external:scipy-coo-csr]" in out
            assert "registered converter 'scipy-coo-csr'" in out
        else:
            assert "direct: COO -> CSR [vector]" in out
            assert "def convert_COO_to_CSR__vector" in out
        main(["convert", ordered, "--to", "CSR", "--show-code"])
        out = capsys.readouterr().out
        assert len(calls) == 1
        assert "direct: COO -> CSR [external:sorted-only]" in out
        assert "registered converter 'sorted-only'" in out


def test_convert_reports_a_converter_refused_at_run_time(tmp_path, capsys):
    """A 120k-entry COO file with one in-row swap that the feature
    sample skips: the plan takes the filtered converter, the exact check
    where its hop runs refuses it, and the generated kernel runs.  The
    verb reports the hop that ran, not the planned ``external`` one."""
    from .convert.test_converters import _bulk_rows, _swap_past_the_sample

    dims, row, col = _bulk_rows()
    row, col = _swap_past_the_sample(row, col)
    assert len(row) == 120_000
    path = tmp_path / "swap.mtx"
    write_matrix_market(path, dims, list(zip(row.tolist(), col.tolist())),
                        [1.0] * len(row))
    with sorted_only_converter() as calls:
        main(["convert", str(path), "--to", "CSR"])
    out = capsys.readouterr().out
    assert calls == []
    assert "sorted-only" not in out
    assert "  direct: COO -> CSR [vector]" in out


def test_unreadable_input_is_a_one_line_exit(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 3 1\n999 1 2.0\n")
    missing = str(tmp_path / "missing.mtx")
    for path in (str(bad), missing):
        with pytest.raises(SystemExit, match="cannot read input"):
            main(["convert", path, "--to", "CSR"])
        with pytest.raises(SystemExit, match="cannot read input"):
            main(["stats", path])
        with pytest.raises(SystemExit, match="cannot read input"):
            main(["compute", "spmv", "COO", "--input", path])


def test_convert_route_direct_option(mtx, capsys):
    main(["convert", mtx, "--from", "CSR", "--to", "CSC", "--route", "direct"])
    out = capsys.readouterr().out
    assert "CSR -> CSC" in out and "routed:" not in out


def test_chunked_cli_options_are_gone(mtx, capsys):
    main(["convert", mtx, "--to", "CSR"])
    header = capsys.readouterr().out.splitlines()[2]
    assert header.startswith(("  direct: ", "  routed: "))
    with pytest.raises(SystemExit):
        main(["convert", mtx, "--to", "CSR", "--parallel", "2"])
    with pytest.raises(SystemExit):
        main(["codegen", "COO", "CSR", "--backend", "chunked"])


def test_route_command(capsys):
    main(["route", "HASH", "CSR"])
    out = capsys.readouterr().out
    # one hop: the vector kernel, or the native one once this process
    # has built it
    assert out.strip() in ("HASH -> CSR (vector)", "HASH -> CSR (native)")


def test_convert_samples_features_only_under_auto(mtx, capsys, monkeypatch):
    calls = count_feature_samples(monkeypatch)
    with sorted_only_converter():
        main(["convert", mtx, "--to", "DIA", "--backend", "scalar"])
        main(["convert", mtx, "--to", "DIA", "--route", "direct"])
        assert calls == []
        main(["convert", mtx, "--to", "DIA"])
        assert len(calls) == 1
    capsys.readouterr()


def test_route_command_explain(capsys):
    main(["route", "HASH", "CSR", "--explain"])
    out = capsys.readouterr().out
    assert "plan HASH -> CSR: HASH -> CSR (1 hop," in out
    # the competitor table lists every implementation of the edge
    assert out.count("competitors for HASH -> CSR:") == 1
    assert "generated-vector [vector]" in out
    assert "direct edge" not in out and "bridge" not in out


def test_route_command_direct_pair(capsys):
    main(["route", "COO", "CSR", "--explain"])
    out = capsys.readouterr().out
    assert "1 hop" in out and "direct edge" not in out
    assert out.count("competitors for COO -> CSR:") == 1
    if EXT == "external":
        assert "scipy-coo-csr" in out


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
    assert "plan HASH -> CSR: HASH -> CSR (1 hop," in out
    assert "1. HASH -> CSR [" in out
    assert "  ladder rung " in out


def test_plan_command_json_save_load(tmp_path, capsys):
    path = str(tmp_path / "plan.json")
    main(["plan", "HASH", "CSR", "--json", "--save", path])
    out = capsys.readouterr().out
    assert '"repro-conversion-plan"' in out and f"wrote {path}" in out
    main(["plan", "--load", path])
    out = capsys.readouterr().out
    assert "plan HASH -> CSR" in out and "1 hop" in out


def test_plan_command_show_code(capsys):
    main(["plan", "COO", "CSR", "--backend", "vector", "--show-code"])
    out = capsys.readouterr().out
    assert "def convert_COO_to_CSR" in out
    main(["plan", "COO", "CSR", "--show-code"])
    out = capsys.readouterr().out
    # the auto plan may pick a registered converter (no generated code)
    # or, once the process built it, the native kernel (C source)
    assert "convert_COO_to_CSR" in out or "registered converter" in out


def test_convert_explicit_route_auto_with_backend_conflicts(mtx):
    with pytest.raises(SystemExit, match="conflicts with route='auto'"):
        main(["convert", mtx, "--to", "CSR", "--route", "auto",
              "--backend", "scalar"])


def test_plan_command_requires_pair_or_load():
    with pytest.raises(SystemExit):
        main(["plan"])
    with pytest.raises(SystemExit):
        main(["plan", "--load", "/no/such/plan.json"])


@pytest.mark.skipif(detect_toolchain() is None, reason="no C toolchain")
def test_convert_cache_dir_warm_start(mtx, tmp_path, capsys):
    """--cache-dir persists native kernels: the second run binds the
    first run's .so and compiles nothing."""
    cache = str(tmp_path / "kernels")
    argv = ["convert", mtx, "--to", "CSR", "--backend", "native",
            "--cache-dir", cache]
    main(argv)
    cold = capsys.readouterr().out
    assert "0 disk hit(s)" in cold and "1 compile(s)" in cold
    main(argv)
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
