import json
import subprocess
import sys

import pytest

from shapeid.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def square_pgm(tmp_path, capsys):
    path = tmp_path / "square.pgm"
    assert main(["generate", "square", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


def test_classify_plain(square_pgm, capsys):
    code, out, err = run_cli(["classify", str(square_pgm)], capsys)
    assert code == 0
    assert out.strip() == "Square"
    assert err == ""


def test_classify_json_schema(square_pgm, capsys):
    code, out, _ = run_cli(["classify", "--json", str(square_pgm)], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"file", "label", "elapsed_ms", "features", "evidence"}
    assert report["label"] == "Square"
    assert report["elapsed_ms"] >= 0
    assert set(report["features"]) == {
        "sides", "diagonals", "sd", "area_px", "poly_area",
        "bulge_ratio", "hemisphere",
    }
    assert set(report["evidence"]) == {
        "degenerate_corners", "equal_sides", "half_disk_area", "paired_sides",
    }


def test_plain_and_json_agree(square_pgm, capsys):
    _, plain, _ = run_cli(["classify", str(square_pgm)], capsys)
    _, jtext, _ = run_cli(["classify", "--json", str(square_pgm)], capsys)
    assert plain.strip() == json.loads(jtext)["label"]


def test_classify_corrupt_header(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n2 2\n255\n....")
    code, _, err = run_cli(["classify", str(bad)], capsys)
    assert code != 0
    assert "PGM" in err


def test_classify_short_file_promising_a_huge_image(tmp_path, capsys):
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P2\n100000 100000\n255\n0 0 0\n")
    code, out, err = run_cli(["classify", str(short)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: PGM parse failed for {short}: pixel data holds 3 values")


def test_classify_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["classify", str(tmp_path / "nope.pgm")], capsys)
    assert code != 0
    assert "cannot read" in err


def test_classify_blank_image_names_stage(tmp_path, capsys):
    flat = tmp_path / "flat.pgm"
    flat.write_bytes(b"P5\n8 8\n255\n" + bytes(64))
    code, _, err = run_cli(["classify", str(flat)], capsys)
    assert code != 0
    assert "segmentation" in err


def test_classify_fixed_threshold(square_pgm, capsys):
    code, out, _ = run_cli(
        ["classify", "--threshold", "fixed:128", str(square_pgm)], capsys
    )
    assert code == 0
    assert out.strip() == "Square"


def test_classify_bad_threshold_flag(square_pgm, capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--threshold", "fixed:abc", str(square_pgm)])


def test_classify_unknown_is_success(tmp_path, capsys):
    import numpy as np

    from shapeid import write_pgm

    img = np.zeros((128, 128), dtype=np.uint8)
    img[20:100, 20:50] = 255
    img[70:100, 20:110] = 255
    path = tmp_path / "lshape.pgm"
    path.write_bytes(write_pgm(img))
    code, out, _ = run_cli(["classify", str(path)], capsys)
    assert code == 0
    assert out.strip() == "Unknown"


def test_classify_invalid_tolerance_flag(square_pgm, capsys):
    code, _, err = run_cli(["classify", "--rel-eps", "0.7", str(square_pgm)], capsys)
    assert code != 0
    assert "rel_eps" in err


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert main(["generate", "square", "--size", "256x256", "-o", str(a)]) == 0
    assert main(["generate", "square", "--size", "256x256", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_generate_corpus_files(tmp_path, capsys):
    out = tmp_path / "shapes"
    assert main(["generate", "corpus", "-o", str(out)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out.glob("*.pgm"))
    assert names == sorted(
        f"{n}.pgm" for n in (
            "rectangle", "cylinder", "kite", "square",
            "rhombus", "hemisphere", "triangle", "cone",
        )
    )


def test_generate_rotate_flag(tmp_path, capsys):
    out = tmp_path / "rot.pgm"
    assert main(["generate", "square", "--rotate", "30", "-o", str(out)]) == 0
    capsys.readouterr()
    code, label, _ = run_cli(["classify", str(out)], capsys)
    assert code == 0
    assert label.strip() == "Square"


def test_generate_unknown_shape(tmp_path, capsys):
    code, _, err = run_cli(
        ["generate", "pentagon", "-o", str(tmp_path / "x.pgm")], capsys
    )
    assert code != 0
    assert "unknown shape" in err


def test_generate_rejects_bulge_on_flat_shape(tmp_path, capsys):
    code, _, err = run_cli(
        ["generate", "square", "--bulge", "10", "-o", str(tmp_path / "x.pgm")],
        capsys,
    )
    assert code != 0
    assert "bulge" in err


@pytest.mark.parametrize("shape, option, name", [
    ("cylinder", "--bulge=nan", "Cylinder bulge"),
    ("square", "--rotate=nan", "Square rotation"),
    ("square", "--rotate=inf", "Square rotation"),
    ("square", "--rotate=-inf", "Square rotation"),
])
def test_generate_non_finite_parameter_is_usage_error(tmp_path, capsys, shape, option, name):
    out = tmp_path / "x.pgm"
    code, stdout, err = run_cli(["generate", shape, option, "-o", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {name} must be finite, got {float(option.split('=')[1])}\n"
    assert not out.exists()


def test_bench_csv_shape(capsys):
    code, out, _ = run_cli(["bench", "--repeat", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shape,size,mean_ms,min_ms,max_ms"
    assert len(lines) == 10
    shapes = [line.split(",")[0] for line in lines[1:]]
    assert shapes == [
        "rectangle", "cylinder", "kite", "square", "rhombus",
        "hemisphere", "triangle", "cone", "average",
    ]
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] == "256x256"
        for value in fields[2:]:
            assert float(value) >= 0.0


def test_bench_average_row_is_the_column_means(capsys):
    code, out, _ = run_cli(["bench", "--repeat", "2"], capsys)
    assert code == 0
    *shapes, average = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(shapes) == 8 and average[:2] == ["average", "256x256"]
    for column in (2, 3, 4):
        mean = sum(float(row[column]) for row in shapes) / len(shapes)
        # Each printed value is rounded to 0.001: the mean of the shape
        # rows is off by at most 0.0005, and the printed average too.
        assert abs(float(average[column]) - mean) <= 0.0015


def test_bench_other_size(capsys):
    code, out, _ = run_cli(["bench", "--repeat", "1", "--size", "128x128"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "128x128"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shapeid", "bench", "--repeat", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("shape,size,mean_ms,min_ms,max_ms")


def test_classify_stage_error_exit_code(tmp_path, capsys):
    import numpy as np

    from shapeid import write_pgm

    img = np.zeros((16, 16), dtype=np.uint8)
    img[5, 4:7] = 255
    path = tmp_path / "line.pgm"
    path.write_bytes(write_pgm(img))
    code, out, err = run_cli(["classify", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: feature extraction: degenerate boundary: all points collinear\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_classify_non_finite_degen_eps_is_usage_error(square_pgm, value, capsys):
    code, out, err = run_cli(["classify", "--degen-eps", value, str(square_pgm)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: degen_eps must be finite and positive, got {float(value)}\n"


def test_classify_help_shows_tolerance_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "relative length tolerance (default 0.05)" in help_text
    assert "relative area tolerance (default 0.1)" in help_text


@pytest.mark.parametrize("size", ["16x16", "24x24"])
def test_bench_too_small_for_corpus_is_usage_error(size, capsys):
    code, out, err = run_cli(["bench", "--repeat", "1", "--size", size], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be >= 8 px" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize("size", ["1048576x16", "16x1048576"])
def test_size_at_the_side_limit_is_usage_error(command, size, capsys):
    argv = ["generate", "square", "-o", "unused.pgm"] if command == "generate" else ["bench"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--size", size])
    assert exc.value.code == 2
    assert f"image sides must be below 1048576 px, got {size}" in capsys.readouterr().err


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("dims", [b"1048576 1", b"1 1048576"])
def test_classify_header_side_at_the_limit_is_parse_error(dims, binary, tmp_path, capsys):
    path = tmp_path / "wide.pgm"
    header = (b"P5\n" if binary else b"P2\n") + dims + b"\n255\n"
    path.write_bytes(header + (b"\0" if binary else b"0 ") * 1048576)
    code, out, err = run_cli(["classify", str(path)], capsys)
    assert code == 2
    assert out == ""
    side = "width" if dims.startswith(b"1048576") else "height"
    assert err == (
        f"error: PGM parse failed for {path}: {side} must be below 1048576, got 1048576 "
        f"(byte offset {header.index(b'1048576')})\n"
    )


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_repeat_below_one_rejected(repeat, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--repeat", repeat])
    assert exc.value.code == 2
    assert "repeat must be at least 1" in capsys.readouterr().err


def test_repeated_calls_match_a_fresh_process(square_pgm, tmp_path, capsys, monkeypatch):
    # Help is wrapped to COLUMNS; pin it for this process and the fresh ones.
    monkeypatch.setenv("COLUMNS", "100")
    argvs = [
        ["classify", str(square_pgm)],
        ["classify", "--threshold", "bogus", str(square_pgm)],
        ["classify", str(tmp_path / "missing.pgm")],
        ["classify", "--help"],
        ["generate", "hexagon", "-o", str(tmp_path / "h.pgm")],
        ["bench", "--repeat", "0"],
        ["frobnicate"],
        [],
    ]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "shapeid", *argv], capture_output=True, text=True
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    for order in (argvs, argvs[::-1], argvs):
        for argv in order:
            assert in_process(argv) == fresh[argvs.index(argv)], argv
