"""Command-line interface and mesh export."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transurf.cli import build_parser, main
from transurf.expr import parse_expr
from transurf.gallery import gallery
from transurf.mesh import write_mesh


class TestClassifyCommand:
    def test_paraboloid(self, capsys):
        assert main(["classify", "--f", "u^2", "--g", "v^2"]) == 0
        out = capsys.readouterr().out
        assert "paraboloid_of_revolution" in out
        assert "a = 1" in out
        assert "residual at (1, 1): 0" in out

    def test_cylinder(self, capsys):
        assert main(["classify", "--f", "u^3", "--g", "2*v"]) == 0
        assert "cylinder_or_plane" in capsys.readouterr().out

    def test_not_weingarten_with_witness(self, capsys):
        assert main(["classify", "--f", "u^3/3", "--g", "v^3/3"]) == 0
        out = capsys.readouterr().out
        assert "not_weingarten" in out
        assert "witness monomial" in out

    def test_non_polynomial_redirects(self, capsys):
        code = main(["classify", "--f", "log(abs(cos(u)))", "--g", "0"])
        assert code == 2
        out = capsys.readouterr().out
        assert "weingarten" in out  # points at the numeric subcommand

    def test_json_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        main(["classify", "--f", "u^2", "--g", "v^2", "--out", str(out_file)])
        capsys.readouterr()
        report = json.loads(out_file.read_text())
        assert report["kind"] == "paraboloid_of_revolution"
        assert report["a"] == "1"


    def test_condition_built_once(self, monkeypatch, capsys):
        import transurf.classify as classify
        import transurf.cli as cli

        calls = []
        original = classify.jacobian_direct
        counting = lambda gen: calls.append(gen) or original(gen)
        for module in (classify, cli):
            monkeypatch.setattr(module, "jacobian_direct", counting, raising=False)
        assert main(["classify", "--f", "u^3/3", "--g", "v^2"]) == 0
        assert len(calls) == 1
        assert "condition polynomial: " in capsys.readouterr().out

    def test_parser_built_once(self):
        # A new parser per call would leave a reference cycle per call.
        assert build_parser() is build_parser()


class TestWeingartenCommand:
    def test_no_evaluable_points(self, capsys):
        # sqrt(u) is undefined on the whole rectangle u in [-2, -1].
        code = main(["weingarten", "--f", "sqrt(u)", "--g", "v^3", "--rect=-2,-1,-1,1", "--n", "5"])
        assert code == 2
        out = capsys.readouterr().out
        assert "no evaluable points" in out
        assert "passes" not in out
        assert "skipped 25" in out

    def test_scherk_passes(self, capsys):
        code = main([
            "weingarten",
            "--f", "log(abs(cos(u)))",
            "--g=-log(abs(cos(v)))",
            "--rect=-1,1,-1,1",
            "--n", "11",
        ])
        assert code == 0
        assert "passes" in capsys.readouterr().out

    def test_case_two_fails(self, capsys):
        code = main([
            "weingarten",
            "--f", "u^3/3",
            "--g", "v^2/2",
            "--rect", "0.3,1.5,0.3,1.5",
            "--n", "11",
        ])
        assert code == 1
        assert "fails" in capsys.readouterr().out

    def test_field_export(self, tmp_path, capsys):
        field = tmp_path / "field.csv"
        main([
            "weingarten", "--f", "u^2", "--g", "v^2",
            "--rect=-1,1,-1,1", "--n", "5", "--field", str(field),
        ])
        capsys.readouterr()
        lines = field.read_text().strip().splitlines()
        assert lines[0] == "u,v,jacobian"
        assert len(lines) == 26  # header + 5x5 grid


class TestCurvatureCommand:
    def test_point_sample(self, capsys):
        assert main(["curvature", "--f", "u^2", "--g", "v^2", "--u", "1", "--v", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.37037" in out and "0.049382" in out

    @pytest.mark.parametrize(
        "f, g, bad",
        [("u*v", "v", "--f"), ("u^2", "sin(u) + v", "--g")],
    )
    def test_wrong_variable_rejected(self, capsys, f, g, bad):
        # z = uv + v has K != 0; differentiating f in u alone would print K = 0.
        assert main(["curvature", "--f", f, "--g", g, "--u", "2", "--v", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad} must be a function of")
        assert len(captured.err.splitlines()) == 1

    def test_parse_error_exit_code(self, capsys):
        assert main(["classify", "--f", "u^", "--g", "v"]) == 2
        assert "position" in capsys.readouterr().err
        # argparse passes "--f=--" on as an empty list, not a string.
        assert main(["curvature", "--f=--", "--g=v", "--u=1", "--v=1"]) == 2
        assert "end of input" in capsys.readouterr().err


class TestScanCommand:
    def test_default_grid(self, capsys):
        assert main(["scan", "--condition", "jacobian"]) == 0
        out = capsys.readouterr().out
        assert "requires_equal" in out
        assert "20 pairs" in out


class TestLwfitCommand:
    def test_cylinder(self, capsys):
        assert main(["lwfit", "--f", "u^3", "--g", "0", "--n", "9"]) == 0
        assert "residual rms" in capsys.readouterr().out


class TestVerifyCommand:
    def test_single_target(self, capsys):
        assert main(["verify", "thmA"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] thmA/minimal_surface" in out
        assert "overall: PASS" in out

    def test_unknown_target_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_report_determinism(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["verify", "eq15", "--out", str(first)])
        main(["verify", "eq15", "--out", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestMeshCommand:
    def test_paraboloid_obj_counts(self, tmp_path, capsys):
        path = tmp_path / "para.obj"
        code = main([
            "mesh", "--f", "u^2", "--g", "v^2",
            "--rect=-1,1,-1,1", "--n", "50", "--format", "obj",
            "--out-path", str(path),
        ])
        assert code == 0
        capsys.readouterr()
        text = path.read_text().splitlines()
        vertices = [l for l in text if l.startswith("v ")]
        faces = [l for l in text if l.startswith("f ")]
        assert len(vertices) == 2500
        assert len(faces) == 2 * 49 * 49

    def test_scherk_csv_heights(self, tmp_path, capsys):
        path = tmp_path / "scherk.csv"
        main([
            "mesh", "--f", "log(abs(cos(u)))", "--g=-log(abs(cos(v)))",
            "--rect=-1.4,1.4,-1.4,1.4", "--n", "9", "--format", "csv",
            "--out-path", str(path),
        ])
        capsys.readouterr()
        rows = path.read_text().strip().splitlines()[1:]
        assert len(rows) == 81
        x, y, z = (float(part) for part in rows[3].split(","))
        expected = math.log(abs(math.cos(x))) - math.log(abs(math.cos(y)))
        assert z == pytest.approx(expected, rel=1e-12)


class TestMeshModule:
    def test_singular_cells_omitted(self, tmp_path):
        surf = gallery("blair", c=1)
        stats = write_mesh(
            surf.f, surf.g, (-0.5, 1.5, -0.5, 1.5), 5, "obj", str(tmp_path / "b.obj")
        )
        # Fractional powers are undefined for negative parameters.
        assert stats.skipped_vertices > 0
        assert stats.vertices + stats.skipped_vertices == 25

    def test_counter_clockwise_winding(self, tmp_path):
        path = tmp_path / "flat.obj"
        write_mesh(parse_expr("0"), parse_expr("0"), (0, 1, 0, 1), 2, "obj", str(path))
        lines = path.read_text().splitlines()
        verts = [tuple(map(float, l.split()[1:])) for l in lines if l.startswith("v ")]
        face = next(l for l in lines if l.startswith("f "))
        i, j, k = (int(s) - 1 for s in face.split()[1:])
        ax, ay, _ = verts[i]
        bx, by, _ = verts[j]
        cx, cy, _ = verts[k]
        cross_z = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        assert cross_z > 0  # upward normal

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_mesh(parse_expr("0"), parse_expr("0"), (0, 1, 0, 1), 3, "stl",
                       str(tmp_path / "x"))


class TestVerifyWiring:
    def test_every_target_has_checks(self):
        from transurf.verify import CHECKS, TARGETS

        for target, names in TARGETS.items():
            assert names, target
            for name in names:
                assert name in CHECKS
        # Every check is reachable from some target.
        reachable = {name for names in TARGETS.values() for name in names}
        assert reachable == set(CHECKS)


# Fuzz inputs: well-formed expressions from the grammar, some past the
# depth, degree and coefficient caps, overflowing, or in the wrong
# variable; and loose token strings, which are mostly malformed.
FUZZ_TOKENS = [
    "u", "v", "2", "3/2", ".5", "99999999", " ", "+", "-", "*", "/", "^",
    "^2", "^(1/3)", "^-1", "^99999999", "(", ")", "sin(", "log(", "sqrt(",
    "(" * 60, "u+" * 60, "sin(" * 30,
]
_leaf = st.sampled_from(["u", "v", "0", "2", "3/2", ".5", "99999999"])


def _grow(child):
    return st.one_of(
        st.tuples(child, st.sampled_from(["+", "-", "*", "/"]), child).map("".join),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]), child)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(child, st.sampled_from(["2", "(1/3)", "-1", "60", "99999999", "(7/2)"]))
        .map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(child, st.sampled_from([30, 60])).map(lambda t: "(" * t[1] + t[0] + ")" * t[1]),
        st.tuples(child, st.sampled_from([30, 60])).map(lambda t: "+".join([t[0]] * t[1])),
    )


fuzz_text = st.one_of(
    st.recursive(_leaf, _grow, max_leaves=6),
    st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=8).map("".join),
)


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(fuzz_text, fuzz_text)
    def test_exit_code_and_no_traceback(self, f, g):
        # f with u and v swapped makes a g in the right variable when f is one.
        mirrored = f.translate(str.maketrans("uv", "vu"))
        for other in (g, mirrored):
            for argv in (
                ["classify", f"--f={f}", f"--g={other}"],
                ["curvature", f"--f={f}", f"--g={other}", "--u=0.7", "--v=-0.4"],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse's own usage errors
                        code = exc.code
                assert code in (0, 1, 2), argv
                assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
