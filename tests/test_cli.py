import json
import math

import numpy as np
import pytest

from qfdiv.cli import _build_parser, format_number, main, parse_matrix_file
from qfdiv.condent import BipartiteState
from qfdiv.errors import DomainError
from qfdiv.linalg import DensityOperator

from conftest import bell_matrix


def write_state(path, matrix, dims=None):
    doc = {
        "dim": matrix.shape[0],
        "re": np.real(matrix).ravel().tolist(),
        "im": np.imag(matrix).ravel().tolist(),
    }
    if dims:
        doc["dims"] = list(dims)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    return write_state(tmp_path / "bell.json", bell_matrix(), dims=(2, 2))


@pytest.fixture
def mixed_file(tmp_path):
    return write_state(tmp_path / "mixed.json", np.eye(2) / 2)


class TestFormatNumber:
    def test_twelve_significant_digits(self):
        assert format_number(-1.0) == "-1.00000000000"
        assert format_number(0.5) == "0.500000000000"
        assert format_number(0.14384103622589045) == "0.143841036226"
        assert format_number(123.456) == "123.456000000"

    def test_rounding_across_power_of_ten(self):
        assert format_number(0.99999999999999) == "1.00000000000"
        assert format_number(9.9999999999995) == "10.0000000000"
        assert format_number(9.99999999999949) == "10.0000000000"
        assert format_number(0.99999999999995e-5) == "0.0000100000000000"

    def test_extreme_magnitudes(self):
        assert format_number(1e-20) == "0.0000000000000000000100000000000"
        assert format_number(1e20) == "100000000000000000000"
        # the smallest subnormal, and a subnormal that rounds to a power of ten
        assert format_number(5e-324) == "0." + "0" * 323 + "494065645841"
        assert format_number(1.000000000003e-312) == "0." + "0" * 311 + "100000000000"

    def test_infinity_literal(self):
        assert format_number(math.inf) == "inf"

    def test_negative_zero_normalized(self):
        assert format_number(-0.0) == "0.00000000000"


class TestParseMatrixFile:
    def test_mixed_state(self, mixed_file):
        op = parse_matrix_file(mixed_file)
        assert isinstance(op, DensityOperator)
        np.testing.assert_allclose(op.entries, np.eye(2) / 2)

    def test_dims_promote_to_bipartite(self, bell_file):
        state = parse_matrix_file(bell_file)
        assert isinstance(state, BipartiteState)
        assert state.dims == (2, 2)

    def test_non_hermitian_names_invariant(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_state(bad, np.eye(2))
        doc = json.loads(bad.read_text())
        doc["re"][1] = 0.5
        bad.write_text(json.dumps(doc))
        with pytest.raises(Exception, match="Hermiticity"):
            parse_matrix_file(str(bad))

    def test_trace_bound_named(self, tmp_path):
        path = write_state(tmp_path / "heavy.json", np.diag([1.0, 0.5]))
        with pytest.raises(Exception, match="trace bound"):
            parse_matrix_file(path)

    @pytest.mark.parametrize("dims", [None, (2, 2)])
    @pytest.mark.parametrize("offset", [5e-11, -5e-11])
    def test_unit_trace_within_tolerance(self, tmp_path, dims, offset):
        path = write_state(tmp_path / "near.json", np.eye(4) / 4 * (1 + offset), dims)
        assert parse_matrix_file(path).trace_value == pytest.approx(1 + offset, abs=1e-15)

    @pytest.mark.parametrize("dims", [None, (2, 2)])
    def test_unit_trace_beyond_tolerance(self, tmp_path, dims):
        path = write_state(tmp_path / "heavy.json", np.eye(4) / 4 * (1 + 2e-10), dims)
        with pytest.raises(DomainError, match="trace bound"):
            parse_matrix_file(path)
        path = write_state(tmp_path / "light.json", np.eye(4) / 4 * (1 - 2e-10), dims)
        if dims is None:
            assert parse_matrix_file(path).trace_value < 1.0  # sub-normalized
        else:
            with pytest.raises(DomainError, match="normalized state"):
                parse_matrix_file(path)

    @pytest.mark.parametrize("dims", [None, (2, 2)])
    def test_negative_eigenvalue_named(self, tmp_path, dims):
        # Hermitian with unit trace: only the eigensolve can reject it
        path = write_state(tmp_path / "indefinite.json", np.diag([1.0, 0.5, -0.5, 0.0]), dims)
        with pytest.raises(DomainError, match="positive semi-definiteness"):
            parse_matrix_file(path)

    def test_wrong_length_rejected(self, tmp_path):
        (tmp_path / "short.json").write_text(json.dumps({"dim": 2, "re": [1, 0], "im": [0, 0]}))
        with pytest.raises(Exception, match="dim\\^2"):
            parse_matrix_file(str(tmp_path / "short.json"))


class TestMatrixFileIntegers:
    """``dim`` and ``dims`` are JSON integers; anything else is one error line, exit 1."""

    def state_doc(self, tmp_path, **fields):
        path = tmp_path / "state.json"
        write_state(path, bell_matrix(), dims=(2, 2))
        doc = json.loads(path.read_text())
        doc.update(fields)
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("dims", [["x", 2], [2.5, 2], [2.0, 2], 4, None, "22"])
    def test_bad_dims_exit_one(self, tmp_path, capsys, dims):
        path = self.state_doc(tmp_path, dims=dims)
        with pytest.raises(DomainError, match="dims"):
            parse_matrix_file(path)
        assert main(["condent", "--state", path, "--family", "kl"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("qfdiv: error:")

    @pytest.mark.parametrize("dim", [2.9, 4.0, "4", None, True])
    def test_bad_dim_exits_one(self, tmp_path, capsys, dim):
        path = self.state_doc(tmp_path, dim=dim)
        with pytest.raises(DomainError, match="dim must be an integer"):
            parse_matrix_file(path)
        assert main(["divergence", "--a", path, "--b", path, "--family", "kl"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("qfdiv: error:")


class TestMalformedMatrixFile:
    """A dim below one or re/im that are not flat lists of dim^2 entries: one error line, exit 1."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"dim": -2, "re": [0.5, 0, 0, 0.5], "im": [0, 0, 0, 0]}, "dim must be at least 1"),
            ({"dim": 0, "re": [], "im": []}, "dim must be at least 1"),
            ({"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [0, 0, 0, 0]}, "flat lists"),
            ({"dim": 2, "re": [0.5, 0, 0, 0.5], "im": [[0, 0], [0, 0]]}, "flat lists"),
        ],
    )
    def test_exits_one_with_one_line(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=message):
            parse_matrix_file(str(path))
        assert main(["divergence", "--a", str(path), "--b", str(path), "--family", "kl"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("qfdiv: error:")


class TestCondentCommand:
    def test_bell_closed_prints_minus_one(self, bell_file, capsys):
        code = main(["condent", "--state", bell_file, "--family", "tsallis",
                     "--alpha", "2", "--method", "closed"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "-1.00000000000"

    def test_methods_agree(self, bell_file, capsys):
        main(["condent", "--state", bell_file, "--family", "tsallis", "--alpha", "0.5",
              "--method", "closed"])
        closed = float(capsys.readouterr().out)
        main(["condent", "--state", bell_file, "--family", "tsallis", "--alpha", "0.5",
              "--method", "optimize"])
        optimized = float(capsys.readouterr().out)
        assert abs(closed - optimized) <= 1e-6

    def test_kl_family(self, bell_file, capsys):
        assert main(["condent", "--state", bell_file, "--family", "kl"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(-math.log(2.0), abs=1e-10)

    def test_custom_family_uses_optimizer(self, bell_file, capsys):
        # the optimizer route that the removed --family custom used to name
        code = main(["condent", "--state", bell_file, "--family", "tsallis", "--alpha", "2",
                     "--method", "optimize"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(-1.0, abs=1e-8)

    def test_unconverged_optimizer_exits_nonzero(self, tmp_path, capsys):
        # one iteration per start leaves every gap on this rank-3 state near 1e-2
        state = str(tmp_path / "state.json")
        assert main(["random", "state", "--dims", "2", "3", "--rank", "3", "--seed", "1",
                     "--out", state]) == 0
        code = main(["condent", "--state", state, "--family", "tsallis", "--alpha", "0.3",
                     "--method", "optimize", "--max-iters", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "no start certified within value_tol 1e-06" in captured.err
        assert "start 3: gap" in captured.err

    def test_fd_step_option_is_gone(self, bell_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["condent", "--state", bell_file, "--family", "tsallis", "--alpha", "2",
                  "--method", "optimize", "--fd-step", "1e-5"])
        assert exc.value.code == 1
        assert "--fd-step" in capsys.readouterr().err

    def test_custom_family_is_gone(self, bell_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["condent", "--state", bell_file, "--family", "custom", "--alpha", "2",
                  "--method", "optimize"])
        assert exc.value.code == 1
        assert "custom" in capsys.readouterr().err

    def test_missing_dims_is_domain_error(self, mixed_file, capsys):
        assert main(["condent", "--state", mixed_file, "--family", "kl"]) == 1
        assert "dims" in capsys.readouterr().err

    def test_optimizer_flag_defaults(self):
        args = _build_parser().parse_args(["condent", "--state", "s.json", "--family", "kl"])
        assert (args.starts, args.value_tol, args.max_iters) == (4, 1e-6, 500)

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--value-tol", "nan", "value_tol"),
            ("--value-tol", "inf", "value_tol"),
            ("--value-tol", "0", "value_tol"),
            ("--max-iters", "-1", "max_iters"),
            ("--starts", "0", "start"),
        ],
    )
    def test_bad_optimizer_option_fails_before_any_solve(
        self, bell_file, capsys, monkeypatch, flag, value, named
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr("qfdiv.cli.conditional_entropy_optimize", no_solve)
        code = main(["condent", "--state", bell_file, "--family", "tsallis", "--alpha", "0.5",
                     "--method", "optimize", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("qfdiv: error: ")
        assert named in captured.err

    def test_seed_option_is_gone(self, bell_file, capsys):
        # random starts come from one fixed stream, so a seed would pick nothing
        with pytest.raises(SystemExit) as exc:
            main(["condent", "--state", bell_file, "--family", "tsallis", "--alpha", "2",
                  "--method", "optimize", "--seed", "1"])
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err


class TestDivergenceCommand:
    def test_self_divergence_zero(self, mixed_file, capsys):
        code = main(["divergence", "--a", mixed_file, "--b", mixed_file, "--family", "kl"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.00000000000"

    @pytest.mark.parametrize("family", ["kl", "tsallis"])
    def test_factored_state_self_divergence_zero(self, bell_file, capsys, family):
        code = main(["divergence", "--a", bell_file, "--b", bell_file, "--family", family,
                     "--alpha", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.00000000000"

    def test_disjoint_prints_inf(self, tmp_path, capsys):
        a = write_state(tmp_path / "a.json", np.diag([1.0, 0.0]))
        b = write_state(tmp_path / "b.json", np.diag([0.0, 1.0]))
        main(["divergence", "--a", a, "--b", b, "--family", "tsallis", "--alpha", "2"])
        assert capsys.readouterr().out.strip() == "inf"

    def test_eps_sweep_close_to_spectral(self, tmp_path, capsys):
        gen = np.random.Generator(np.random.Philox(key=5))
        g = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        sig = 0.85 * rho + 0.15 * np.eye(3) / 3
        a = write_state(tmp_path / "a.json", rho)
        b = write_state(tmp_path / "b.json", sig)
        main(["divergence", "--a", a, "--b", b, "--family", "tsallis", "--alpha", "1.5"])
        spectral = float(capsys.readouterr().out)
        main(["divergence", "--a", a, "--b", b, "--family", "tsallis", "--alpha", "1.5",
              "--eps-sweep"])
        swept = float(capsys.readouterr().out)
        assert abs(spectral - swept) <= 1e-4

    def test_alpha_required_for_tsallis(self, mixed_file, capsys):
        code = main(["divergence", "--a", mixed_file, "--b", mixed_file, "--family", "tsallis"])
        assert code == 1
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
    def test_bad_alpha_is_domain_error(self, mixed_file, capsys, alpha):
        code = main(
            ["divergence", "--a", mixed_file, "--b", mixed_file, "--family", "tsallis",
             "--alpha", alpha]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("qfdiv: error: alpha must be positive and finite")

    def test_non_psd_state_is_domain_error(self, tmp_path, capsys):
        path = write_state(tmp_path / "indefinite.json", np.diag([1.0, 0.5, -0.5, 0.0]), (2, 2))
        assert main(["bounds", "--state", path, "--alpha", "0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qfdiv: error:") and "semi-definiteness" in err


class TestBoundsCommand:
    def test_bell_bounds(self, bell_file, capsys):
        assert main(["bounds", "--state", bell_file, "--alpha", "1"]) == 0
        lower, upper = capsys.readouterr().out.split()
        assert float(lower) == pytest.approx(-math.log(2.0), abs=1e-10)
        assert float(upper) == pytest.approx(0.0, abs=1e-12)


class TestRandomCommand:
    def test_state_round_trip(self, tmp_path):
        out = tmp_path / "state.json"
        assert main(["random", "state", "--dims", "2", "2", "--seed", "5",
                     "--out", str(out)]) == 0
        state = parse_matrix_file(str(out))
        assert isinstance(state, BipartiteState)
        assert state.trace_value == pytest.approx(1.0, abs=1e-12)

    def test_state_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["random", "state", "--dims", "3", "--seed", "9", "--out", str(a)])
        main(["random", "state", "--dims", "3", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_channel_kind_is_gone(self, tmp_path, capsys):
        # no command reads a channel file; random_channel stays in the Python API
        with pytest.raises(SystemExit) as exc:
            main(["random", "channel", "--dims", "2", "3", "2", "--seed", "1",
                  "--out", str(tmp_path / "chan.json")])
        assert exc.value.code == 1
        assert not (tmp_path / "chan.json").exists()

    def test_pure_state(self, tmp_path):
        out = tmp_path / "pure.json"
        main(["random", "state", "--dims", "2", "3", "--rank", "1", "--seed", "2",
              "--out", str(out)])
        state = parse_matrix_file(str(out))
        purity = np.trace(state.entries @ state.entries).real
        assert purity == pytest.approx(1.0, abs=1e-10)

    def test_pure_kind_is_gone(self, tmp_path, capsys):
        # a pure state is `random state --rank 1`
        with pytest.raises(SystemExit) as exc:
            main(["random", "pure", "--dims", "2", "3", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 1

    def test_zero_dimension_names_the_dimension(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["random", "state", "--dims", "0", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dimension must be at least 1" in err
        assert "rank" not in err
        assert not out.exists()

    def test_negative_dimensions_refused_before_writing(self, tmp_path, capsys):
        # the product of -1 and -2 is a valid dimension; each factor is not
        out = tmp_path / "r.json"
        assert main(["random", "state", "--dims", "-1", "-2", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("qfdiv: error:")
        assert "dimension must be at least 1" in err[0]
        assert not out.exists()

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "r.json"
        assert main(["random", "state", "--dims", "2", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"qfdiv: error: cannot write {out}:")

    def test_rank_out_of_range(self, tmp_path, capsys):
        code = main(["random", "state", "--dims", "2", "--rank", "5", "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1


class TestSuiteCommand:
    def test_filtered_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["suite", "--filter", "homogeneity", "--filter", "alpha-continuity",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert [r["property_id"] for r in reports] == ["homogeneity", "alpha-continuity"]
        assert all(r["violations"] == 0 for r in reports)

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "r.json"
        assert main(["suite", "--filter", "mixture-lower", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"qfdiv: error: cannot write {out}:")

    def test_unwritable_output_fails_before_any_property_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        from qfdiv import propsuite

        def must_not_run(*args, **kwargs):
            raise AssertionError("the suite ran although its report cannot be written")

        monkeypatch.setattr(propsuite, "run_suite", must_not_run)
        out = tmp_path / "no-such-dir" / "r.json"
        assert main(["suite", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"qfdiv: error: cannot write {out}:")

    def test_unknown_filter_is_domain_error(self, capsys):
        assert main(["suite", "--filter", "nope"]) == 1

    def test_failed_run_leaves_no_report_file(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["suite", "--filter", "bogus", "--out", str(out)]) == 1
        assert not out.exists()

    def test_stdout_json_when_no_out(self, capsys):
        code = main(["suite", "--filter", "homogeneity", "--seed", "3"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1

    def test_violations_exit_two(self, capsys, monkeypatch):
        from qfdiv import propsuite

        broken = propsuite._PropertySpec(
            check=lambda trial: [-1.0],
            trials=1,
            dims=(2,),
            alphas=(1.0,),
            tolerance=1e-9,
            statement="always violated",
        )
        monkeypatch.setitem(propsuite.REGISTRY, "broken", broken)
        assert main(["suite", "--filter", "broken"]) == 2


class TestUsageErrors:
    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["divergence", "--bogus"])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 1


class TestEpsSweepCommand:
    @pytest.mark.parametrize("family", [["--family", "kl"], ["--family", "tsallis", "--alpha", "1.5"]])
    def test_support_violation_prints_inf(self, tmp_path, capsys, family):
        a = write_state(tmp_path / "a.json", np.eye(2) / 2)
        b = write_state(tmp_path / "b.json", np.diag([1.0, 0.0]))
        assert main(["divergence", "--a", a, "--b", b, *family, "--eps-sweep"]) == 0
        assert capsys.readouterr().out.strip() == "inf"
