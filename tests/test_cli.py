import dataclasses
import json

import numpy as np
import pytest

from hodgecor import cli
from hodgecor.cli import main
from hodgecor.form_calculus import FormPolynomial
from hodgecor.geometry import INFINITY, cross_ratio, single_valued_polylog


class TestCorrelator:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main([
            "correlator", "--curve", "p1", "--mu", "delta:inf",
            "--word", "C(s:a s:b s:c)",
            "--point", "a=0", "--point", "b=1", "--point", "c=0.3+0.1i",
            "--samples", str(1 << 15), "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        val = payload["value"]["re"] + 1j * payload["value"]["im"]
        target = -single_valued_polylog(2, cross_ratio(INFINITY, 0, 1, 0.3 + 0.1j)) \
            / (2j * np.pi) ** 2
        assert abs(val - target) < max(3 * payload["stderr"], 0.05 * abs(target))
        assert payload["request"]["word"] == "C(s:a s:b s:c)"

    def test_signed_point_label_in_word(self, tmp_path):
        out = tmp_path / "res.json"
        code = main([
            "correlator", "--word", "C(s:0 s:1 s:0.3+0.1i)",
            "--samples", str(1 << 15), "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        val = payload["value"]["re"] + 1j * payload["value"]["im"]
        target = -single_valued_polylog(2, cross_ratio(INFINITY, 0, 1, 0.3 + 0.1j)) \
            / (2j * np.pi) ** 2
        assert abs(val - target) < max(3 * payload["stderr"], 0.05 * abs(target))

    def test_malformed_word_exit_2(self):
        assert main(["correlator", "--word", "C(s:a bogus!!)"]) == 2

    def test_coincident_points_exit_3(self):
        code = main([
            "correlator", "--word", "C(s:a s:b s:c)",
            "--point", "a=0", "--point", "b=0", "--point", "c=1",
            "--samples", "4096",
        ])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["--word", "C(s:0 s:0)"],
        ["--curve", "elliptic:tau=1i", "--mu", "volume",
         "--word", "C(s:a s:a)", "--point", "a=0.2"],
    ])
    def test_two_letters_on_one_point_exit_3(self, argv, capsys):
        # the word's one edge would evaluate G(a, a)
        code = main(["correlator", *argv, "--samples", "4096"])
        assert code == 3
        assert "G(a, a)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--mu", "delta:nan", "--word", "C(s:0 s:1 s:2)"],
        ["--word", "C(s:0 s:1 s:a)", "--point", "a=nan"],
    ])
    def test_non_finite_input_exit_2(self, argv, capsys):
        code = main(["correlator", *argv, "--samples", "4096"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_point_label_exit_3(self, capsys):
        code = main(["correlator", "--word", "C(s:0 s:1 s:nan)",
                     "--samples", "4096"])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    def test_p1_volume_measure_exit_3(self, capsys):
        code = main([
            "correlator", "--curve", "p1", "--mu", "volume",
            "--word", "C(s:0 s:1 s:z)", "--point", "z=0.3+0.1i",
            "--samples", "4096",
        ])
        assert code == 3
        assert "delta measure" in capsys.readouterr().err

    def test_torus_delta_at_infinity_exit_3(self, capsys):
        code = main([
            "correlator", "--curve", "elliptic:tau=1i", "--mu", "delta:inf",
            "--word", "C(s:a s:b s:c)", "--point", "a=0.1+0.2i",
            "--point", "b=0.5+0.3i", "--point", "c=0.7+0.8i",
            "--samples", "4096",
        ])
        assert code == 3
        assert "infinity" in capsys.readouterr().err

    def test_torus_point_at_infinity_exit_3(self, capsys):
        code = main([
            "correlator", "--curve", "elliptic:tau=1i", "--mu", "volume",
            "--word", "C(s:a s:b s:c)", "--point", "a=inf",
            "--point", "b=0.3", "--point", "c=0.5+0.2i", "--samples", "4096",
        ])
        assert code == 3
        assert "'a' is at infinity" in capsys.readouterr().err

    def test_lone_form_edge_exit_3(self, capsys):
        # a two-letter word with a form letter: one edge, and no Green edge
        code = main([
            "correlator", "--curve", "elliptic:tau=1i", "--mu", "volume",
            "--word", "C(s:a dz1)", "--point", "a=0.1", "--samples", "4096",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "no Green edge" in err and "unpack" not in err

    @pytest.mark.parametrize("argv, why", [
        (["--curve", "elliptic:tau=1i", "--mu", "volume",
          "--word", "C(s:a p1 s:b)"], "symplectic generator"),
        (["--curve", "elliptic:tau=1i", "--mu", "volume",
          "--word", "C(s:a q1 s:b)"], "symplectic generator"),
        (["--curve", "elliptic:tau=1i", "--mu", "volume",
          "--word", "C(s:a dz2 s:b)"], "genus 1"),
        (["--curve", "p1", "--mu", "delta:2.5-1i",
          "--word", "C(s:inf dz1 dzb1)"], "genus 0"),
    ], ids=("torus-p1", "torus-q1", "torus-dz2", "p1-forms"))
    def test_letter_the_curve_cannot_integrate_exit_3(self, argv, why, capsys):
        # p/q letters used to be read as dz-bar forms, the form index was
        # ignored, and P^1 has no holomorphic 1-forms at all
        code = main(["correlator", *argv, "--point", "a=0.1",
                     "--point", "b=0.4+0.3i", "--samples", "4096"])
        assert code == 3
        assert why in capsys.readouterr().err

    def test_torus_point_on_base_up_to_a_period_exit_3(self, capsys):
        code = main([
            "correlator", "--curve", "elliptic:tau=1i", "--mu", "delta:0.5",
            "--word", "C(s:a s:b s:c)", "--point", "a=1.5",
            "--point", "b=0.5+0.3i", "--point", "c=0.7+0.8i",
            "--samples", "4096",
        ])
        assert code == 3
        assert "base point" in capsys.readouterr().err

    def test_torus_points_equal_up_to_a_period_exit_3(self, capsys):
        code = main([
            "correlator", "--curve", "elliptic:tau=1i", "--mu", "volume",
            "--word", "C(s:a s:b s:c)", "--point", "a=0.1",
            "--point", "b=1.1", "--point", "c=0.7+0.8i",
            "--samples", "4096",
        ])
        assert code == 3
        assert "coincide" in capsys.readouterr().err

    def test_p1_finite_base_with_point_at_infinity(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main([
            "correlator", "--curve", "p1", "--mu", "delta:2",
            "--word", "C(s:inf s:0 s:z)", "--point", "z=0.3+0.1i",
            "--samples", "4096", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert np.isfinite(payload["value"]["re"]) and np.isfinite(payload["stderr"])
        # at real points the correlator is zero (the Bloch-Wigner function
        # vanishes on the real line): a finite estimate within its error
        # bar, so the variance rule gives exit 4 where it printed NaN
        code = main([
            "correlator", "--curve", "p1", "--mu", "delta:2",
            "--word", "C(s:inf s:0 s:1)", "--samples", "4096", "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        val = complex(payload["value"]["re"], payload["value"]["im"])
        assert np.isfinite(payload["stderr"])
        assert abs(val) <= 4 * payload["stderr"]
        assert code == 4
        assert "is above half of |value|" in capsys.readouterr().err


    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        # rejected by the parser, before any sampling
        with pytest.raises(SystemExit) as exc:
            main(["correlator", "--word", "C(s:0 s:1 s:2)",
                  "--out", str(tmp_path / "no" / "x.json")])
        assert exc.value.code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_out_dash_writes_standard_output(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["correlator", "--word", "C(s:0 s:1 s:0.3+0.1i)",
                     "--samples", "4096", "--seed", "3", "--out", "-"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["request"]["word"] == "C(s:0 s:1 s:0.3+0.1i)"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tau", ("1e-300i", "1e-6i"))
    def test_tau_too_close_to_the_real_axis_exit_2(self, tau, capsys):
        # the reduced lattices have Im tau' = 1e300 and 1e6
        code = main(["correlator", "--curve", f"elliptic:tau={tau}",
                     "--mu", "volume", "--word", "C(s:0 s:0.2 s:0.4)",
                     "--samples", "4096"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Im tau'" in err and "above the bound 200" in err


class TestIdentities:
    def test_forms_suite(self, capsys):
        assert main(["identities", "--suite", "forms", "--max-m", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_forms_suite_covers_max_m(self, capsys):
        assert main(["identities", "--suite", "forms", "--max-m", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("[PASS]") and "m <= 6" in line
                   for line in lines)

    def test_empty_omega_star_fails(self, monkeypatch, capsys):
        # an empty polynomial has no coefficient that is not +-1
        monkeypatch.setattr(cli, "omega_star", lambda a, b: FormPolynomial())
        assert main(["identities", "--suite", "forms", "--max-m", "1"]) == 1
        assert "[FAIL] omega_star_pm1" in capsys.readouterr().out

    def test_algebra_suite(self, capsys):
        assert main(["identities", "--suite", "algebra", "--trials", "6"]) == 0

    def test_derivations_suite(self, capsys):
        assert main(["identities", "--suite", "derivations", "--trials", "4"]) == 0

    def test_numeric_suite(self, capsys):
        assert main(["identities", "--suite", "numeric", "--samples", "8192"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] dihedral_depth3" in out and "FAIL" not in out

    def test_trees_suite(self, capsys):
        assert main(["identities", "--suite", "trees", "--trials", "4",
                     "--max-leaves", "5"]) == 0


class TestCounts:
    @pytest.mark.parametrize("argv", [
        ["correlator", "--word", "C(s:0 s:1 s:2)", "--samples", "-5"],
        ["identities", "--suite", "trees", "--trials", "-3"],
        ["identities", "--suite", "forms", "--max-m", "0"],
        ["identities", "--suite", "trees", "--max-leaves", "0"],
        ["identities", "--suite", "numeric", "--samples", "0"],
        ["reference", "--table", "sv-polylog", "--grid", "-1"],
        ["reference", "--table", "sv-polylog", "--grid", "two"],
    ])
    def test_non_positive_count_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_exit_2(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["correlator", "--word", "C(s:0 s:1 s:2)", "--seed", seed])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_one_letter_words_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identities", "--suite", "trees", "--max-leaves", "1"])
        assert exc.value.code == 2
        assert "at least 2 letters" in capsys.readouterr().err


class TestReference:
    def test_dilog_coproduct_table(self, capsys):
        assert main(["reference", "--table", "dilog-coproduct"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_dilog_coproduct_out(self, tmp_path, capsys):
        """The PASS/FAIL line goes to the --out file, not to stdout."""
        out = tmp_path / "cop.txt"
        assert main(["reference", "--table", "dilog-coproduct",
                     "--out", str(out)]) == 0
        assert out.read_text() == "0 mod 2-torsion: PASS\n"
        assert capsys.readouterr().out == ""

    def test_sv_polylog_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["reference", "--table", "sv-polylog", "--grid", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im,L2"
        assert len(lines) > 5

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reference", "--table", "sv-polylog",
                  "--out", str(tmp_path / "no" / "x.csv")])
        assert exc.value.code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_ek_convergence_csv(self, tmp_path):
        out = tmp_path / "ek.csv"
        assert main(["reference", "--table", "ek-convergence",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("radius")
        assert len(lines) == 5


class TestRoundTrip:
    def test_json_request_reproduces_result(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["correlator", "--word", "C(s:0 s:1 s:z)", "--point",
                "z=0.35+0.2i", "--samples", str(1 << 14), "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        payload = json.loads(out1.read_text())
        req = payload["request"]
        rebuilt = ["correlator", "--curve", req["curve"], "--mu", req["mu"],
                   "--word", req["word"], "--samples", str(req["samples"]),
                   "--seed", str(req["seed"]), "--scheme", req["scheme"],
                   "--normalization", req["normalization"]]
        for k, v in req["points"].items():
            rebuilt += ["--point", f"{k}={v.replace('j', 'i').strip('()')}"]
        assert main(rebuilt + ["--out", str(out2)]) == 0
        p2 = json.loads(out2.read_text())
        assert p2["value"] == payload["value"]
        assert p2["stderr"] == payload["stderr"]


def test_rows_left_singular_exit_4(monkeypatch, capsys):
    """Rows still on a singularity after the 8 redraws end in exit 4 with a
    message, and the JSON reports their count."""
    from hodgecor.engine import _Mixture
    build = _Mixture.build

    def planted(self, U):
        A, B, order, twin = build(self, U)
        # every draw, redraws included; rows of the draw, not of the grouping
        A[np.argsort(order)[::1024], 0] = 0.0
        return A, B, order, twin

    monkeypatch.setattr(_Mixture, "build", planted)
    with np.errstate(divide="ignore", invalid="ignore"):
        code = main(["correlator", "--word", "C(s:0 s:1 s:0.3+0.1i)",
                     "--samples", "4096", "--seed", "3", "--out", "-"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "8 sample rows" in err
    assert json.loads(out)["metadata"]["residual_singular"] == 8


def test_raw_normalization_exit_0(tmp_path):
    """`--normalization raw` runs and reports the plain tree sum."""
    out = tmp_path / "raw.json"
    code = main(["correlator", "--word", "C(s:0 s:1 s:0.3+0.1i)",
                 "--normalization", "raw", "--samples", "8192", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["normalization"] == "raw"
    assert payload["request"]["normalization"] == "raw"


def test_non_finite_result_exit_4(monkeypatch, capsys):
    """A value or stderr that is not finite ends in exit 4 with a message;
    the NaN stderr is planted in a real result."""
    correlate = cli.correlate
    monkeypatch.setattr(cli, "correlate", lambda req: dataclasses.replace(
        correlate(req), stderr=float("nan")))
    code = main(["correlator", "--curve", "elliptic:tau=1i",
                 "--mu", "volume", "--word", "C(s:0 s:0.2 s:0.4)",
                 "--samples", "4096", "--out", "-"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "not finite" in err
    assert _strict_json(out)["stderr"] is None


def _strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens,
    which are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_numbers_written_as_null(capsys):
    """A delta base at 1e308 overflows the sampler's densities: the value
    and stderr are NaN, exit 4 says so, and the JSON holds null for them."""
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["correlator", "--mu", "delta:1e308",
                     "--word", "C(s:0 s:1 s:2)", "--samples", "1024",
                     "--out", "-"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "not finite" in err
    payload = _strict_json(out)
    assert payload["value"] == {"re": None, "im": None}
    assert payload["stderr"] is None
    assert payload["per_tree"][0]["value"] == {"re": None, "im": None}
    assert payload["samples"] == 8192
