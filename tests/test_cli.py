import json

import numpy as np

from hodgecor.cli import main
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

    def test_malformed_word_exit_2(self):
        assert main(["correlator", "--word", "C(s:a bogus!!)"]) == 2

    def test_coincident_points_exit_3(self):
        code = main([
            "correlator", "--word", "C(s:a s:b s:c)",
            "--point", "a=0", "--point", "b=0", "--point", "c=1",
            "--samples", "4096",
        ])
        assert code == 3

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


class TestIdentities:
    def test_forms_suite(self, capsys):
        assert main(["identities", "--suite", "forms", "--max-m", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

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


class TestReference:
    def test_dilog_coproduct_table(self, capsys):
        assert main(["reference", "--table", "dilog-coproduct"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_sv_polylog_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["reference", "--table", "sv-polylog", "--grid", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im,L2"
        assert len(lines) > 5

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
