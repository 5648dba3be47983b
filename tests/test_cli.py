import json
import multiprocessing
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from ginlab import annihilators, betti, groebner
from ginlab.cli import main
from ginlab.ideals import MonomialIdeal
from ginlab.parsing import parse_ideal
from ginlab.rigidity import BATTERY, STATEMENTS, RigidityContext, battery

from conftest import CANCEL_4, STAIRCASE_3, STRAND_4, force_forms_prime


def write(tmp_path, text, name="ideal.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def schema(name):
    ref = resources.files("ginlab.schemas").joinpath(name)
    return json.loads(ref.read_text())


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBetti:
    def test_text(self, tmp_path, capsys):
        path = write(tmp_path, CANCEL_4)
        code, out, _ = run_main(capsys, "betti", path, "--convention", "ideal")
        assert code == 0
        assert "total:" in out

    def test_json_schema(self, tmp_path, capsys):
        path = write(tmp_path, CANCEL_4)
        code, out, _ = run_main(capsys, "betti", path, "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("betti.schema.json"))

    def test_empty_ideal(self, tmp_path, capsys):
        path = write(tmp_path, "ring poly 2 QQ\n")
        code, out, _ = run_main(capsys, "betti", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] == [{"i": 0, "j": 0, "beta": 1}]

    def test_text_and_json_agree(self, tmp_path, capsys):
        path = write(tmp_path, STRAND_4)
        _, text_out, _ = run_main(capsys, "betti", path, "--convention", "ideal")
        _, json_out, _ = run_main(
            capsys, "betti", path, "--convention", "ideal", "--json"
        )
        entries = json.loads(json_out)["entries"]
        for e in entries:
            assert str(e["beta"]) in text_out


class TestGin:
    def test_staircase_generators(self, tmp_path, capsys):
        from conftest import STAIRCASE_GIN

        path = write(tmp_path, STAIRCASE_3)
        code, out, _ = run_main(capsys, "gin", path)
        assert code == 0
        gens = out.split("--- certificate ---")[0].split()
        assert gens == STAIRCASE_GIN

    def test_json_schema(self, tmp_path, capsys):
        path = write(tmp_path, STAIRCASE_3)
        code, out, _ = run_main(capsys, "gin", path, "--json")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("gin.schema.json"))
        assert payload["certificate"]["strongly_stable"] is True

    def test_monomial_fixed_point(self, tmp_path, capsys):
        path = write(tmp_path, "ring poly 3 QQ\nx1^2\nx1*x2\nx2^2\n")
        code, out, _ = run_main(capsys, "gin", path)
        gens = out.split("--- certificate ---")[0].split()
        assert gens == ["x1^2", "x1*x2", "x2^2"]


class TestAlphaCancelLex:
    def test_alpha(self, tmp_path, capsys):
        path = write(tmp_path, STAIRCASE_3)
        code, out, _ = run_main(capsys, "alpha", path)
        assert code == 0 and "routes agree" in out

    def test_alpha_json_schema(self, tmp_path, capsys):
        path = write(tmp_path, STAIRCASE_3)
        code, out, _ = run_main(capsys, "alpha", path, "--json")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("alpha.schema.json"))
        assert payload["routes_agree"] is True

    def test_cancel(self, tmp_path, capsys):
        path = write(tmp_path, CANCEL_4)
        code, out, _ = run_main(capsys, "cancel", path)
        assert code == 0
        assert "c[1,4] = 1" in out and "c[2,5] = 1" in out

    def test_cancel_json_schema(self, tmp_path, capsys):
        path = write(tmp_path, CANCEL_4)
        _, out, _ = run_main(capsys, "cancel", path, "--json")
        jsonschema.validate(json.loads(out), schema("cancellation.schema.json"))

    def test_lex(self, tmp_path, capsys):
        path = write(tmp_path, "ring poly 2 QQ\nx1*x2\n")
        code, out, _ = run_main(capsys, "lex", path)
        assert code == 0 and out.split() == ["x1^2"]


class TestCheck:
    def test_single_statement(self, tmp_path, capsys):
        path = write(tmp_path, STAIRCASE_3)
        code, out, _ = run_main(
            capsys, "check", path, "--statement", "dlinear", "--k", "3"
        )
        assert code == 0 and "holds" in out

    def test_statement_sweep_json(self, tmp_path, capsys):
        path = write(tmp_path, STRAND_4)
        code, out, _ = run_main(
            capsys, "check", path, "--statement", "rigidity-poly", "--json"
        )
        assert code == 0
        reports = json.loads(out)
        sch = schema("report.schema.json")
        for r in reports:
            jsonschema.validate(r, sch)

    def test_all(self, tmp_path, capsys):
        path = write(tmp_path, STRAND_4)
        code, out, _ = run_main(capsys, "check", path, "--all")
        assert code == 0 and "0 violations" in out

    def test_statement_sweeps_match_battery(self, tmp_path, capsys):
        """`check --statement NAME` sweeps the battery's window for NAME."""
        for text in (
            "ring poly 1 QQ\nx1^2\n",
            STRAND_4,
            "ring ext 4 QQ\ne1*e2 + e3*e4\ne2*e3\n",
        ):
            path = write(tmp_path, text)
            ctx = RigidityContext(parse_ideal(text), seed=0)
            reports = battery(ctx)
            for name in (name for row in BATTERY for name in row):
                if ctx.ring.kind not in STATEMENTS[name].kinds:
                    continue
                code, out, _ = run_main(
                    capsys, "check", path, "--statement", name, "--json"
                )
                assert code == 0, (text, name)
                expected = [
                    json.loads(json.dumps(r.to_json()))
                    for r in reports
                    if r.statement == name
                ]
                assert json.loads(out) == expected, (text, name)

    def test_flag_the_statement_does_not_take_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, STAIRCASE_3)
        for argv, message in (
            (("dominance", "--k", "3"), "takes no parameters, not k"),
            (("first-strand", "--i", "2"), "takes k, not i"),
            (("post-clinear", "--target", "lex"), "takes k, q, not target"),
        ):
            code, out, err = run_main(capsys, "check", path, "--statement", *argv)
            assert code == 1, argv
            assert message in err and out == ""

    def test_battery_takes_no_statement_or_pin_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "ring poly 2 QQ\nx1^2\n")
        for argv, message in (
            (("--all", "--k", "3"), "battery takes no --k"),
            (("--k", "3"), "battery takes no --k"),
            (("--all", "--i", "2", "--target", "lex"), "no --i, --target"),
            (("--q", "1"), "battery takes no --q"),
            (("--statement", "dominance", "--all"), "--all and --statement"),
            (("--all", "--statement", "crigid", "--k", "1"), "--all and --statement"),
        ):
            code, out, err = run_main(capsys, "check", path, *argv)
            assert code == 1, argv
            assert message in err and out == "", argv

    def test_statement_of_the_other_ring_kind_exit_1(self, tmp_path, capsys):
        poly = write(tmp_path, "ring poly 1 QQ\nx1^2\n", "poly.txt")
        ext = write(tmp_path, "ring ext 3 QQ\ne1*e2\ne2*e3\n", "ext.txt")
        for path, argv, message in (
            # empty windows: these printed "0 checks" and exited 0
            (poly, ("rigidity-ext",), "exterior statement"),
            (ext, ("rigidity-poly", "--imax", "0"), "polynomial-ring statement"),
            # nonempty windows
            (poly, ("total-betti-componentwise",), "exterior statement"),
            (ext, ("post-clinear",), "polynomial-ring statement"),
            (ext, ("crigid",), "polynomial-ring statement"),
            (ext, ("cancellation-delta",), "polynomial-ring statement"),
        ):
            code, out, err = run_main(
                capsys, "check", path, "--statement", *argv
            )
            assert code == 1, argv
            assert message in err and out == "", argv

    def test_negative_strand_or_prefix_exit_1(self, tmp_path, capsys):
        # linear-component, dlinear and clinear printed VIOLATED (exit 3)
        # at --k -1, and the other statements "held"
        for text in ("ring poly 3 QQ\nx1^2\nx1*x2\nx2^2\n",
                     "ring ext 3 QQ\ne1*e2\ne2*e3\n"):
            path = write(tmp_path, text)
            kind = parse_ideal(text).ring.kind
            pins = [
                (name, axis)
                for name, statement in STATEMENTS.items()
                if kind in statement.kinds
                for axis, _ in statement.axes
                if axis in ("k", "q")
            ]
            assert ("dlinear", "k") in pins
            for name, axis in pins:
                code, out, err = run_main(
                    capsys, "check", path, "--statement", name,
                    f"--{axis}", "-1",
                )
                assert code == 1, (kind, name, axis)
                assert f"{axis} must be nonnegative" in err and out == ""

    def test_unknown_statement(self, tmp_path, capsys):
        path = write(tmp_path, STAIRCASE_3)
        code, _, err = run_main(capsys, "check", path, "--statement", "nope")
        assert code == 1 and "unknown statement" in err
        # refused before the file is read
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_main(capsys, "check", missing, "--statement", "nope")
        assert code == 1 and "unknown statement" in err and out == ""
        assert "cannot read" not in err


class TestErrors:
    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "ring poly 2 QQ\nx1 + x2^2\n")
        code, _, err = run_main(capsys, "betti", path)
        assert code == 1 and "inhomogeneous" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_main(capsys, "betti", "/nonexistent/file")
        assert code == 1

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run_main(capsys, "betti")
        assert code == 1

    def test_bad_flag_value_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, STAIRCASE_3)
        code, _, _ = run_main(capsys, "gin", path, "--trials", "1")
        assert code == 1

    def test_degree_cap_exit_2(self, tmp_path):
        path = write(tmp_path, "ring poly 2 QQ\nx1^70\n")
        for command in ("gin", "betti", "lex"):
            cmd = [sys.executable, "-m", "ginlab.cli", command, path]
            run = subprocess.run(cmd, capture_output=True, text=True)
            assert run.returncode == 2, (command, run.stderr)
            assert run.stderr.startswith("computation failed:")
            assert "Traceback" not in run.stderr
        # refused before the coordinate change, which alone takes seconds
        path = write(tmp_path, "ring poly 2 QQ\nx1^2000\n", "high.txt")
        for command in (
            ["gin"], ["betti"], ["gin", "--order", "lex"],
            ["gin", "--order", "deglex"],
        ):
            cmd = [sys.executable, "-m", "ginlab.cli", *command, path]
            run = subprocess.run(
                cmd, capture_output=True, text=True, timeout=10
            )
            assert run.returncode == 2, (command, run.stderr)
            assert run.stderr.startswith("computation failed:")
            assert "Traceback" not in run.stderr

    def test_lost_multiple_exit_3(self, tmp_path, capsys, monkeypatch):
        pivots = groebner._degree_pivot_monomials

        def dropping(*args):
            return {m for m in pivots(*args) if m[0] < 3}

        monkeypatch.setattr(groebner, "_degree_pivot_monomials", dropping)
        path = write(tmp_path, STAIRCASE_3)
        code, out, err = run_main(capsys, "gin", path)
        assert code == 3 and not out
        assert err.startswith("implementation fault: degree 3")

    def test_window_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # a gin one degree short of x1^2 leaves the staircase's quadrics
        # on the certification strand
        def short_gin(ideal, seed=0):
            return MonomialIdeal(ideal.ring, [(1, 0, 0)]), None

        monkeypatch.setattr(betti, "gin", short_gin)
        path = write(tmp_path, STAIRCASE_3)
        code, out, err = run_main(capsys, "betti", path)
        assert code == 3 and not out
        assert err.startswith("implementation fault: certification strand 1")

    def test_unstable_closed_form_input_exit_3(self, tmp_path, capsys, monkeypatch):
        # the transfer targets are certified gins and lexsegments, so a
        # closed form that sees a non-stable ideal is a fault, not usage
        monkeypatch.setattr(betti, "is_strongly_stable", lambda J: False)
        path = write(tmp_path, STAIRCASE_3)
        code, out, err = run_main(
            capsys, "check", path, "--statement", "transfer"
        )
        assert code == 3 and not out
        assert err.startswith("implementation fault: ")
        assert err.rstrip().endswith("is not strongly stable")

    def test_genericity_not_reached_exit_2(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, STAIRCASE_3)
        monkeypatch.setattr(groebner, "is_strongly_stable", lambda J: False)
        code, out, err = run_main(capsys, "gin", path)
        assert code == 2 and not out
        assert err.startswith("computation failed: genericity not reached")
        monkeypatch.undo()
        alpha = annihilators._alpha_for_sequence
        monkeypatch.setattr(
            annihilators, "_alpha_for_sequence",
            lambda ideal, seq, kmax: {**alpha(ideal, seq, kmax), (1, kmax): 1},
        )
        code, out, err = run_main(capsys, "alpha", path)
        assert code == 2 and not out
        assert err.startswith("computation failed: genericity not reached")
        assert "in the zero band" in err

    def test_bad_prime_of_a_single_draw_exit_2(self, tmp_path, capsys,
                                               monkeypatch):
        # the sequence of cancellation-delta draws mod 3, which divides
        # the denominator 3 of the normal forms of I_2 that the workspace
        # reads: a computation failure, not a ValueError of pow
        force_forms_prime(monkeypatch, 3)
        path = write(tmp_path, "ring poly 3 QQ\n3*x1^2 + x2^2\nx2*x3\n")
        code, out, err = run_main(
            capsys, "check", path, "--statement", "cancellation-delta"
        )
        assert code == 2 and not out
        assert err == (
            "computation failed: prime 3: it divides the denominator 3 of I_2\n"
        )

    def test_nonpositive_coeff_bound_exit_1(self, tmp_path):
        path = write(tmp_path, STAIRCASE_3)
        for bound in ("0", "-3"):
            cmd = [
                sys.executable, "-m", "ginlab.cli", "gin", path,
                "--coeff-bound", bound,
            ]
            run = subprocess.run(
                cmd, capture_output=True, text=True, timeout=60
            )
            assert run.returncode == 1, (bound, run.stderr)
            assert "coefficient bound must be at least 1" in run.stderr
            assert "Traceback" not in run.stderr

    def test_coeff_bound_without_certified_primes_exit_1(self, tmp_path, capsys):
        # round e draws its prime from [B 2^e, B 2^(e+1)): [1, 2) holds
        # none, and primality is certified below 2^81.4 only
        path = write(tmp_path, STAIRCASE_3)
        for bound, text in (
            ("1", "[1, 2), which holds none"),
            (str(1 << 77), "coefficient bound must be at most"),
        ):
            code, out, err = run_main(capsys, "gin", path, "--coeff-bound", bound)
            assert code == 1 and not out, bound
            assert err.startswith("error: coefficient bound") and text in err

    def test_negative_imax_exterior_exit_1(self, tmp_path):
        path = write(tmp_path, "ring ext 3 QQ\ne1*e2\ne2*e3\n")
        for command in (
            ["betti"], ["check"], ["check", "--statement", "transfer"]
        ):
            cmd = [
                sys.executable, "-m", "ginlab.cli", *command, path,
                "--imax", "-1",
            ]
            run = subprocess.run(
                cmd, capture_output=True, text=True, timeout=60
            )
            assert run.returncode == 1, (command, run.stderr)
            assert "i_max must be nonnegative" in run.stderr
            assert "Traceback" not in run.stderr

    def test_negative_imax_polynomial_exit_1(self, tmp_path, capsys):
        # refused before the file is read, so a missing file says the same
        path = write(tmp_path, STAIRCASE_3)
        missing = str(tmp_path / "missing.txt")
        for command in ("betti", "check"):
            for target in (path, missing):
                code, out, err = run_main(capsys, command, target, "--imax", "-1")
                assert code == 1, (command, target, err)
                assert (out, err) == ("", "error: i_max must be nonnegative\n")


class TestCorpus:
    def test_listing_sorted_by_digest(self, capsys):
        code, out, _ = run_main(
            capsys, "corpus", "--kind", "poly", "--n", "2", "--count", "5",
            "--seed", "3",
        )
        assert code == 0
        digests = [line.split()[0] for line in out.strip().splitlines()]
        assert digests == sorted(digests)

    def test_check_all(self, capsys):
        code, out, _ = run_main(
            capsys, "corpus", "--kind", "ext", "--n", "3", "--count", "4",
            "--seed", "1", "--check-all",
        )
        assert code == 0 and "all statements hold" in out

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="needs two CPUs for two workers"
    )
    def test_two_workers_match_one(self):
        # the multiprocessing.Pool branch of --check-all prints what the
        # serial loop prints
        runs = []
        for workers in ("1", "2"):
            cmd = [
                sys.executable, "-m", "ginlab.cli", "corpus", "--n", "2",
                "--count", "4", "--seed", "3", "--check-all",
                "--workers", workers,
            ]
            runs.append(
                subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            )
        serial, parallel = runs
        assert serial.returncode == parallel.returncode == 0, parallel.stderr
        assert "4 ideals checked" in serial.stdout
        assert parallel.stdout == serial.stdout

    @pytest.mark.parametrize("workers", ["0", "-3", str(10**6)])
    def test_workers_out_of_range_exit_1(self, capsys, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        code, out, err = run_main(
            capsys, "corpus", "--kind", "poly", "--n", "2", "--count", "5",
            "--check-all", "--workers", workers,
        )
        assert code == 1 and out == ""
        assert f"--workers expects an integer in 1..{os.cpu_count()}" in err

    def test_out_of_range_spec_exit_1(self):
        # --max-complexity 0 used to redraw forever; the others died in
        # randrange with an unnamed error
        for flags, message in (
            (["--max-complexity", "0"], "max complexity must be at least 1"),
            (["--max-degree", "0"], "max degree must be at least 1"),
            (["--min-gens", "5", "--max-gens", "2"],
             "min generators exceed max generators"),
            (["--min-gens", "-1"], "min generators must be nonnegative"),
            (["--count", "-1"], "count must be nonnegative"),
        ):
            cmd = [sys.executable, "-m", "ginlab.cli", "corpus", *flags]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
            assert run.returncode == 1, (flags, run.stderr)
            assert message in run.stderr
            assert "Traceback" not in run.stderr


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        path = write(tmp_path, STAIRCASE_3)
        cmd = [
            sys.executable, "-m", "ginlab.cli", "gin", path,
            "--seed", "9", "--json",
        ]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_env_seed(self, tmp_path):
        import os

        path = write(tmp_path, STAIRCASE_3)
        env = dict(os.environ, GINLAB_SEED="5")
        cmd = [sys.executable, "-m", "ginlab.cli", "gin", path, "--json"]
        a = subprocess.run(cmd, capture_output=True, env=env)
        assert json.loads(a.stdout)["certificate"]["seed"] == 5

    def test_malformed_env_seed_exit_1(self, tmp_path):
        import os

        path = write(tmp_path, STAIRCASE_3)
        cmd = [sys.executable, "-m", "ginlab.cli", "gin", path, "--json"]
        for value in ("abc", "5x"):
            env = dict(os.environ, GINLAB_SEED=value)
            a = subprocess.run(cmd, capture_output=True, env=env)
            assert a.returncode == 1 and a.stdout == b""
            assert a.stderr == b"error: GINLAB_SEED must be an integer\n"
        env = dict(os.environ, GINLAB_SEED="")
        a = subprocess.run(cmd, capture_output=True, env=env)
        assert a.returncode == 0
        assert json.loads(a.stdout)["certificate"]["seed"] == 0
        # an explicit --seed wins; the variable is then not read at all
        env = dict(os.environ, GINLAB_SEED="abc")
        a = subprocess.run(cmd + ["--seed", "3"], capture_output=True, env=env)
        assert a.returncode == 0
        assert json.loads(a.stdout)["certificate"]["seed"] == 3
