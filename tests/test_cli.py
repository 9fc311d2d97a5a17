import json
import os
import subprocess
import sys
import time

from oracles import alpha_key
from pitwo.cli import main
from pitwo.congruence import congruent, term_size
from pitwo.syntax import MAX_NESTING, Hole, Name, New, Par, alpha_eq, from_json, parse, to_json
from pitwo.translate import count_holes, plug_term


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def cli(argv: list[str]) -> subprocess.CompletedProcess:
    """Run pitwo in a fresh interpreter, as from the command line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "pitwo.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestCommands:
    def test_parse(self, capsys):
        code, out = run(capsys, "parse", "x?(y)=>0|x!(u)")
        assert code == 0
        assert out.strip() == "x?(y) => 0 | x!(u)"

    def test_parse_json_round_trip(self, capsys):
        code, out = run(capsys, "--json", "parse", "x?(y) => y!() | x!(u)")
        data = json.loads(out)
        assert congruent(parse(data["term"]), parse("x?(y) => y!() | x!(u)"))

    def test_fn(self, capsys):
        code, out = run(capsys, "fn", "x?(y) => y!() | x!(u)")
        assert code == 0 and out.split() == ["u", "x"]

    def test_canon(self, capsys):
        code, out = run(capsys, "canon", "0 | a!()")
        assert code == 0 and out.strip() == "a!()"

    def test_canon_gc_flag(self, capsys):
        code, out = run(capsys, "canon", "(new x) 0", "--gc-vacuous")
        assert out.strip() == "0"

    def test_equiv_exit_codes(self, capsys):
        assert run(capsys, "equiv", "a!() | b!()", "b!() | a!()")[0] == 0
        assert run(capsys, "equiv", "a!()", "b!()")[0] == 1

    def test_step(self, capsys):
        code, out = run(capsys, "step", "x?(y) => y!() | x!(u)")
        assert code == 0 and out.strip() == "u!()"

    def test_run(self, capsys):
        code, out = run(capsys, "--json", "run", "x?(y) => 0 | x!(u)")
        data = json.loads(out)
        assert len(data["states"]) == 2 and data["edges"] == [[0, 1]]

    def test_barbs(self, capsys):
        code, out = run(capsys, "barbs", "(new u)(u!(a) | z!(u))")
        assert out.split() == ["z"]

    def test_bisim_verdicts(self, capsys):
        assert run(capsys, "bisim", "0", "x?(y) => 0")[0] == 0
        code, out = run(capsys, "bisim", "x!(u)", "0")
        assert code == 1 and "barb" in out

    def test_translate_json(self, capsys):
        code, out = run(capsys, "--json", "translate", "x!(u)")
        data = json.loads(out)
        assert data["dom"] == ["N", "N"] and data["cod"] == ["P"]

    def test_translate_seals_with_the_given_permit_count(self, capsys):
        for k in (0, 1, 2):
            _, out = run(capsys, "--json", "translate", "x!(u)", "--comm-tokens", str(k))
            kinds = [n["kind"] for n in json.loads(out)["nodes"]]
            assert kinds.count("comm") == k and kinds.count("name") == 2

    def test_translate_dot(self, capsys):
        code, out = run(capsys, "translate", "x!(u)", "--top", "--dot")
        assert out.startswith("digraph")
        assert "COMM" in out

    def test_redexes(self, capsys):
        code, out = run(capsys, "--json", "redexes", "x?(y) => y!() | x!(u)")
        assert len(json.loads(out)["redexes"]) == 1

    def test_redex_ids_name_export_nodes(self, capsys):
        term = "x?(y) => y!() | x!(u)"
        _, top = run(capsys, "--json", "translate", term, "--top")
        kinds = {n["id"]: n["kind"] for n in json.loads(top)["nodes"]}
        _, out = run(capsys, "--json", "redexes", term)
        (r,) = json.loads(out)["redexes"]
        assert [kinds[r[k]] for k in ("output_node", "input_node", "catalyst")] == [
            "send", "recv", "comm"]

    def test_concurrent_ids_name_export_nodes(self, capsys):
        term = "(a?() => 0 | a!()) | (b?() => 0 | b!())"
        _, top = run(capsys, "--json", "translate", term, "--top", "--comm-tokens", "2")
        kinds = {n["id"]: n["kind"] for n in json.loads(top)["nodes"]}
        _, out = run(capsys, "--json", "concurrent", term, "--comm-tokens", "2")
        (step,) = json.loads(out)["steps"]
        for r in step:
            assert [kinds[r[k]] for k in ("output_node", "input_node", "catalyst")] == [
                "send", "recv", "comm"]
        assert len({r["catalyst"] for r in step}) == 2

    def test_dot_wires_follow_json_wires(self, capsys):
        term = "x?(y) => y!(x) | x?(z) => z!() | x!(a)"
        _, top = run(capsys, "--json", "translate", term, "--top")
        _, dot = run(capsys, "translate", term, "--top", "--dot")

        def end(e):
            return f"{e[0]}{e[1]}" if e[0] in ("dom", "cod") else f"n{e[1]}"

        want = [(end(w["from"]), end(w["to"])) for w in json.loads(top)["wires"]]
        got = [tuple(line.split(" [")[0].strip().split(" -> "))
               for line in dot.splitlines() if " -> " in line]
        assert got == want

    def test_crewrite(self, capsys):
        code, out = run(capsys, "--json", "crewrite", "x?(y) => y!() | x!(u)", "--index", "0")
        data = json.loads(out)
        kinds = {n["kind"] for n in data["nodes"]}
        assert code == 0 and "comm" in kinds and "recv" not in kinds

    def test_crewrite_bad_index(self, capsys):
        assert run(capsys, "crewrite", "0", "--index", "3")[0] == 1

    def test_concurrent(self, capsys):
        code, out = run(
            capsys, "--json", "concurrent",
            "(a?() => 0 | a!()) | (b?() => 0 | b!())", "--comm-tokens", "2",
        )
        data = json.loads(out)
        assert len(data["steps"]) == 1 and len(data["steps"][0]) == 2

    def test_verify(self, capsys):
        code, out = run(capsys, "--json", "verify", "--lemma", "observation",
                        "--names", "1", "--max-size", "1")
        data = json.loads(out)
        assert code == 0 and data["passed"] is True

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "term.pi"
        path.write_text("x?(y) => y!() | x!(u)")
        code, out = run(capsys, "step", f"@{path}")
        assert code == 0 and out.strip() == "u!()"


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        assert main(["parse", "x!("]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["parse", "@/nonexistent/term"]) == 2

    def test_directory_exit_2(self, capsys, tmp_path):
        assert main(["parse", f"@{tmp_path}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_file_not_utf8_exit_2(self, capsys, tmp_path):
        path = tmp_path / "term"
        path.write_bytes(b"x!(\xff)")
        assert main(["parse", f"@{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate", "0"]) == 2

    def test_budget_exit_1(self, capsys):
        assert main(["run", "x?(y) => 0 | x!(u)", "--max-states", "1"]) == 1

    def test_negative_max_states_exit_2(self, capsys):
        for argv in (["run", "0"], ["bisim", "0", "0"]):
            assert main([*argv, "--max-states", "-1"]) == 2
            assert "usage:" in capsys.readouterr().err

    def test_negative_comm_tokens_exit_2(self, capsys):
        for argv in (["translate", "x!(u)", "--top"], ["redexes", "x!(u)"],
                     ["crewrite", "x!(u)", "--index", "0"], ["concurrent", "x!(u)"]):
            assert main([*argv, "--comm-tokens", "-1"]) == 2
            assert "usage:" in capsys.readouterr().err

    def test_names_beyond_alphabet_exit_2(self, capsys):
        assert main(["verify", "--lemma", "observation", "--names", "9"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_nesting_at_the_limit_canonicalises(self, capsys):
        assert main(["canon", "a?() => " * MAX_NESTING + "0"]) == 0
        assert capsys.readouterr().out.strip().startswith("a?() => a?() =>")

    def test_nesting_past_the_limit_exit_2(self):
        proc = cli(["canon", "a?() => " * 5000 + "0"])
        assert proc.returncode == 2
        assert "parse error" in proc.stderr and "Traceback" not in proc.stderr

    def test_wide_term_no_traceback(self, capsys):
        # Every walk over a parallel tree keeps an explicit stack, and no hash
        # recurses.  translate --top has the larger budget because most of its
        # time goes to exporting a diagram of 5006 nodes and 15004 wires.  The
        # last step substitutes into a body of 3000 parallel parts.
        wide = " | ".join(["a!(b)"] * 5000)
        fires_wide = "a!(b) | a?(x) => (" + " | ".join(["x!()"] * 3000) + ")"
        for argv, term, budget_s in ((["canon"], wide, 1.0), (["step"], wide, 1.0),
                                     (["barbs"], wide, 1.0), (["translate", "--top"], wide, 2.0),
                                     (["step"], fires_wide, 1.0)):
            t0 = time.process_time()
            assert main([*argv, term]) == 0, argv
            assert time.process_time() - t0 < budget_s, argv
            assert capsys.readouterr().err == ""
        p = parse(wide)
        assert from_json(to_json(p)) is p
        renamed = parse(wide.replace("b", "c"))
        assert alpha_eq(New(Name("b"), p), New(Name("c"), renamed))
        assert alpha_key(p) == alpha_key(parse(wide))
        assert alpha_key(p) != alpha_key(renamed)
        assert term_size(p) == 9999
        c = Par(p, Hole())
        assert count_holes(c) == 1
        assert plug_term(c, p) is Par(p, p)

    def test_closed_stdout_exits_quietly(self):
        # stdout is a pipe whose reader has already gone
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for argv in (["parse", "x!(u)"], ["--json", "translate", "x!(u)"]):
            r, w = os.pipe()
            os.close(r)
            try:
                proc = subprocess.run([sys.executable, "-m", "pitwo.cli", *argv], env=env,
                                      stdout=w, stderr=subprocess.PIPE, text=True, timeout=120)
            finally:
                os.close(w)
            assert proc.returncode == 1, argv
            assert proc.stderr == "", argv

    def test_outputs_reparse_to_congruent_terms(self, capsys):
        code = main(["--json", "step", "(new x)(x?(v) => 0 | x!(a))"])
        data = json.loads(capsys.readouterr().out)
        for s in data["successors"]:
            parse(s)
