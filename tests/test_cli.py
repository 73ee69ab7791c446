import errno
import json
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from arcon import build, corpus, format_graph_text
from arcon.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(format_graph_text(g))
    return str(p)


def kv(line):
    out = {}
    for tok in line.split():
        k, _, v = tok.partition("=")
        out[k] = v
    return out


class TestAcnum:
    def test_triod(self, runner, tmp_path):
        path = write_graph(tmp_path, "triod.graph", corpus.triod())
        res = runner.invoke(main, ["acnum", path])
        assert res.exit_code == 0
        rec = kv(res.output.strip())
        assert rec["ac"] == "2" and rec["omega"] == "false"

    def test_theta_omega(self, runner, tmp_path):
        path = write_graph(tmp_path, "theta.graph", corpus.theta())
        res = runner.invoke(main, ["acnum", path])
        assert res.exit_code == 0
        assert kv(res.output.strip())["ac"] == "omega"

    def test_witness(self, runner, tmp_path):
        path = write_graph(tmp_path, "triod.graph", corpus.triod())
        res = runner.invoke(main, ["acnum", path, "--witness", "--json"])
        rec = json.loads(res.output)
        assert rec["counterexample_n"] == 3
        assert "counts" in rec["counterexample"]

    def test_long_subdivided_circle(self, runner, tmp_path):
        p = tmp_path / "circle.graph"
        p.write_text("".join(f"v{i} v{(i + 1) % 1000}\n" for i in range(1000)))
        res = runner.invoke(main, ["acnum", str(p)])
        assert res.exit_code == 0
        assert kv(res.output.strip())["ac"] == "omega"

    def test_malformed_file_exits_2(self, runner, tmp_path):
        p = tmp_path / "bad.graph"
        p.write_text("a b c d\n")
        res = runner.invoke(main, ["acnum", str(p)])
        assert res.exit_code == 2

    def test_non_utf8_file_exits_2(self, runner, tmp_path):
        p = tmp_path / "latin1.graph"
        p.write_bytes("a b\nb \xe9\n".encode("latin-1"))
        res = runner.invoke(main, ["acnum", str(p)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output

    def test_disconnected_exits_2(self, runner, tmp_path):
        p = tmp_path / "dis.graph"
        p.write_text("a a\nb b\n")
        res = runner.invoke(main, ["acnum", str(p)])
        assert res.exit_code == 2

    @pytest.mark.slow
    def test_long_covering_path_exits_2(self, runner, tmp_path):
        # a 500-rung ladder is smooth, and its level-4 scan asks for a
        # covering path through all 1,000 vertices
        p = tmp_path / "ladder.graph"
        rungs = [f"a{i} b{i}\n" for i in range(500)]
        rails = [f"{r}{i} {r}{i + 1}\n" for r in "ab" for i in range(499)]
        p.write_text("".join(rungs + rails))
        res = runner.invoke(main, ["acnum", str(p)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: covering path deeper than the recursion limit" in res.output

    def test_engine_bound_exits_2(self, runner, tmp_path, monkeypatch):
        # K3,3 has no endpoint and no cut vertex, so level 4 scans; its 72
        # automorphisms exceed the bound, its twin classes (3! * 3! = 36) do not
        monkeypatch.setattr("arcon.symmetry.SKELETON_AUTO_LIMIT", 50)
        path = write_graph(tmp_path, "k33.graph", corpus.k33())
        res = runner.invoke(main, ["acnum", path])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: automorphism group" in res.output


class TestClassify:
    def test_lollipop(self, runner, tmp_path):
        path = write_graph(tmp_path, "l.graph", corpus.lollipop())
        res = runner.invoke(main, ["classify", path])
        rec = kv(res.output.strip())
        assert rec["class"] == "lollipop" and rec["omega"] == "true"
        assert rec["three_leaf_blocks"] == "false" and "end_count" not in rec

    def test_k33(self, runner, tmp_path):
        path = write_graph(tmp_path, "k.graph", corpus.k33())
        res = runner.invoke(main, ["classify", path])
        rec = kv(res.output.strip())
        assert rec["class"] == "other" and rec["omega"] == "false"
        assert rec["three_leaf_blocks"] == "false" and rec["end_count"] == "7"

    def test_five_star_rule(self, runner, tmp_path):
        path = write_graph(tmp_path, "s.graph", corpus.star(5))
        res = runner.invoke(main, ["classify", path])
        assert kv(res.output.strip())["end_count"] == "3"

    def test_leaf_block_rule(self, runner, tmp_path):
        g = build("abc", [("a", "b"), ("b", "c"), ("c", "a"),
                          ("a", "a"), ("b", "b"), ("c", "c")])
        path = write_graph(tmp_path, "t.graph", g)
        res = runner.invoke(main, ["classify", path])
        rec = kv(res.output.strip())
        assert rec["three_leaf_blocks"] == "true" and rec["end_count"] == "4"


class TestHomeo:
    def test_true_exit_zero(self, runner, tmp_path):
        a = write_graph(tmp_path, "a.graph", corpus.circle())
        b = write_graph(tmp_path, "b.graph", corpus.circle().subdivide("e0", 3)[0])
        res = runner.invoke(main, ["homeo", a, b])
        assert res.exit_code == 0
        assert kv(res.output.strip())["homeomorphic"] == "true"

    def test_false_exit_one(self, runner, tmp_path):
        a = write_graph(tmp_path, "a.graph", corpus.lollipop())
        b = write_graph(tmp_path, "b.graph", corpus.arc())
        res = runner.invoke(main, ["homeo", a, b])
        assert res.exit_code == 1


class TestEnumerate:
    def test_three_edges(self, runner):
        res = runner.invoke(main, ["enumerate", "--edges", "3"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert kv(lines[-1])["count"] == "6"

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "census.jsonl"
        res = runner.invoke(main, ["enumerate", "--edges", "2", "--out", str(out)])
        assert res.exit_code == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(recs) == 2 and all(r["edges"] == 2 for r in recs)

    def test_bound_exit_2(self, runner):
        res = runner.invoke(main, ["enumerate", "--edges", "99"])
        assert res.exit_code == 2

    def test_out_file_in_missing_directory_exit_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "census.jsonl"
        res = runner.invoke(main, ["enumerate", "--edges", "2", "--out", str(out)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.stderr and not out.parent.exists()
        # the file is opened before the census is built
        assert "canon=" not in res.stdout and "count=" not in res.stdout


def test_closed_output_pipe_is_no_input_error(runner, monkeypatch):
    # ``arcon enumerate ... | head -1``: click ends a broken pipe with exit 1
    def closed(record, as_json):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr("arcon.cli._emit", closed)
    res = runner.invoke(main, ["enumerate", "--edges", "2"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error" not in res.stderr


BAD_INPUTS = {
    "malformed": b"a b c d\n",
    "non-utf8": "a b\nb \xe9\n".encode("latin-1"),
    "disconnected": b"a a\nb b\n",
}


@pytest.mark.parametrize("command", ["acnum", "classify", "homeo"])
@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
def test_bad_input_exits_2(runner, tmp_path, command, kind):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(BAD_INPUTS[kind])
    args = [command, str(bad)]
    if command == "homeo":
        args.append(write_graph(tmp_path, "arc.graph", corpus.arc()))
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ") and res.stdout == ""


class TestSearch:
    def test_profile_search(self, runner):
        from arcon import canonical_form

        res = runner.invoke(main, ["search", "--edges-min", "3", "--edges-max", "3",
                                   "--profile", "=2", "--json"])
        assert res.exit_code == 0
        lines = res.stdout.strip().splitlines()
        recs = [json.loads(ln) for ln in lines[:-1]]
        # four of the six 3-edge classes stop at 2 (triod, 3-rose, both loop+leg forms)
        assert json.loads(lines[-1])["matches"] == 4
        assert canonical_form(corpus.triod()).hex() in {r["canon"] for r in recs}

    def test_resume(self, runner, tmp_path):
        ck = tmp_path / "ck.jsonl"
        args = ["search", "--edges-min", "1", "--edges-max", "3",
                "--profile", "omega", "--resume", str(ck)]
        res1 = runner.invoke(main, args)
        assert res1.exit_code == 0
        res2 = runner.invoke(main, args)
        assert res2.exit_code == 0
        assert res1.stdout == res2.stdout

    def test_jobs_identical_stdout(self, runner):
        out = {}
        for jobs in ("1", "2"):
            res = runner.invoke(main, ["search", "--edges-min", "1", "--edges-max", "5",
                                       "--profile", "=3", "--jobs", jobs])
            assert res.exit_code == 0
            out[jobs] = res.stdout
        assert out["1"] == out["2"]
        assert kv(out["1"].splitlines()[-1])["matches"] == "15"

    def test_progress_on_stderr(self, runner, monkeypatch):
        from itertools import count

        from arcon import cli

        clock = count(0, 0.25)  # each reading a quarter second later
        monkeypatch.setattr(cli, "monotonic", lambda: next(clock))
        res = runner.invoke(main, ["search", "--edges-min", "1", "--edges-max", "5",
                                   "--profile", "=3"])
        assert res.exit_code == 0
        lines = res.stderr.splitlines()
        assert all(ln.startswith("progress: ") for ln in lines)
        # 63 graphs: throttled to a line a second, then one final line
        assert 2 <= len(lines) < 63
        final = kv(lines[-1])
        assert (final["edges"], final["done"], final["matches"]) == ("5", "63", "15")
        assert "progress" not in res.stdout

    def test_corrupt_checkpoint_exit_2(self, runner, tmp_path):
        ck = tmp_path / "ck.jsonl"
        args = ["search", "--edges-min", "1", "--edges-max", "3",
                "--profile", "omega", "--resume", str(ck)]
        assert runner.invoke(main, args).exit_code == 0
        lines = ck.read_text().splitlines(keepends=True)
        lines[1] = "{not json\n"
        ck.write_text("".join(lines))
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "corrupt" in res.output

    def test_checkpoint_in_missing_directory_exit_2(self, runner, tmp_path):
        ck = tmp_path / "missing" / "cp.jsonl"
        res = runner.invoke(main, ["search", "--edges-min", "1", "--edges-max", "2",
                                   "--profile", "omega", "--resume", str(ck)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output and not ck.parent.exists()

    def test_bad_profile_exit_2(self, runner):
        for expr in ("=9", "=x", "=3,!x"):
            res = runner.invoke(main, ["search", "--edges-min", "1", "--edges-max", "2",
                                       "--profile", expr])
            assert res.exit_code == 2, expr
            assert isinstance(res.exception, SystemExit)
            assert "error:" in res.output

    def test_jobs_zero_exit_2(self, runner):
        res = runner.invoke(main, ["search", "--edges-min", "1", "--edges-max", "2",
                                   "--profile", "=3", "--jobs", "0"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: jobs" in res.output


class TestVerifyPaper:
    def test_single_entry(self, runner):
        res = runner.invoke(main, ["verify-paper", "--only", "triod"])
        assert res.exit_code == 0
        assert "ok=true" in res.output
        assert "failures=0" in res.output

    def test_refines_every_entry(self, runner):
        res = runner.invoke(main, ["verify-paper", "--only", "double-circle-5"])
        assert res.exit_code == 0
        assert "check=refine entry=double-circle-5 ok=true" in res.output

    def test_small_family(self, runner):
        res = runner.invoke(main, ["verify-paper", "--only", "circle-two"])
        assert res.exit_code == 0

    def test_injected_fault_exits_one(self, runner, monkeypatch):
        # flip the K3,3 expectation to 7: the verifier must notice and fail
        import arcon.corpus as c

        broken = tuple(
            e if e.name != "k33" else type(e)(e.name, e.builder, "7", e.homeo,
                                              e.planar, e.claim)
            for e in c.CORPUS
        )
        monkeypatch.setattr(c, "CORPUS", broken)
        res = runner.invoke(main, ["verify-paper", "--only", "k33"])
        assert res.exit_code == 1
        assert "ok=false" in res.output

    def test_unknown_entry_usage_error(self, runner):
        res = runner.invoke(main, ["verify-paper", "--only", "nope"])
        assert res.exit_code == 2


def test_readme_example(runner, tmp_path, monkeypatch):
    # each "$ arcon ..." line of the README's Example block prints the lines
    # shown under it, on the triod file its printf line writes
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Example:\n\n```\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    runs = []
    for line in block.splitlines():
        if line.startswith("$ printf "):
            _, body, _, name = shlex.split(line[2:])
            Path(name).write_text(body.replace("\\n", "\n"), encoding="utf-8")
        elif line.startswith("$ arcon "):
            runs.append((shlex.split(line[2:])[1:], []))
        else:
            runs[-1][1].append(line)
    assert [args[0] for args, _ in runs] == ["acnum", "classify"]
    for args, shown in runs:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.stdout.splitlines() == shown
