"""CLI tests (driving ``repro.cli.main`` in-process)."""

import json

import pytest

from repro.cli import main

AUCTION = (
    '<open_auction id="1"><initial>15</initial>'
    "<bidder><time>18:43</time><increase>4.20</increase></bidder>"
    "</open_auction>"
)
#: a second document; on two shards it lands on the other shard than
#: auction.xml
OTHER = "<people><person><name>Ann</name><time>09:15</time></person></people>"


@pytest.fixture()
def doc(tmp_path):
    path = tmp_path / "auction.xml"
    path.write_text(AUCTION)
    return str(path)


@pytest.fixture()
def docs(doc, tmp_path):
    """``--doc`` arguments for two documents."""
    other = tmp_path / "other.xml"
    other.write_text(OTHER)
    return ["--doc", doc, "--doc", str(other)]


def run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def run_sharded(capsys, *argv) -> str:
    """Run on one shard and on two: the output must not depend on the
    shard count."""
    one = run(capsys, *argv, "--shards", "1")
    assert run(capsys, *argv, "--shards", "2") == one
    return one


def test_query_serializes_result(docs, capsys):
    out = run_sharded(capsys, 'doc("auction.xml")//time', *docs)
    assert out.strip() == "<time>18:43</time>"


def test_items_flag(docs, capsys):
    out = run_sharded(capsys, 'doc("auction.xml")//bidder', *docs, "--items")
    assert out.strip() == "5"


def test_collection_query_spans_both_documents(docs, capsys):
    out = run_sharded(capsys, "collection()//time", *docs)
    assert out.strip() == "<time>18:43</time><time>09:15</time>"


def test_sql_flag(docs, capsys):
    out = run_sharded(capsys, 'doc("auction.xml")//bidder', *docs, "--sql")
    assert out.startswith("SELECT DISTINCT")
    assert "FROM doc AS d1" in out


def test_stacked_sql_flag(docs, capsys):
    out = run_sharded(
        capsys, 'doc("auction.xml")//bidder', *docs, "--stacked-sql"
    )
    assert out.startswith("WITH ")


def test_explain_flag(docs, capsys):
    out = run_sharded(capsys, 'doc("auction.xml")//bidder', *docs, "--explain")
    assert "IXSCAN" in out and "continuations" in out


def test_plan_flag(docs, capsys):
    out = run_sharded(capsys, 'doc("auction.xml")//bidder', *docs, "--plan")
    assert "SERIALIZE" in out and "DOC" in out


def test_engine_choices(docs, capsys):
    for engine in ("interpreter", "stacked-sql", "planner"):
        out = run_sharded(
            capsys,
            'doc("auction.xml")//bidder',
            *docs,
            "--items",
            "--engine",
            engine,
        )
        assert out.strip() == "5", engine


def test_custom_uri(doc, capsys):
    out = run_sharded(capsys, 'doc("a")//time', "--doc", f"{doc}=a", "--items")
    assert out.strip() == "6"


def test_generate_xmark(capsys):
    out = run(capsys, "--generate", "xmark", "--factor", "0.001")
    assert out.startswith("<site>")


def test_generate_dblp(capsys):
    out = run(capsys, "--generate", "dblp", "--factor", "0.0005")
    assert "<dblp>" in out


def test_trace_flag_writes_valid_chrome_trace(doc, capsys, tmp_path):
    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    out = run(
        capsys,
        'doc("auction.xml")//bidder',
        "--doc",
        doc,
        "--items",
        "--trace",
        str(trace_path),
    )
    assert out.strip() == "5"
    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    # the CLI executes through the serving stack: its execution span is
    # the serving boundary's service.query
    assert {"compile", "parse", "normalize", "looplift", "isolate",
            "service.query", "sql.run"} <= names
    assert any(n.startswith("isolate.phase:") for n in names)


def test_metrics_flag_dumps_to_stdout(docs, capsys):
    for shards in ("1", "2"):
        out = run(
            capsys, 'doc("auction.xml")//bidder', *docs, "--items",
            "--metrics", "--shards", shards,
        )
        lines = out.strip().splitlines()
        assert lines[0] == "5"
        metrics = json.loads("\n".join(lines[1:]))
        assert metrics["counters"]["pipeline.compiles"] == 1, shards
        assert any(
            k.startswith("rewrite.rule_fired.") for k in metrics["counters"]
        )
        assert any(k.startswith("planner.qerror.") for k in metrics["gauges"])


def test_metrics_flag_writes_file(doc, capsys, tmp_path):
    metrics_path = tmp_path / "metrics.json"
    run(
        capsys, 'doc("auction.xml")//bidder', "--doc", doc, "--items",
        "--metrics", str(metrics_path),
    )
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["sql.statements"] >= 1


def test_observation_does_not_leak_global_state(doc, capsys):
    from repro.obs import get_metrics, get_tracer

    before_tracer, before_metrics = get_tracer(), get_metrics()
    run(capsys, 'doc("auction.xml")//bidder', "--doc", doc, "--items",
        "--metrics")
    assert get_tracer() is before_tracer
    assert get_metrics() is before_metrics


def test_obs_subcommand_prints_summary(doc, capsys, tmp_path):
    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    out = run(
        capsys,
        "obs",
        'doc("auction.xml")//bidder',
        "--doc",
        doc,
        "--checked",
        "--trace",
        str(trace_path),
        "--metrics",
        str(metrics_path),
    )
    assert "-- 1 item(s) [joingraph-sql]" in out
    assert "== spans (where the time went) ==" in out
    assert "== rewrite rules (ranked by cost) ==" in out
    assert "== sql back-end ==" in out
    assert "== planner estimate audit (q-error) ==" in out
    assert "== analysis health" in out
    assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["pipeline.compiles"] >= 1


def test_obs_subcommand_requires_doc(capsys):
    with pytest.raises(SystemExit):
        main(["obs", "//a"])


def test_error_exit_code(doc, capsys):
    assert main(["for $x in", "--doc", doc]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_doc_is_an_error(capsys):
    with pytest.raises(SystemExit):
        main(["//a"])


def test_obs_subcommand_shows_service_section(doc, capsys):
    out = run(capsys, "obs", 'doc("auction.xml")//bidder', "--doc", doc)
    assert "== service layer (compiled-plan cache + pool) ==" in out
    assert "service.cache.hits" in out
    assert "service.cache.misses" in out
    assert "query latency" in out


def test_serve_bench_subcommand(capsys):
    """serve-bench has one mode: the flags of the removed chaos and
    soak modes are refused, and so is a single tenant."""
    for removed in (
        ["--faults"], ["--soak"], ["--threads", "4"],
        ["--queries-per-thread", "5"], ["--fault-seed", "7"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-bench", *removed])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["serve-bench", "--tenants", "1"])
    assert exit_info.value.code == 2


def test_serve_bench_faults_subcommand(capsys, tmp_path):
    """``--fault-rate 0`` runs the same storm with faults off."""
    out_path = tmp_path / "storm.json"
    code = main([
        "serve-bench",
        "--quick",
        "--duration", "0.5",
        "--load-points", "1.0",
        "--fault-rate", "0",
        "--tenants", "2",
        "--out", str(out_path),
    ])
    assert "faults off" in capsys.readouterr().out
    report = json.loads(out_path.read_text())
    assert report["faults"]["enabled"] is False
    assert list(report["tenants"]) == ["interactive", "analytics"]
    [point] = report["curve"]
    assert point["faults"]["injected_total"] == 0
    gates = report["gates"]
    assert code == (0 if gates["passed"] else 1)
    assert gates["no_wrong_answers"] and gates["no_crashes"], gates


def test_serve_bench_soak_subcommand(capsys, tmp_path):
    out_path = tmp_path / "storm.json"
    code = main([
        "serve-bench",
        "--quick",
        "--duration", "1.0",
        "--load-points", "1.0",
        "--documents", "2",
        "--factor", "0.002",
        "--fault-rate", "0.15",
        "--seed", "7",
        "--deadline", "0.5",
        "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert "storm [repro.bench.soak/v3]" in out
    assert "fairness" in out and "knee" in out and "seed 7" in out
    report = json.loads(out_path.read_text())
    assert report["schema"] == "repro.bench.soak/v3"
    assert report["metadata"]["seed"] == 7
    assert report["metadata"]["shards"] == 2
    assert len(report["tenants"]) == 4
    assert report["faults"]["enabled"] is True
    [point] = report["curve"]
    assert point["faults"]["injected_total"] == point["faults"]["handled_total"]
    # exit status 1 exactly when a gate fails; the contract gates hold
    # (the knee and fairness of a one-second point are not asserted)
    gates = report["gates"]
    assert code == (0 if gates["passed"] else 1)
    for gate in ("no_wrong_answers", "no_crashes", "ledger_balanced",
                 "slow_log_complete"):
        assert gates[gate], gates
