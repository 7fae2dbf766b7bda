"""The stable public facade: ``repro.connect()`` / :class:`Session`,
the typed :class:`Result` / :class:`Serialized` return shapes, the
:class:`Engine` enum, and the promise that the README quickstart runs
exactly as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro import Engine, Result, Serialized, Session

AUCTION = (
    '<site><open_auction id="1"><initial>15</initial>'
    "<bidder><time>18:43</time><increase>4.20</increase></bidder>"
    "</open_auction><closed_auction><price>620</price>"
    "</closed_auction></site>"
)

QUERY = 'doc("auction.xml")//open_auction[bidder]/initial'


@pytest.fixture()
def session():
    with repro.connect() as session:
        yield session.load(AUCTION, "auction.xml")


@pytest.fixture()
def sharded():
    with repro.connect(shards=3) as session:
        for i in range(6):
            session.load(AUCTION, f"auction{i}.xml")
        yield session


# -- connect ---------------------------------------------------------------


def test_connect_defaults_to_single_backend(session):
    assert isinstance(session, Session)
    assert session.shards == 1
    assert session.documents == ["auction.xml"]
    assert "shards=1" in repr(session)


def test_connect_rejects_nonpositive_shards():
    with pytest.raises(ValueError):
        repro.connect(shards=0)


def test_load_chains(tmp_path):
    with repro.connect() as session:
        result = session.load(AUCTION, "auction.xml").execute(QUERY)
        assert len(result) == 1


def test_single_and_sharded_sessions_agree():
    query = 'collection()//open_auction[bidder]/initial'
    with repro.connect() as single, repro.connect(shards=3) as sharded:
        for i in range(6):
            text = AUCTION
            single.load(text, f"auction{i}.xml")
            sharded.load(text, f"auction{i}.xml")
        expected = single.execute(query)
        result = sharded.execute(query)
        assert list(result) == list(expected)
        assert sharded.serialize(result) == single.serialize(expected)
        assert result.serialize() == expected.serialize()
        assert sharded.run(query) == single.run(query)


# -- the Result shape ------------------------------------------------------


def test_execute_returns_typed_result(session):
    result = session.execute(QUERY)
    assert isinstance(result, Result)
    assert result.engine is Engine.JOINGRAPH_SQL
    assert result.shards == 1
    assert result.timings["execute_ns"] > 0
    assert result.items == list(result)
    assert result.serialize() == "<initial>15</initial>"


def test_result_shape_is_identical_across_serving_stacks(session, sharded):
    single = session.execute(QUERY)
    scattered = sharded.execute('collection()//open_auction/initial')
    for result in (single, scattered):
        assert isinstance(result, Result)
        assert isinstance(result.engine, Engine)
        assert "execute_ns" in result.timings
        assert isinstance(result.serialize(), str)
    assert scattered.shards == sharded.shards


def test_result_still_is_the_bare_list(session):
    result = session.execute(QUERY)
    assert isinstance(result, list)
    assert result == list(result)  # old equality checks keep passing
    assert result[0] == result.items[0]


def test_run_returns_serialized_string(session):
    out = session.run(QUERY)
    assert isinstance(out, Serialized)
    assert isinstance(out, str)  # old substring tests keep passing
    assert out == "<initial>15</initial>"
    assert isinstance(out.result, Result)
    assert out.result.engine is Engine.JOINGRAPH_SQL


def test_run_many_preserves_submission_order(session):
    results = session.run_many([QUERY, 'doc("auction.xml")//price'])
    assert [session.serialize(r) for r in results] == [
        "<initial>15</initial>",
        "<price>620</price>",
    ]


def test_bare_result_has_no_serializer():
    with pytest.raises(TypeError):
        Result([1, 2]).serialize()


# -- the Engine enum -------------------------------------------------------


def test_engine_normalization():
    assert Engine.of("joingraph-sql") is Engine.JOINGRAPH_SQL
    assert Engine.of(Engine.INTERPRETER) is Engine.INTERPRETER
    with pytest.raises(ValueError):
        Engine.of("quantum")


def test_engine_is_wire_compatible():
    assert Engine.JOINGRAPH_SQL == "joingraph-sql"
    assert str(Engine.STACKED_SQL) == "stacked-sql"
    assert f"{Engine.INTERPRETER}" == "interpreter"
    assert json.dumps(Engine.JOINGRAPH_SQL) == '"joingraph-sql"'


def test_every_entry_point_accepts_enum_and_string(session):
    for engine in Engine:
        by_enum = session.execute(QUERY, engine)
        by_str = session.execute(QUERY, engine.value)
        assert list(by_enum) == list(by_str)
        assert by_enum.engine is by_str.engine is engine


# -- the package surface ---------------------------------------------------


def test_public_surface_is_sorted_and_importable():
    assert list(repro.__all__) == sorted(repro.__all__)
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_stats_are_json_ready(session, sharded):
    json.dumps(session.stats())
    sharded_stats = sharded.stats()
    json.dumps(sharded_stats)
    assert sharded_stats["collection"]["shards"] == 3


# -- the README promise ----------------------------------------------------


def _readme_blocks() -> list[str]:
    readme = (Path(__file__).parents[2] / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", readme, flags=re.S)


def test_readme_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    blocks = [b for b in _readme_blocks() if "repro.connect(" in b]
    assert blocks, "README quickstart must use repro.connect()"
    (tmp_path / "auction.xml").write_text(AUCTION)
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "<README quickstart>", "exec"), {})
    out = capsys.readouterr().out
    assert "<open_auction" in out
    assert "joingraph-sql 1" in out
    assert "<initial>15</initial>" in out


def test_readme_pipeline_block_runs_as_written(tmp_path, monkeypatch, capsys):
    blocks = [b for b in _readme_blocks() if "XQueryProcessor()" in b]
    assert blocks, "README must keep the pipeline-layer example"
    (tmp_path / "auction.xml").write_text(AUCTION)
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "<README pipeline>", "exec"), {})
    out = capsys.readouterr().out
    assert "SELECT DISTINCT" in out
    assert "WITH " in out
