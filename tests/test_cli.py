"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro import MSSG, MSSGConfig
from repro.cli import main
from repro.graphgen import read_ascii_edges, read_binary_edges


class TestGenerateAndStats:
    @pytest.mark.parametrize("generator", ["pubmed", "ba", "rmat"])
    def test_generate_ascii(self, tmp_path, capsys, generator):
        out = tmp_path / "edges.txt"
        rc = main(
            ["generate", str(out), "--generator", generator, "--vertices", "300"]
        )
        assert rc == 0
        with open(out) as f:
            edges = read_ascii_edges(f)
        assert len(edges) > 100
        assert "wrote" in capsys.readouterr().out

    def test_generate_binary(self, tmp_path):
        out = tmp_path / "edges.bin"
        assert main(["generate", str(out), "--vertices", "200"]) == 0
        with open(out, "rb") as f:
            edges = read_binary_edges(f)
        assert edges.shape[1] == 2

    def test_stats(self, tmp_path, capsys):
        out = tmp_path / "e.txt"
        main(["generate", str(out), "--vertices", "200"])
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Vertices" in text and "Avg. Deg." in text


class TestSearch:
    def test_search_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "e.txt"
        main(["generate", str(out), "--vertices", "300", "--seed", "3"])
        capsys.readouterr()
        rc = main(
            [
                "search", str(out),
                "--query", "0:250", "--query", "1:1",
                "--backend", "HashMap", "--backends", "3",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "ingested" in text
        assert "distance(0 -> 250)" in text
        assert "distance(1 -> 1) = 0" in text

    def test_search_pipelined(self, tmp_path, capsys):
        out = tmp_path / "e.txt"
        main(["generate", str(out), "--vertices", "200"])
        capsys.readouterr()
        assert main(["search", str(out), "--query", "0:5", "--pipelined"]) == 0
        assert "distance(0 -> 5)" in capsys.readouterr().out

    def test_search_concurrent_with_analyses(self, tmp_path, capsys):
        out = tmp_path / "e.txt"
        main(["generate", str(out), "--vertices", "300", "--seed", "3"])
        capsys.readouterr()
        rc = main(
            [
                "search", str(out),
                "--query", "0:5", "--query", "1:7", "--inflight", "2",
                "--analysis", "pagerank:max-iters=5",
                "--analysis", "components",
                "--analysis", "neighborhood:source=0,hops=2",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        with open(out) as f:
            edges = read_ascii_edges(f)
        with MSSG(MSSGConfig(num_backends=2, backend="HashMap")) as mssg:
            mssg.ingest(edges)
            pagerank = mssg.query("pagerank", max_iters=5).result
            components = mssg.query("components").result
            ball = mssg.query("neighborhood", source=0, hops=2).result

        def line(prefix):
            (found,) = [x for x in lines if x.startswith(prefix)]
            return found

        assert line("pagerank: ").startswith(
            f"pagerank: {pagerank['num_vertices']:,} vertices, 5 iterations "
        )
        assert line("components: ").startswith(
            f"components: {components['num_components']} components, "
            f"largest {components['sizes'][0]:,}   ["
        )
        assert line("neighborhood: ").startswith(f"neighborhood: {ball}   [")
        assert line("distance(0 -> 5) = ") and line("distance(1 -> 7) = ")
        assert line("drained 2 queries in ")


class TestExperiment:
    def test_table_experiment(self, capsys):
        assert main(["experiment", "table5.1", "--scale", "0.1"]) == 0
        assert "Table 5.1" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig9.9"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        text = capsys.readouterr().out
        assert "fig5.4" in text and "PubMed-S" in text
